//! Differential fuzzing and multi-oracle equivalence verification for
//! the MBA simplifier.
//!
//! The simplifier (`mba-solver`) claims to be *semantic-preserving*:
//! Algorithm 1 may only rewrite an expression into an equivalent one
//! over `Z/2^w`. This crate is the subsystem that earns that claim
//! continuously rather than by review:
//!
//! * [`generate`] — a deterministic case stream mixing structural
//!   random ASTs with obfuscator-built linear / polynomial /
//!   non-polynomial MBA (known ground truth);
//! * [`oracle`] — a tiered equivalence oracle: concrete evaluation at
//!   widths 8–64, exact truth-table comparison for pure-bitwise pairs,
//!   and a budgeted SAT miter through `mba-smt` as the final arbiter;
//! * [`harness`] — the differential fuzzer proper: every case runs
//!   through the cache-on, cache-off, and batch simplify paths, whose
//!   outputs must be byte-identical *and* oracle-equivalent to the
//!   input;
//! * [`shrink`] — greedy minimization of any discrepancy to a
//!   few-node reproducer;
//! * [`corpus`] — the checked-in regression corpus those reproducers
//!   land in, replayed as a normal `cargo test`.
//!
//! The `mba_fuzz` binary drives the harness from the command line and
//! is wired into CI as a smoke job.
//!
//! Everything is deterministic: a run is a pure function of
//! `(seed, config)`, independent of `--jobs`.
//!
//! ```
//! use mba_verify::{FuzzConfig, Fuzzer};
//!
//! let config = FuzzConfig {
//!     iterations: 8,
//!     jobs: 1,
//!     ..FuzzConfig::default()
//! };
//! let report = Fuzzer::new(config).run();
//! assert!(report.is_clean());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod generate;
pub mod harness;
pub mod oracle;
pub mod shrink;

pub use generate::{generate_case, CaseConfig, CaseKind, FuzzCase};
pub use harness::{Discrepancy, DiscrepancyKind, FuzzConfig, FuzzReport, Fuzzer, SimplifyPath};
pub use oracle::{
    EquivalenceOracle, Mismatch, OracleConfig, OracleStats, OracleTier, Verdict,
    BDD_ORACLE_MAX_VARS,
};
pub use shrink::{shrink, ShrinkStats};
