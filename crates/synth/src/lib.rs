//! `mba-synth`: an enumerative synthesis tier for residual MBA
//! expressions.
//!
//! The algebraic pipeline (linear/semi-linear/polynomial reduction)
//! stops at expressions its classification machinery can handle;
//! everything else passes through unsimplified. This crate recovers
//! simple forms for exactly those residual cases the way the
//! GPU-synthesis line of work does (Bathie et al., arXiv 2605.08243;
//! SSLEM, arXiv 2208.05612): enumerate every small expression over the
//! target's variables bottom-up, deduplicate candidates by *semantic
//! signature* as the pool grows, and look the target up by its own
//! signature.
//!
//! Soundness is layered (see `DESIGN.md` §15):
//!
//! 1. a candidate is considered only when its complete width-1 truth
//!    table (`2^t` rows, one [`mba_expr::EvalProgram::eval_bits_wide`]
//!    pass) equals the target's — a *necessary* condition, since
//!    truncation to width 1 commutes with every MBA operator;
//! 2. the in-key probe vector ([`PROBE_LANES`] deterministic full-width
//!    valuations) must also match, separating arithmetic variants of
//!    one boolean function (`x+y` vs `x^y`);
//! 3. before substituting, the winner is re-verified against the target
//!    on [`VERIFY_LANES`] *further* deterministic valuations at the
//!    request width — a mismatch keeps the original and counts a
//!    fallback, so a rejection is never result-changing.
//!
//! Equivalence at the request width implies equivalence at every
//! narrower width (low bits of every MBA operator depend only on low
//! bits of the inputs), so a width-64 acceptance is safe for narrower
//! consumers of the same result.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use mba_expr::{metrics, EvalProgram, Expr, Ident};

mod pool;
mod signature;
mod stats;

use pool::Pool;
use signature::{probe_row, signature_of};

pub use signature::{Signature, TtSig, MAX_SYNTH_VARS, PROBE_LANES, VERIFY_LANES};
pub use stats::{publish_synth_metrics, synth_stats, SynthStats};

/// Tuning knobs for the synthesis tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthConfig {
    /// Bit width of the target ring; probe valuations (and therefore
    /// acceptances) are verified at this width.
    pub width: u32,
    /// Largest candidate node count enumerated into the pool.
    pub max_nodes: usize,
    /// Enumeration cap, checked per candidate — truncation at the cap
    /// is count-based and therefore deterministic.
    pub max_candidates: u64,
    /// Wall-clock budget for one pool build, checked only *between*
    /// node-count levels so a slow machine truncates at a level
    /// boundary, never mid-level.
    pub budget_ms: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            width: 64,
            max_nodes: 5,
            // Large enough that a 3-variable pool enumerates all of
            // level 5 (ending at the `Add` split that reaches targets
            // like `x+y+z`); a 2-variable pool finishes uncapped at
            // roughly 4k candidates.
            max_candidates: 20_000,
            budget_ms: 1000,
        }
    }
}

/// The synthesis engine: owns per-variable-set candidate pools (built
/// lazily, cached for the engine's lifetime) and answers lookup
/// queries. All methods take `&self`; the type is `Send + Sync`, so one
/// engine can back every worker of a batch simplifier — pools warm
/// across the whole corpus.
#[derive(Debug)]
pub struct Synthesizer {
    config: SynthConfig,
    pools: Mutex<HashMap<Vec<Ident>, Arc<Pool>>>,
}

impl Default for Synthesizer {
    fn default() -> Self {
        Synthesizer::new(SynthConfig::default())
    }
}

impl Synthesizer {
    /// Creates an engine with the given configuration.
    pub fn new(config: SynthConfig) -> Synthesizer {
        Synthesizer {
            config,
            pools: Mutex::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Attempts to synthesize a strictly simpler equivalent of
    /// `target`.
    ///
    /// Returns `Some(candidate)` only when the candidate's complete
    /// width-1 truth table and in-key probe vector match the target's
    /// *and* a [`VERIFY_LANES`]-point re-verification at the request
    /// width agrees *and* the candidate scores strictly better than the
    /// target. Returns `None` otherwise — the caller keeps its input,
    /// so a `None` is never result-changing.
    pub fn synthesize(&self, target: &Expr) -> Option<Expr> {
        self.query(target, true)
    }

    /// [`Synthesizer::synthesize`] with **every probe check skipped**:
    /// the first bucket entry with a matching width-1 table and a
    /// strictly better score is accepted outright.
    ///
    /// This exists solely for the verification subsystem's
    /// `SynthUnsoundAccept` fault injection — the width-1 table alone
    /// cannot separate `x+y` from `x^y`, so an accept without probes is
    /// demonstrably unsound and the fuzz harness must catch it.
    /// Production code must never call this.
    pub fn synthesize_unchecked(&self, target: &Expr) -> Option<Expr> {
        self.query(target, false)
    }

    fn query(&self, target: &Expr, checked: bool) -> Option<Expr> {
        let vars: Vec<Ident> = target.vars().into_iter().collect();
        if vars.is_empty() || vars.len() > MAX_SYNTH_VARS {
            return None;
        }
        if target.node_count() < 2 {
            // Already a leaf; nothing can be strictly smaller.
            return None;
        }
        stats::record_attempt();

        let target_program = EvalProgram::compile(target);
        let target_sig = signature_of(&target_program, &vars, self.config.width);
        let target_score = score(target);
        let pool = self.pool_for(&vars);
        let bucket = pool.by_tt.get(&target_sig.tt)?;

        for entry in bucket {
            if score(&entry.expr) >= target_score {
                continue;
            }
            if checked {
                if entry.probes != target_sig.probes {
                    // A different arithmetic lift of the same boolean
                    // function — not our target.
                    continue;
                }
                // Probe re-verify on fresh valuations (the in-key
                // probes already matched; these are VERIFY_LANES new
                // points). A mismatch means the signature collided:
                // keep the original, count the fallback, and bail —
                // weaker matches later in the bucket would collide for
                // the same reason.
                let candidate_program = EvalProgram::compile(&entry.expr);
                let k0 = PROBE_LANES as u64;
                let want = probe_row(&target_program, &vars, self.config.width, k0, VERIFY_LANES);
                let got = probe_row(
                    &candidate_program,
                    &vars,
                    self.config.width,
                    k0,
                    VERIFY_LANES,
                );
                if want != got {
                    stats::record_fallback();
                    return None;
                }
            }
            stats::record_hit();
            return Some(entry.expr.clone());
        }
        None
    }

    /// Returns (building on first use) the candidate pool for `vars`.
    ///
    /// The build runs under the cache lock: concurrent batch workers
    /// querying the same variable set wait for one build instead of
    /// duplicating it, and every worker sees the identical
    /// (deterministically enumerated) pool.
    fn pool_for(&self, vars: &[Ident]) -> Arc<Pool> {
        let mut pools = self.pools.lock().expect("synth pool lock poisoned");
        if let Some(pool) = pools.get(vars) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(Pool::build(vars, &self.config));
        pools.insert(vars.to_vec(), Arc::clone(&pool));
        pool
    }
}

/// Simplicity score, replicating the core simplifier's ordering: MBA
/// alternation dominates, then AST size, then printed length. A
/// substitution is accepted only when *strictly* smaller under this
/// tuple, so synthesis can never make a result worse.
fn score(e: &Expr) -> (usize, usize, usize) {
    (metrics::alternation(e), e.node_count(), e.to_string().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn synth() -> Synthesizer {
        Synthesizer::default()
    }

    /// The flagship residual case: a parity opaque zero
    /// `(q*(q+1)) & 1 ≡ 0` (consecutive integers ⇒ even product)
    /// wrapped around a small ground truth. The algebraic tiers cannot
    /// see mod-2 reasoning; synthesis recovers the ground truth.
    #[test]
    fn recovers_ground_truth_behind_parity_opaque_zero() {
        let s = synth();
        for (src, want) in [
            ("x + y + ((x*(x+1)) & 1)", "x+y"),
            ("(x & y) ^ (((x+y)*(x+y+1)) & 1)", "x&y"),
            ("x - y + ((y*(y+1)) & 1)", "x-y"),
            // Three variables and a 5-node truth: reaching the `Add`
            // split of level 5 needs the default candidate cap to
            // cover the full 3-variable enumeration. The (1,3) split
            // enumerates first, hence the right-associated rendering.
            ("x + y + z - (((x+z)*(x+z+1)) & 1)", "x+(y+z)"),
        ] {
            let target: Expr = src.parse().unwrap();
            let got = s
                .synthesize(&target)
                .unwrap_or_else(|| panic!("no synthesis for `{src}`"));
            assert_eq!(got.to_string(), want, "synthesizing `{src}`");
        }
    }

    #[test]
    fn accepted_results_are_equivalent_on_random_points() {
        let s = synth();
        let target: Expr = "x + y + ((x*(x+1)) & 1)".parse().unwrap();
        let got = s.synthesize(&target).unwrap();
        for (x, y) in [
            (0u64, 0u64),
            (3, 5),
            (u64::MAX, 1),
            (0xdead_beef, 0xfeed_f00d),
        ] {
            let v = Valuation::new().with("x", x).with("y", y);
            for w in [1u32, 7, 8, 32, 64] {
                assert_eq!(target.eval(&v, w), got.eval(&v, w), "width {w}");
            }
        }
    }

    #[test]
    fn never_returns_a_non_improvement() {
        let s = synth();
        // Already-minimal residual forms: nothing strictly smaller is
        // equivalent, so the tier must return None.
        for src in ["x * y", "x*y + z", "(x&y)*(x|y)"] {
            let target: Expr = src.parse().unwrap();
            assert_eq!(
                s.synthesize(&target),
                None,
                "`{src}` has no smaller equivalent"
            );
        }
    }

    #[test]
    fn gates_reject_leaves_wide_var_sets_and_constants() {
        let s = synth();
        assert_eq!(s.synthesize(&"x".parse().unwrap()), None);
        assert_eq!(s.synthesize(&"17".parse().unwrap()), None);
        let nine: Expr = "v0&v1&v2&v3&v4&v5&v6&v7&v8".parse().unwrap();
        assert_eq!(nine.vars().len(), 9);
        assert_eq!(s.synthesize(&nine), None);
    }

    #[test]
    fn unchecked_mode_accepts_the_width_one_collision() {
        // Honest synthesis recovers x+y; the unchecked variant grabs
        // the first width-1-table match, which enumeration order
        // guarantees is x^y — a real corruption (6 vs 0 at x=y=3).
        let s = synth();
        let target: Expr = "x + y + ((x*(x+1)) & 1)".parse().unwrap();
        let honest = s.synthesize(&target).unwrap();
        let unsound = s.synthesize_unchecked(&target).unwrap();
        assert_eq!(honest.to_string(), "x+y");
        assert_eq!(unsound.to_string(), "x^y");
        let v = Valuation::new().with("x", 3).with("y", 3);
        assert_ne!(target.eval(&v, 8), unsound.eval(&v, 8));
    }

    /// Mixed bitwise/arithmetic inputs that are zero (or equal to a
    /// tiny expression) on all but 6–8% of 64-bit valuations. A wrong
    /// candidate for each matched the in-key probes and a 24-lane
    /// re-verify; the re-verify must reject all of them.
    #[test]
    fn sparse_disagreements_are_rejected_by_the_re_verify() {
        let s = synth();
        for src in [
            "x&z+22&--((y&x)+(-1+y))&((-64*z+y^z+-y|(x3^z|-1-x3)+(~x3+y))&8)",
            "31-x&(x3&x&((x3*y^x3|(y*-8|~x3))&(x3+y*x&(y&z|-52^-32))))",
            "-x3&(z&(-(z|x^y)&z))",
            "x3&((x^x)+(x3-y)|x3|-x3)-y",
        ] {
            let target: Expr = src.parse().unwrap();
            assert_eq!(
                s.synthesize(&target),
                None,
                "`{src}` accepted a wrong candidate"
            );
        }
    }

    #[test]
    fn queries_are_deterministic() {
        let a = synth();
        let b = synth();
        for src in [
            "x + y + ((x*(x+1)) & 1)",
            "x*y + z",
            "(x & y) ^ (((x+y)*(x+y+1)) & 1)",
        ] {
            let target: Expr = src.parse().unwrap();
            assert_eq!(
                a.synthesize(&target),
                b.synthesize(&target),
                "`{src}` must synthesize identically across engines"
            );
        }
    }
}
