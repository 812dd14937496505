//! MBA expression substrate.
//!
//! This crate provides the representation layer shared by the whole
//! MBA-Solver reproduction: an abstract syntax tree for
//! Mixed-Bitwise-Arithmetic (MBA) expressions over `w`-bit two's-complement
//! bit-vectors, together with
//!
//! * a parser for the Python/C-like concrete syntax used throughout the MBA
//!   literature (via [`parse`] / `str::parse`),
//! * a precedence-aware pretty printer ([`Expr`]'s [`std::fmt::Display`]),
//! * an evaluator over masked `u64` bit-vectors ([`Expr::eval`]),
//! * the five complexity metrics of the paper's §3.1 ([`metrics::Metrics`]),
//! * the linear / polynomial / non-polynomial classification of
//!   Definitions 1 and 2 ([`classify::MbaClass`]).
//!
//! # Example
//!
//! ```
//! use mba_expr::{Expr, Valuation};
//!
//! let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse()?;
//! let v = Valuation::new().with("x", 13).with("y", 7);
//! // The expression is an obfuscation of `x + y`.
//! assert_eq!(e.eval(&v, 64), 13 + 7);
//! # Ok::<(), mba_expr::ParseExprError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod ast;
pub mod classify;
mod eval;
pub mod metrics;
mod ops;
mod parser;
mod printer;
pub mod program;
pub mod visit;

pub use arena::{ArenaStats, ExprArena, IdMap, NodeId};
pub use ast::{BinOp, Expr, Ident, OpDomain, UnOp};
pub use classify::MbaClass;
pub use eval::{mask, UnboundVariableError, Valuation};
pub use metrics::Metrics;
pub use parser::{parse, ParseExprError};
pub use program::{engine_stats, row_bit_pattern, EngineStats, EvalProgram, WIDE_LANES};
