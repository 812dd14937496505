//! The candidate pool: bottom-up enumeration of small expressions over
//! a fixed variable set, deduplicated by semantic signature as it
//! grows.
//!
//! Enumeration is in node-count order (the paper's Table-5 catalog
//! generalized past pure-bitwise forms): size 1 is the variables plus a
//! few small constants, size `n` applies `~`/`-` to size `n−1`
//! representatives and every binary operator to size pairs summing to
//! `n−1`. Only *semantically new* expressions — new `(truth table,
//! probe vector)` signature — become representatives and seed further
//! growth, so the pool's breadth is bounded by the number of distinct
//! small functions, not the (exponentially larger) number of candidate
//! syntax trees.
//!
//! Budgets keep a build bounded: `max_candidates` is checked per
//! enumerated candidate (count-based, so truncation is deterministic),
//! `budget_ms` only **between** size levels (a wall-clock check inside
//! a level could truncate at a machine-dependent point and break the
//! byte-identity contracts downstream).

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use mba_expr::{BinOp, EvalProgram, Expr, Ident, UnOp};

use crate::signature::{signature_of, Signature, TtSig, PROBE_LANES};
use crate::{stats, SynthConfig};

/// Constant leaves seeded at size 1. Small masks and ring units cover
/// the constants the catalog's minimal forms actually use.
const SMALL_CONSTS: [i128; 4] = [0, 1, 2, -1];

/// Unary growth operators.
const UN_OPS: [UnOp; 2] = [UnOp::Not, UnOp::Neg];

/// Binary growth operators. `Xor` is enumerated before `Add` so the
/// width-1 agreement of `x^y` and `x+y` is resolved by *probes*, never
/// by luck of ordering — the `SynthUnsoundAccept` fault injection
/// exploits exactly this order to demonstrate what skipping the probe
/// checks accepts.
const BIN_OPS: [BinOp; 6] = [
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
];

/// One deduplicated candidate: the expression and the full-width part
/// of its signature (the width-1 table is the bucket key it lives
/// under).
#[derive(Debug)]
pub(crate) struct PoolEntry {
    /// The candidate expression (built only from the pool's variables
    /// and [`SMALL_CONSTS`]).
    pub(crate) expr: Expr,
    /// In-key probe vector at the pool's width; see
    /// [`crate::signature::Signature`].
    pub(crate) probes: [u64; PROBE_LANES],
}

/// A built candidate pool for one sorted variable set at one width.
#[derive(Debug)]
pub(crate) struct Pool {
    /// Packed width-1 truth table → entries in enumeration order
    /// (node-count order, so the first score-improving match is also a
    /// smallest one).
    pub(crate) by_tt: HashMap<TtSig, Vec<PoolEntry>>,
    /// Whether a budget cut enumeration short.
    pub(crate) truncated: bool,
    /// Candidates enumerated (pre-dedup).
    pub(crate) candidates: u64,
}

/// Builder state threaded through the level loops.
struct Builder<'a> {
    vars: &'a [Ident],
    config: &'a SynthConfig,
    seen: HashSet<Signature>,
    pool: Pool,
    /// Set when `max_candidates` is reached; stops all further growth.
    full: bool,
}

impl Builder<'_> {
    /// Considers one candidate: counts it, computes its signature, and
    /// keeps it (bucket + `fresh` representatives) only if the
    /// signature is new.
    fn add(&mut self, e: Expr, fresh: &mut Vec<Expr>) {
        if self.full {
            return;
        }
        if self.pool.candidates >= self.config.max_candidates {
            self.full = true;
            self.pool.truncated = true;
            return;
        }
        self.pool.candidates += 1;
        let program = EvalProgram::compile(&e);
        let sig = signature_of(&program, self.vars, self.config.width);
        if !self.seen.insert(sig) {
            return;
        }
        fresh.push(e.clone());
        self.pool.by_tt.entry(sig.tt).or_default().push(PoolEntry {
            expr: e,
            probes: sig.probes,
        });
    }
}

impl Pool {
    /// Enumerates the pool for `vars` (sorted, `1..=MAX_SYNTH_VARS`
    /// entries) under `config`'s width and budgets.
    pub(crate) fn build(vars: &[Ident], config: &SynthConfig) -> Pool {
        let deadline = Instant::now() + Duration::from_millis(config.budget_ms);
        let mut b = Builder {
            vars,
            config,
            seen: HashSet::new(),
            pool: Pool {
                by_tt: HashMap::new(),
                truncated: false,
                candidates: 0,
            },
            full: false,
        };

        // reps[n] = size-n representatives (unique signatures only);
        // index 0 unused.
        let mut reps: Vec<Vec<Expr>> = vec![Vec::new(); config.max_nodes.max(1) + 1];

        let mut level1 = Vec::new();
        for v in vars {
            b.add(Expr::var(v.clone()), &mut level1);
        }
        for c in SMALL_CONSTS {
            b.add(Expr::constant(c), &mut level1);
        }
        reps[1] = level1;

        for n in 2..=config.max_nodes {
            if b.full {
                break;
            }
            if Instant::now() >= deadline {
                b.pool.truncated = true;
                break;
            }
            let mut fresh = Vec::new();
            // Unary over the previous level.
            for child in &reps[n - 1] {
                for op in UN_OPS {
                    b.add(Expr::unary(op, child.clone()), &mut fresh);
                }
            }
            // Binary over size splits a + b = n − 1.
            for a in 1..n - 1 {
                let c = n - 1 - a;
                for op in BIN_OPS {
                    let commutative = !matches!(op, BinOp::Sub);
                    if commutative && a > c {
                        continue;
                    }
                    for (i, lhs) in reps[a].iter().enumerate() {
                        let rhs_from = if commutative && a == c { i } else { 0 };
                        for rhs in &reps[c][rhs_from..] {
                            b.add(Expr::binary(op, lhs.clone(), rhs.clone()), &mut fresh);
                        }
                    }
                }
            }
            reps[n] = fresh;
        }

        stats::record_candidates(b.pool.candidates);
        if b.pool.truncated {
            stats::record_budget_exhausted();
        }
        b.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(names: &[&str]) -> Vec<Ident> {
        names.iter().map(|n| Ident::new(*n)).collect()
    }

    #[test]
    fn build_is_deterministic() {
        let vars = idents(&["x", "y"]);
        let config = SynthConfig::default();
        let a = Pool::build(&vars, &config);
        let b = Pool::build(&vars, &config);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.by_tt.len(), b.by_tt.len());
        for (tt, entries) in &a.by_tt {
            let other = &b.by_tt[tt];
            assert_eq!(entries.len(), other.len());
            for (ea, eb) in entries.iter().zip(other) {
                assert_eq!(ea.expr, eb.expr, "bucket order must be stable");
                assert_eq!(ea.probes, eb.probes);
            }
        }
    }

    #[test]
    fn buckets_are_in_node_count_order() {
        let vars = idents(&["x", "y"]);
        let pool = Pool::build(&vars, &SynthConfig::default());
        for entries in pool.by_tt.values() {
            let counts: Vec<usize> = entries.iter().map(|e| e.expr.node_count()).collect();
            let mut sorted = counts.clone();
            sorted.sort_unstable();
            assert_eq!(counts, sorted, "enumeration must grow by size");
        }
    }

    #[test]
    fn xor_enumerates_before_add_in_shared_bucket() {
        // x^y and x+y share a width-1 table; the bucket must hold the
        // xor first (the SynthUnsoundAccept demonstration depends on
        // this order) and keep both thanks to the in-key probes.
        let vars = idents(&["x", "y"]);
        let pool = Pool::build(&vars, &SynthConfig::default());
        let xor: Expr = "x ^ y".parse().unwrap();
        let sig = signature_of(&EvalProgram::compile(&xor), &vars, 64);
        let bucket = &pool.by_tt[&sig.tt];
        let pos = |s: &str| {
            bucket
                .iter()
                .position(|e| e.expr.to_string() == s)
                .unwrap_or_else(|| panic!("{s} missing from bucket"))
        };
        assert!(pos("x^y") < pos("x+y"));
    }

    #[test]
    fn candidate_cap_truncates_deterministically() {
        let vars = idents(&["x", "y", "z"]);
        let config = SynthConfig {
            max_candidates: 100,
            ..SynthConfig::default()
        };
        let pool = Pool::build(&vars, &config);
        assert!(pool.truncated);
        assert_eq!(pool.candidates, 100);
    }

    #[test]
    fn single_variable_pool_stays_small_and_untruncated() {
        let vars = idents(&["x"]);
        let config = SynthConfig {
            max_nodes: 3,
            ..SynthConfig::default()
        };
        let pool = Pool::build(&vars, &config);
        assert!(!pool.truncated);
        assert!(pool.candidates < 200, "got {}", pool.candidates);
    }
}
