//! The tiered equivalence oracle.
//!
//! Deciding `input ≡ output` exactly is the SMT problem the paper is
//! about, so a fuzzing harness cannot afford an exact check on every
//! case. Instead the oracle runs a *tier stack*, cheapest first:
//!
//! 1. **Concrete evaluation** — both expressions are evaluated at
//!    widths 8/16/32/64 over corner valuations (0, ±1, sign bit,
//!    alternating masks, ...) plus seeded random ones. Any difference
//!    is an immediate, witnessed refutation; agreement proves nothing.
//! 2. **Truth tables** — when both sides are pure bitwise over at most
//!    [`mba_sig::TruthTable::MAX_VARS`] variables, their truth tables
//!    are compared. Equal tables are a *proof* of equivalence at every
//!    width (the bitwise semantics is per-bit-slice); a differing row
//!    yields a bit-uniform witness valuation.
//! 3. **BDDs** — pure-bitwise pairs *beyond* the truth-table cap (up
//!    to [`BDD_ORACLE_MAX_VARS`] variables) are built into one shared
//!    ROBDD manager; canonicity makes edge equality an exact proof at
//!    every width, and unequal edges yield a bit-uniform witness from
//!    a satisfying assignment of the XOR diagram. Declines (node
//!    budget) fall through to the miter.
//! 4. **SAT miter** — the final arbiter: a budgeted
//!    [`mba_smt::SmtSolver::check_equivalence_budgeted`] query. `Unsat`
//!    proves equivalence at the miter width; `Sat` yields a model that
//!    is re-evaluated before being trusted (the oracle self-check —
//!    a witness that does not witness is a bug in the oracle itself
//!    and panics rather than poison the verdict stream). A blown
//!    budget downgrades the verdict to [`Verdict::Passed`].
//!
//! Everything is deterministic given the caller's RNG: no wall-clock
//! budget is used unless explicitly configured.

use mba_expr::{EvalProgram, Expr, Ident, Valuation};
use mba_sig::TruthTable;
use mba_smt::{CheckOutcome, MiterBudget, SmtSolver, SolverProfile};
use rand::Rng;

/// Largest variable count the BDD oracle tier attempts. Mirrors the
/// simplifier's BDD-tier cap: between `TruthTable::MAX_VARS + 1` and
/// this, a pure-bitwise pair gets an exact verdict without SAT.
pub const BDD_ORACLE_MAX_VARS: usize = 24;

/// Which oracle tier produced a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleTier {
    /// Concrete evaluation over corner + random valuations.
    Eval,
    /// Exact truth-table comparison (pure-bitwise expressions only).
    TruthTable,
    /// Exact ROBDD comparison (pure-bitwise pairs beyond the
    /// truth-table variable cap).
    Bdd,
    /// Budgeted SAT miter through `mba-smt`.
    Miter,
}

impl std::fmt::Display for OracleTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OracleTier::Eval => "eval",
            OracleTier::TruthTable => "truth-table",
            OracleTier::Bdd => "bdd",
            OracleTier::Miter => "miter",
        })
    }
}

/// A witnessed refutation of `lhs ≡ rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which tier found the witness.
    pub tier: OracleTier,
    /// The width at which the two sides differ.
    pub width: u32,
    /// The witnessing assignment.
    pub valuation: Valuation,
    /// `lhs` under the witness.
    pub lhs_value: u64,
    /// `rhs` under the witness.
    pub rhs_value: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let parts: Vec<String> = self
            .valuation
            .iter()
            .map(|(v, x)| format!("{v}={x}"))
            .collect();
        write!(
            f,
            "[{}] width {}: {{{}}} gives {} vs {}",
            self.tier,
            self.width,
            parts.join(", "),
            self.lhs_value,
            self.rhs_value
        )
    }
}

/// Outcome of one oracle stack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Equivalence *proven* by the named tier (truth table or miter
    /// `Unsat`) at the oracle's width.
    Proved(OracleTier),
    /// No counterexample found, but no proof either (the miter blew
    /// its budget or was skipped by the node limit).
    Passed,
    /// The sides differ on the contained witness.
    Mismatch(Box<Mismatch>),
}

impl Verdict {
    /// Whether this verdict rules the pair equivalent-so-far.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Verdict::Mismatch(_))
    }
}

/// Per-tier counters, accumulated across [`EquivalenceOracle::check`]
/// calls via a caller-owned value (so worker threads can merge).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Oracle stack runs.
    pub checks: u64,
    /// Concrete evaluations performed (one per expression pair,
    /// valuation, and width).
    pub evaluations: u64,
    /// Mismatches found by the eval tier.
    pub eval_mismatches: u64,
    /// Truth-table comparisons performed.
    pub truth_tables: u64,
    /// Pairs proven equivalent by truth tables.
    pub truth_table_proofs: u64,
    /// Mismatches found by the truth-table tier.
    pub truth_table_mismatches: u64,
    /// BDD comparisons performed (both sides built successfully).
    pub bdd_checks: u64,
    /// Pairs proven equivalent by BDD edge equality.
    pub bdd_proofs: u64,
    /// Mismatches found by the BDD tier (with validated witnesses).
    pub bdd_mismatches: u64,
    /// SAT miter queries issued.
    pub miters: u64,
    /// Pairs proven equivalent by the miter.
    pub miter_proofs: u64,
    /// Miter proofs closed by word-level rewriting alone.
    pub miter_rewrite_closed: u64,
    /// Mismatches found by the miter (with validated witnesses).
    pub miter_mismatches: u64,
    /// Miter queries that blew their budget (verdict stayed `Passed`).
    pub miter_unknowns: u64,
    /// Miter queries skipped by the node limit.
    pub miter_skipped: u64,
    /// Total SAT conflicts spent in miter queries.
    pub miter_conflicts: u64,
}

impl OracleStats {
    /// Adds `other`'s counters into `self` (worker merge).
    pub fn merge(&mut self, other: &OracleStats) {
        self.checks += other.checks;
        self.evaluations += other.evaluations;
        self.eval_mismatches += other.eval_mismatches;
        self.truth_tables += other.truth_tables;
        self.truth_table_proofs += other.truth_table_proofs;
        self.truth_table_mismatches += other.truth_table_mismatches;
        self.bdd_checks += other.bdd_checks;
        self.bdd_proofs += other.bdd_proofs;
        self.bdd_mismatches += other.bdd_mismatches;
        self.miters += other.miters;
        self.miter_proofs += other.miter_proofs;
        self.miter_rewrite_closed += other.miter_rewrite_closed;
        self.miter_mismatches += other.miter_mismatches;
        self.miter_unknowns += other.miter_unknowns;
        self.miter_skipped += other.miter_skipped;
        self.miter_conflicts += other.miter_conflicts;
    }

    /// Pairs with a definitive proof of equivalence.
    pub fn proofs(&self) -> u64 {
        self.truth_table_proofs + self.bdd_proofs + self.miter_proofs
    }

    /// All mismatches across tiers.
    pub fn mismatches(&self) -> u64 {
        self.eval_mismatches
            + self.truth_table_mismatches
            + self.bdd_mismatches
            + self.miter_mismatches
    }
}

/// Tuning knobs for the oracle stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleConfig {
    /// Widths the eval tier exercises.
    pub widths: Vec<u32>,
    /// Random valuations per check, on top of the corner set.
    pub random_valuations: usize,
    /// Width of the SAT miter (the paper's experiments use 8–16 bits;
    /// MBA identities are width-generic, so a narrow proof is strong
    /// evidence and radically cheaper).
    pub miter_width: u32,
    /// Conflict budget per miter query (deterministic).
    pub miter_conflicts: u64,
    /// Skip the miter when `lhs.node_count() + rhs.node_count()`
    /// exceeds this (bit-blasting cost is linear in nodes × width, SAT
    /// cost is worse; the eval tier already covered the pair).
    pub miter_node_limit: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            widths: vec![8, 16, 32, 64],
            random_valuations: 8,
            miter_width: 8,
            miter_conflicts: 2_000,
            miter_node_limit: 240,
        }
    }
}

/// Bit patterns MBA bugs like to hide behind: ring identities (0, ±1,
/// ±2), the sign bit, carry-chain saturators, and alternating masks.
const CORNER_VALUES: [u64; 12] = [
    0,
    1,
    2,
    0x7f,
    0x80,
    0xff,
    u64::MAX,
    u64::MAX - 1,
    0x8000_0000_0000_0000,
    0x7fff_ffff_ffff_ffff,
    0xaaaa_aaaa_aaaa_aaaa,
    0x5555_5555_5555_5555,
];

/// The tiered equivalence oracle. One instance is shared by all fuzzer
/// workers (all methods take `&self`).
#[derive(Debug, Clone)]
pub struct EquivalenceOracle {
    config: OracleConfig,
    solver: SmtSolver,
}

impl EquivalenceOracle {
    /// Creates an oracle; the miter uses the Boolector-style profile
    /// (the strongest rewriter, so syntactically equal pairs never
    /// reach the SAT core).
    pub fn new(config: OracleConfig) -> EquivalenceOracle {
        EquivalenceOracle {
            config,
            solver: SmtSolver::new(SolverProfile::boolector_style()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    /// Runs the tier stack on `lhs ≡ rhs`.
    ///
    /// `rng` drives the random valuations of the eval tier — hand in a
    /// per-case seeded RNG and the verdict is a pure function of
    /// `(lhs, rhs, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if the SAT tier returns a model that does *not* witness a
    /// difference on re-evaluation: that means the oracle itself is
    /// broken, and silently continuing would corrupt every downstream
    /// verdict.
    pub fn check(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        rng: &mut impl Rng,
        stats: &mut OracleStats,
    ) -> Verdict {
        stats.checks += 1;

        // Tier 1: concrete evaluation.
        let vars: Vec<Ident> = {
            let mut v = lhs.vars();
            v.extend(rhs.vars());
            v.into_iter().collect()
        };
        if let Some(m) = self.eval_tier(lhs, rhs, &vars, rng, stats) {
            stats.eval_mismatches += 1;
            return Verdict::Mismatch(Box::new(m));
        }

        // Tier 2: truth tables (exact for pure-bitwise pairs).
        if lhs.is_pure_bitwise() && rhs.is_pure_bitwise() && vars.len() <= TruthTable::MAX_VARS {
            if let (Ok(lt), Ok(rt)) = (TruthTable::of(lhs, &vars), TruthTable::of(rhs, &vars)) {
                stats.truth_tables += 1;
                if lt == rt {
                    stats.truth_table_proofs += 1;
                    return Verdict::Proved(OracleTier::TruthTable);
                }
                let m = truth_table_witness(lhs, rhs, &vars, &lt, &rt);
                stats.truth_table_mismatches += 1;
                return Verdict::Mismatch(Box::new(m));
            }
        }

        // Tier 3: exact BDDs for pure-bitwise pairs beyond the
        // truth-table cap. A decline (node budget) falls through to
        // the miter.
        if lhs.is_pure_bitwise()
            && rhs.is_pure_bitwise()
            && vars.len() > TruthTable::MAX_VARS
            && vars.len() <= BDD_ORACLE_MAX_VARS
        {
            if let Some(verdict) = self.bdd_tier(lhs, rhs, &vars, stats) {
                return verdict;
            }
        }

        // Tier 4: the budgeted SAT miter.
        if lhs.node_count() + rhs.node_count() > self.config.miter_node_limit {
            stats.miter_skipped += 1;
            return Verdict::Passed;
        }
        stats.miters += 1;
        let budget = MiterBudget::conflicts(self.config.miter_conflicts);
        let result =
            self.solver
                .check_equivalence_budgeted(lhs, rhs, self.config.miter_width, &budget);
        stats.miter_conflicts += result.sat_stats.conflicts;
        match result.outcome {
            CheckOutcome::Equivalent => {
                stats.miter_proofs += 1;
                if result.solved_by_rewriting {
                    stats.miter_rewrite_closed += 1;
                }
                Verdict::Proved(OracleTier::Miter)
            }
            CheckOutcome::Timeout => {
                stats.miter_unknowns += 1;
                Verdict::Passed
            }
            CheckOutcome::NotEquivalent(cex) => {
                let valuation = cex.to_valuation();
                let width = self.config.miter_width;
                // Strict eval: the model binds every miter variable by
                // construction, so an unbound name here is a bug in the
                // model extraction and must not be read as 0.
                let strict = |e: &Expr| {
                    e.eval_checked(&valuation, width)
                        .unwrap_or_else(|err| panic!("SAT model incomplete for `{e}`: {err}"))
                };
                let (lv, rv) = (strict(lhs), strict(rhs));
                // Oracle self-check: a SAT model that does not witness
                // the difference means the miter (or the model
                // extraction) is wrong. Fail loudly.
                assert_ne!(
                    lv, rv,
                    "SAT oracle returned a bogus witness {cex} for `{lhs}` vs `{rhs}` \
                     at width {width}: both sides evaluate to {lv}"
                );
                stats.miter_mismatches += 1;
                Verdict::Mismatch(Box::new(Mismatch {
                    tier: OracleTier::Miter,
                    width,
                    valuation,
                    lhs_value: lv,
                    rhs_value: rv,
                }))
            }
        }
    }

    /// The BDD tier: builds both sides into one shared manager, where
    /// canonicity makes edge equality exactly semantic equality at
    /// every width. `None` means the tier declined (node budget blown
    /// mid-build or mid-XOR) and the stack should fall through.
    ///
    /// # Panics
    ///
    /// Like the miter tier, panics if the witness extracted from the
    /// XOR diagram does not actually separate the two sides — that is
    /// a bug in the oracle, not in the pair under test.
    fn bdd_tier(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        vars: &[Ident],
        stats: &mut OracleStats,
    ) -> Option<Verdict> {
        let mut mgr = mba_bdd::BddManager::with_node_limit(mba_bdd::DEFAULT_NODE_LIMIT);
        let le = mgr.build(lhs, vars)?;
        let re = mgr.build(rhs, vars)?;
        stats.bdd_checks += 1;
        if le == re {
            stats.bdd_proofs += 1;
            return Some(Verdict::Proved(OracleTier::Bdd));
        }
        let diff = mgr.xor(le, re)?;
        let model = mgr
            .satisfying_valuation(diff, vars)
            .expect("unequal canonical edges must have a separating assignment");
        // Bit-uniform bindings: a separating single-bit assignment
        // separates every bit slice, so width 8 suffices (and matches
        // the truth-table tier's witness convention).
        let valuation: Valuation = model
            .iter()
            .map(|(x, bit)| (x.clone(), if *bit { u64::MAX } else { 0 }))
            .collect();
        let width = 8;
        let strict = |e: &Expr| {
            e.eval_checked(&valuation, width)
                .unwrap_or_else(|err| panic!("BDD witness incomplete for `{e}`: {err}"))
        };
        let (lv, rv) = (strict(lhs), strict(rhs));
        assert_ne!(
            lv, rv,
            "BDD oracle returned a bogus witness for `{lhs}` vs `{rhs}`: \
             both sides evaluate to {lv}"
        );
        stats.bdd_mismatches += 1;
        Some(Verdict::Mismatch(Box::new(Mismatch {
            tier: OracleTier::Bdd,
            width,
            valuation,
            lhs_value: lv,
            rhs_value: rv,
        })))
    }

    /// Runs only the eval tier: a cheap probabilistic refuter.
    ///
    /// `None` means "no difference found", *not* a proof. The harness
    /// uses this for the obfuscator ground-truth cross-check, where the
    /// pair is equivalent by construction and a full miter per case
    /// would double the SAT bill.
    pub fn refute_by_eval(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        rng: &mut impl Rng,
        stats: &mut OracleStats,
    ) -> Option<Mismatch> {
        let vars: Vec<Ident> = {
            let mut v = lhs.vars();
            v.extend(rhs.vars());
            v.into_iter().collect()
        };
        self.eval_tier(lhs, rhs, &vars, rng, stats)
    }

    /// Tier 1: corner + random valuations across all configured widths,
    /// on the batch evaluation engine.
    ///
    /// Both sides are compiled once to [`EvalProgram`] tapes; each
    /// valuation group (corners, then randoms) is evaluated as one SoA
    /// batch per width instead of one tree walk per point. Variable
    /// binding is *strict* — `vars` must cover both expressions, or an
    /// unbound variable would read 0 on both sides and let inequivalent
    /// expressions agree on every sample.
    ///
    /// The witness, when one exists, is the same the scalar loop found:
    /// lanes are scanned in valuation order with widths innermost, so
    /// the first differing `(valuation, width)` pair wins. The random
    /// group is only drawn (and `rng` only advanced) when the corner
    /// group found no difference, preserving the corner-mismatch RNG
    /// stream of the scalar implementation.
    ///
    /// # Panics
    ///
    /// Panics when `vars` does not bind every variable of `lhs` or
    /// `rhs` — a broken caller the oracle must not paper over.
    fn eval_tier(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        vars: &[Ident],
        rng: &mut impl Rng,
        stats: &mut OracleStats,
    ) -> Option<Mismatch> {
        let lp = EvalProgram::compile(lhs);
        let rp = EvalProgram::compile(rhs);

        // Uniform corners: every variable gets the same pattern (the
        // regime where cancellation identities fire) ...
        let mut corners: Vec<Valuation> = CORNER_VALUES
            .iter()
            .map(|&c| vars.iter().map(|x| (x.clone(), c)).collect())
            .collect();
        // ... and rotated corners: adjacent variables get different
        // patterns (the regime where carries and sign bits interact).
        corners.extend((0..CORNER_VALUES.len()).map(|k| {
            vars.iter()
                .enumerate()
                .map(|(j, x)| (x.clone(), CORNER_VALUES[(k + j) % CORNER_VALUES.len()]))
                .collect::<Valuation>()
        }));
        if let Some(m) = self.compare_batch(&lp, &rp, &corners, stats) {
            return Some(m);
        }

        let randoms: Vec<Valuation> = (0..self.config.random_valuations)
            .map(|_| vars.iter().map(|x| (x.clone(), rng.gen())).collect())
            .collect();
        self.compare_batch(&lp, &rp, &randoms, stats)
    }

    /// Evaluates one valuation group on both tapes at every configured
    /// width and returns the first mismatch in `(valuation, width)`
    /// order.
    fn compare_batch(
        &self,
        lp: &EvalProgram,
        rp: &EvalProgram,
        valuations: &[Valuation],
        stats: &mut OracleStats,
    ) -> Option<Mismatch> {
        if valuations.is_empty() || self.config.widths.is_empty() {
            return None;
        }
        let strict = |r: Result<Vec<Vec<u64>>, mba_expr::UnboundVariableError>| {
            r.unwrap_or_else(|e| panic!("oracle valuation does not cover both expressions: {e}"))
        };
        let lcols = strict(lp.bind(valuations));
        let rcols = strict(rp.bind(valuations));
        let per_width: Vec<(u32, Vec<u64>, Vec<u64>)> = self
            .config
            .widths
            .iter()
            .map(|&width| {
                stats.evaluations += valuations.len() as u64;
                (
                    width,
                    lp.eval_batch(valuations.len(), &lcols, width),
                    rp.eval_batch(valuations.len(), &rcols, width),
                )
            })
            .collect();
        for (lane, valuation) in valuations.iter().enumerate() {
            for (width, lv, rv) in &per_width {
                if lv[lane] != rv[lane] {
                    return Some(Mismatch {
                        tier: OracleTier::Eval,
                        width: *width,
                        valuation: valuation.clone(),
                        lhs_value: lv[lane],
                        rhs_value: rv[lane],
                    });
                }
            }
        }
        None
    }
}

/// Builds the witness valuation for a truth-table difference: bit `j`
/// of the differing row index maps variable `j` (MSB-first, matching
/// [`TruthTable`]'s row convention) to all-zeros or all-ones.
fn truth_table_witness(
    lhs: &Expr,
    rhs: &Expr,
    vars: &[Ident],
    lt: &TruthTable,
    rt: &TruthTable,
) -> Mismatch {
    let t = vars.len();
    let (lrows, rrows) = (lt.rows(), rt.rows());
    let row = (0..1usize << t)
        .find(|&r| lrows[r] != rrows[r])
        .expect("tables differ in some row");
    let valuation: Valuation = vars
        .iter()
        .enumerate()
        .map(|(j, x)| {
            let bit = (row >> (t - 1 - j)) & 1 == 1;
            (x.clone(), if bit { u64::MAX } else { 0 })
        })
        .collect();
    let width = 8;
    // Strict eval: `vars` is the variable union of both sides, so an
    // unbound name means the caller passed the wrong variable set.
    let strict = |e: &Expr| {
        e.eval_checked(&valuation, width)
            .unwrap_or_else(|err| panic!("truth-table witness incomplete for `{e}`: {err}"))
    };
    let (lv, rv) = (strict(lhs), strict(rhs));
    debug_assert_ne!(lv, rv, "truth-table witness must reproduce");
    Mismatch {
        tier: OracleTier::TruthTable,
        width,
        valuation,
        lhs_value: lv,
        rhs_value: rv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn oracle() -> EquivalenceOracle {
        EquivalenceOracle::new(OracleConfig::default())
    }

    fn check(lhs: &str, rhs: &str) -> (Verdict, OracleStats) {
        let mut stats = OracleStats::default();
        let v = oracle().check(
            &lhs.parse().unwrap(),
            &rhs.parse().unwrap(),
            &mut StdRng::seed_from_u64(1),
            &mut stats,
        );
        (v, stats)
    }

    #[test]
    fn eval_tier_catches_obvious_differences() {
        let (v, stats) = check("x + y", "x + y + 1");
        let Verdict::Mismatch(m) = v else {
            panic!("expected mismatch");
        };
        assert_eq!(m.tier, OracleTier::Eval);
        assert_ne!(m.lhs_value, m.rhs_value);
        assert_eq!(stats.eval_mismatches, 1);
        assert_eq!(stats.miters, 0, "no SAT needed for an eval refutation");
    }

    #[test]
    fn truth_tables_prove_bitwise_pairs_without_sat() {
        let (v, stats) = check("~(x & y)", "~x | ~y");
        assert_eq!(v, Verdict::Proved(OracleTier::TruthTable));
        assert_eq!(stats.truth_table_proofs, 1);
        assert_eq!(stats.miters, 0);
    }

    #[test]
    fn truth_table_mismatch_carries_a_real_witness() {
        // An empty width list disables the eval tier, forcing the
        // truth-table tier to construct the witness itself.
        let oracle = EquivalenceOracle::new(OracleConfig {
            widths: vec![],
            random_valuations: 0,
            ..OracleConfig::default()
        });
        let mut stats = OracleStats::default();
        let v = oracle.check(
            &"x & y".parse().unwrap(),
            &"x | y".parse().unwrap(),
            &mut StdRng::seed_from_u64(2),
            &mut stats,
        );
        let Verdict::Mismatch(m) = v else {
            panic!("expected mismatch");
        };
        assert_eq!(m.tier, OracleTier::TruthTable);
        assert_ne!(m.lhs_value, m.rhs_value);
        assert_eq!(stats.truth_table_mismatches, 1);
    }

    #[test]
    fn bdd_tier_proves_wide_bitwise_pairs_without_sat() {
        // 13 variables: beyond the truth-table cap, in BDD range.
        let lhs = "~(a&b&c&d&e&f&g&h&i&j&k&l&m)";
        let rhs = "~a|~b|~c|~d|~e|~f|~g|~h|~i|~j|~k|~l|~m";
        let (v, stats) = check(lhs, rhs);
        assert_eq!(v, Verdict::Proved(OracleTier::Bdd));
        assert_eq!(stats.bdd_proofs, 1);
        assert_eq!(stats.truth_tables, 0, "truth tables cannot reach t=13");
        assert_eq!(stats.miters, 0, "no SAT needed for a BDD proof");
    }

    #[test]
    fn bdd_tier_mismatch_carries_a_real_witness() {
        // Disable the eval tier so the BDD tier must construct the
        // witness itself (mirrors the truth-table witness test).
        let oracle = EquivalenceOracle::new(OracleConfig {
            widths: vec![],
            random_valuations: 0,
            ..OracleConfig::default()
        });
        let mut stats = OracleStats::default();
        let v = oracle.check(
            &"a&b&c&d&e&f&g&h&i&j&k&l&m".parse().unwrap(),
            &"a|b|c|d|e|f|g|h|i|j|k|l|m".parse().unwrap(),
            &mut StdRng::seed_from_u64(5),
            &mut stats,
        );
        let Verdict::Mismatch(m) = v else {
            panic!("expected mismatch");
        };
        assert_eq!(m.tier, OracleTier::Bdd);
        assert_ne!(m.lhs_value, m.rhs_value);
        assert_eq!(stats.bdd_mismatches, 1);
        assert_eq!(stats.miters, 0);
    }

    #[test]
    fn miter_proves_mixed_identities() {
        let (v, stats) = check("x + y", "(x | y) + (x & y)");
        assert_eq!(v, Verdict::Proved(OracleTier::Miter));
        assert_eq!(stats.miter_proofs, 1);
    }

    #[test]
    fn miter_witnesses_are_validated() {
        // A subtle difference corner valuations miss at some widths:
        // x*y vs x*y + 256 differ only at widths > 8... at width 8 the
        // miter sees them as equal, but eval at width 16 catches it.
        let (v, _) = check("x * y", "x * y + 256");
        assert!(matches!(v, Verdict::Mismatch(_)));
    }

    #[test]
    fn budget_exhaustion_degrades_to_passed_not_wrong() {
        let oracle = EquivalenceOracle::new(OracleConfig {
            miter_conflicts: 1,
            ..OracleConfig::default()
        });
        let mut stats = OracleStats::default();
        // The Figure 1 identity is UNSAT but far beyond one conflict.
        let v = oracle.check(
            &"x*y".parse().unwrap(),
            &"(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap(),
            &mut StdRng::seed_from_u64(3),
            &mut stats,
        );
        assert_eq!(v, Verdict::Passed);
        assert_eq!(stats.miter_unknowns, 1);
    }

    #[test]
    fn node_limit_skips_the_miter() {
        let oracle = EquivalenceOracle::new(OracleConfig {
            miter_node_limit: 1,
            ..OracleConfig::default()
        });
        let mut stats = OracleStats::default();
        let v = oracle.check(
            &"x + y".parse().unwrap(),
            &"(x ^ y) + 2*(x & y)".parse().unwrap(),
            &mut StdRng::seed_from_u64(4),
            &mut stats,
        );
        assert_eq!(v, Verdict::Passed);
        assert_eq!(stats.miter_skipped, 1);
        assert_eq!(stats.miters, 0);
    }

    #[test]
    fn stats_merge_adds_counters() {
        let (_, a) = check("x", "x");
        let (_, b) = check("x & y", "y & x");
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.checks, 2);
        assert_eq!(merged.proofs(), a.proofs() + b.proofs());
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn eval_tier_rejects_mismatched_variable_sets() {
        // Before eval went strict, a variable missing from `vars` read
        // as 0 on both sides, so `x + y` vs `x` *agreed* on every
        // sample and the refuter silently lost its power. It must blow
        // up instead.
        let o = oracle();
        let mut stats = OracleStats::default();
        o.eval_tier(
            &"x + y".parse().unwrap(),
            &"x".parse().unwrap(),
            &[Ident::new("x")],
            &mut StdRng::seed_from_u64(7),
            &mut stats,
        );
    }

    #[test]
    fn deterministic_verdicts_per_seed() {
        let o = oracle();
        let lhs: Expr = "x*y + z".parse().unwrap();
        let rhs: Expr = "z + x*y".parse().unwrap();
        let mut s1 = OracleStats::default();
        let mut s2 = OracleStats::default();
        let v1 = o.check(&lhs, &rhs, &mut StdRng::seed_from_u64(9), &mut s1);
        let v2 = o.check(&lhs, &rhs, &mut StdRng::seed_from_u64(9), &mut s2);
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
    }
}
