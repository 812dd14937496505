//! The equivalence-checking driver.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use mba_expr::{Expr, Ident, Valuation};
use mba_sat::{SolveResult, SolverStats};

use crate::bitblast::Blaster;
use crate::profile::SolverProfile;
use crate::rewrite::rewrite;
use crate::term::TermPool;

/// A satisfying assignment witnessing that two expressions differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    assignments: Vec<(Ident, u64)>,
}

impl Counterexample {
    /// The variable assignments, sorted by name.
    pub fn assignments(&self) -> &[(Ident, u64)] {
        &self.assignments
    }

    /// Converts to a [`Valuation`] for re-evaluation.
    pub fn to_valuation(&self) -> Valuation {
        self.assignments.iter().cloned().collect()
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .assignments
            .iter()
            .map(|(v, x)| format!("{v}={x}"))
            .collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// Resource limits for one budgeted equivalence query
/// ([`SmtSolver::check_equivalence_budgeted`]).
///
/// All limits are optional and independent; whichever is exhausted
/// first turns the verdict into [`CheckOutcome::Timeout`]. The conflict
/// and propagation budgets are deterministic (the same query with the
/// same budget always stops at the same point), which is what oracle
/// stacks and CI want; the wall-clock limit is the safety net for
/// pathological blow-ups. The propagation budget exists because a
/// unit-propagation-heavy miter can burn arbitrary time *between*
/// conflicts, which a conflict budget alone never observes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MiterBudget {
    /// Maximum SAT conflicts before giving up.
    pub conflicts: Option<u64>,
    /// Maximum SAT unit propagations before giving up.
    pub propagations: Option<u64>,
    /// Maximum wall-clock time before giving up.
    pub timeout: Option<Duration>,
}

impl MiterBudget {
    /// An unlimited budget (the query runs to completion).
    pub fn unlimited() -> MiterBudget {
        MiterBudget::default()
    }

    /// A deterministic conflict-bounded budget.
    pub fn conflicts(conflicts: u64) -> MiterBudget {
        MiterBudget {
            conflicts: Some(conflicts),
            ..MiterBudget::default()
        }
    }

    /// A deterministic propagation-bounded budget.
    pub fn propagations(propagations: u64) -> MiterBudget {
        MiterBudget {
            propagations: Some(propagations),
            ..MiterBudget::default()
        }
    }

    /// Adds a propagation bound to the budget.
    #[must_use]
    pub fn with_propagations(mut self, propagations: u64) -> MiterBudget {
        self.propagations = Some(propagations);
        self
    }

    /// Adds a wall-clock bound to the budget.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> MiterBudget {
        self.timeout = Some(timeout);
        self
    }
}

/// Verdict of an equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// `lhs == rhs` for every input at the query width (miter Unsat).
    Equivalent,
    /// The expressions differ on the contained witness.
    NotEquivalent(Counterexample),
    /// The budget (wall clock or conflicts) ran out.
    Timeout,
}

/// Result of [`SmtSolver::check_equivalence`].
#[derive(Debug, Clone)]
pub struct CheckResult {
    /// The verdict.
    pub outcome: CheckOutcome,
    /// Wall-clock time spent on this query.
    pub elapsed: Duration,
    /// Whether word-level rewriting alone closed the query (no SAT
    /// search was needed).
    pub solved_by_rewriting: bool,
    /// SAT-core statistics for the query.
    pub sat_stats: SolverStats,
}

fn accumulate(into: &mut SolverStats, from: SolverStats) {
    into.conflicts += from.conflicts;
    into.decisions += from.decisions;
    into.propagations += from.propagations;
    into.restarts += from.restarts;
    into.learnts += from.learnts;
    into.deleted += from.deleted;
}

/// An SMT equivalence checker configured by a [`SolverProfile`].
///
/// ```
/// use mba_smt::{CheckOutcome, SmtSolver, SolverProfile};
/// let solver = SmtSolver::new(SolverProfile::z3_style());
/// let lhs = "x ^ y".parse().unwrap();
/// let rhs = "(x | y) - (x & y)".parse().unwrap();
/// assert_eq!(
///     solver.check_equivalence(&lhs, &rhs, 8, None).outcome,
///     CheckOutcome::Equivalent,
/// );
/// ```
#[derive(Debug, Clone)]
pub struct SmtSolver {
    profile: SolverProfile,
    conflict_budget: Option<u64>,
    propagation_budget: Option<u64>,
}

impl SmtSolver {
    /// Creates a solver with the given profile.
    pub fn new(profile: SolverProfile) -> SmtSolver {
        SmtSolver {
            profile,
            conflict_budget: None,
            propagation_budget: None,
        }
    }

    /// The active profile.
    pub fn profile(&self) -> &SolverProfile {
        &self.profile
    }

    /// Additionally bounds every query to `conflicts` SAT conflicts —
    /// a deterministic stand-in for wall-clock timeouts in tests.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts;
    }

    /// Additionally bounds every query to `propagations` SAT unit
    /// propagations — the deterministic cap that stops
    /// propagation-heavy miters a conflict budget never sees.
    pub fn set_propagation_budget(&mut self, propagations: Option<u64>) {
        self.propagation_budget = propagations;
    }

    /// [`SmtSolver::check_equivalence`] under an explicit per-query
    /// [`MiterBudget`], leaving the solver's own configuration
    /// untouched.
    ///
    /// This is the entry point oracle stacks use: a shared solver can
    /// issue many concurrent queries with different budgets without any
    /// mutable setter races. A budget given here overrides the
    /// solver-level conflict budget for this query only. The returned
    /// [`CheckResult`] carries per-solve SAT statistics
    /// ([`CheckResult::sat_stats`]) so callers can attribute cost to
    /// individual queries.
    ///
    /// ```
    /// use mba_smt::{CheckOutcome, MiterBudget, SmtSolver, SolverProfile};
    /// let solver = SmtSolver::new(SolverProfile::boolector_style());
    /// let lhs = "x*y".parse().unwrap();
    /// let rhs = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
    /// let r = solver.check_equivalence_budgeted(&lhs, &rhs, 8, &MiterBudget::conflicts(5));
    /// // The Figure 1 miter cannot finish in 5 conflicts — and a
    /// // budgeted query must answer Timeout, never a wrong verdict.
    /// assert_eq!(r.outcome, CheckOutcome::Timeout);
    /// ```
    pub fn check_equivalence_budgeted(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        width: u32,
        budget: &MiterBudget,
    ) -> CheckResult {
        let mut bounded = self.clone();
        bounded.conflict_budget = budget.conflicts.or(self.conflict_budget);
        bounded.propagation_budget = budget.propagations.or(self.propagation_budget);
        bounded.check_equivalence(lhs, rhs, width, budget.timeout)
    }

    /// Decides whether `lhs == rhs` holds for **all** inputs at
    /// `width` bits, within the optional wall-clock `timeout`.
    ///
    /// The query runs the full solver pipeline: both sides are interned,
    /// rewritten at the profile's level (equal normal forms short-circuit
    /// to `Equivalent`), bit-blasted into a miter, and refuted or
    /// satisfied by the CDCL core.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 64`.
    pub fn check_equivalence(
        &self,
        lhs: &Expr,
        rhs: &Expr,
        width: u32,
        timeout: Option<Duration>,
    ) -> CheckResult {
        let start = Instant::now();
        let mut pool = TermPool::new(width);
        let l0 = pool.from_expr(lhs);
        let r0 = pool.from_expr(rhs);
        let l = rewrite(&mut pool, l0, self.profile.rewrite);
        let r = rewrite(&mut pool, r0, self.profile.rewrite);
        if l == r {
            return CheckResult {
                outcome: CheckOutcome::Equivalent,
                elapsed: start.elapsed(),
                solved_by_rewriting: true,
                sat_stats: SolverStats::default(),
            };
        }

        let mut vars = pool.vars_of(l);
        for v in pool.vars_of(r) {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        vars.sort();

        if self.profile.split_outputs {
            return self.check_split(&pool, l, r, &vars, timeout, start);
        }

        let mut blaster = Blaster::new(&pool, self.profile.gate_sharing);
        blaster.sat.set_restart_base(self.profile.restart_base);
        blaster.sat.set_var_decay(self.profile.var_decay);
        blaster.sat.set_preprocessing(self.profile.preprocessing);
        blaster
            .sat
            .set_timeout(timeout.map(|t| t.saturating_sub(start.elapsed())));
        blaster.sat.set_conflict_budget(self.conflict_budget);
        blaster.sat.set_propagation_budget(self.propagation_budget);
        let lb = blaster.blast(l);
        let rb = blaster.blast(r);
        blaster.assert_not_equal(&lb, &rb);

        let outcome = match blaster.sat.solve() {
            SolveResult::Unsat => CheckOutcome::Equivalent,
            SolveResult::Unknown => CheckOutcome::Timeout,
            SolveResult::Sat => {
                let model: HashMap<Ident, u64> = blaster.model(&vars);
                let mut assignments: Vec<(Ident, u64)> = model.into_iter().collect();
                assignments.sort();
                CheckOutcome::NotEquivalent(Counterexample { assignments })
            }
        };
        CheckResult {
            outcome,
            elapsed: start.elapsed(),
            solved_by_rewriting: false,
            sat_stats: blaster.sat.stats(),
        }
    }

    /// Output-split decision: one SAT instance per output bit
    /// (LSB first, whose input cone is smallest). All bits refuted ⇒
    /// equivalent; any satisfiable bit yields a counterexample.
    fn check_split(
        &self,
        pool: &TermPool,
        l: crate::term::TermId,
        r: crate::term::TermId,
        vars: &[Ident],
        timeout: Option<Duration>,
        start: Instant,
    ) -> CheckResult {
        use crate::bitblast::MiterAssertion;
        let width = pool.width() as usize;
        let mut stats = SolverStats::default();
        for bit in 0..width {
            let mut blaster = Blaster::new(pool, self.profile.gate_sharing);
            blaster.sat.set_restart_base(self.profile.restart_base);
            blaster.sat.set_var_decay(self.profile.var_decay);
            blaster.sat.set_preprocessing(self.profile.preprocessing);
            blaster
                .sat
                .set_timeout(timeout.map(|t| t.saturating_sub(start.elapsed())));
            blaster.sat.set_conflict_budget(self.conflict_budget);
            blaster.sat.set_propagation_budget(self.propagation_budget);
            let lb = blaster.blast(l);
            let rb = blaster.blast(r);
            let result = match blaster.assert_bit_diff(&lb, &rb, bit) {
                MiterAssertion::TriviallyEqual => SolveResult::Unsat,
                MiterAssertion::TriviallyDifferent => SolveResult::Sat,
                MiterAssertion::Asserted => blaster.sat.solve(),
            };
            accumulate(&mut stats, blaster.sat.stats());
            match result {
                SolveResult::Unsat => continue,
                SolveResult::Unknown => {
                    return CheckResult {
                        outcome: CheckOutcome::Timeout,
                        elapsed: start.elapsed(),
                        solved_by_rewriting: false,
                        sat_stats: stats,
                    };
                }
                SolveResult::Sat => {
                    let model: HashMap<Ident, u64> = blaster.model(vars);
                    let mut assignments: Vec<(Ident, u64)> = model.into_iter().collect();
                    assignments.sort();
                    return CheckResult {
                        outcome: CheckOutcome::NotEquivalent(Counterexample { assignments }),
                        elapsed: start.elapsed(),
                        solved_by_rewriting: false,
                        sat_stats: stats,
                    };
                }
            }
        }
        CheckResult {
            outcome: CheckOutcome::Equivalent,
            elapsed: start.elapsed(),
            solved_by_rewriting: false,
            sat_stats: stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::SolverProfile;

    fn solver() -> SmtSolver {
        SmtSolver::new(SolverProfile::boolector_style())
    }

    fn check(lhs: &str, rhs: &str, width: u32) -> CheckResult {
        solver().check_equivalence(&lhs.parse().unwrap(), &rhs.parse().unwrap(), width, None)
    }

    #[test]
    fn equivalent_identities() {
        for (l, r) in [
            ("x + y", "(x | y) + (x & y)"),
            ("x - y", "(x ^ y) - 2*(~x & y)"),
            ("x ^ y", "x + y - 2*(x & y)"),
            ("2*(x|y) - (~x&y) - (x&~y)", "x + y"),
        ] {
            let result = check(l, r, 8);
            assert_eq!(result.outcome, CheckOutcome::Equivalent, "{l} == {r}");
        }
    }

    #[test]
    fn inequivalent_pairs_give_valid_witnesses() {
        for (l, r) in [("x + y", "x + y + 1"), ("x & y", "x | y"), ("x*y", "x+y")] {
            let result = check(l, r, 8);
            let CheckOutcome::NotEquivalent(cex) = &result.outcome else {
                panic!("{l} vs {r}: expected a counterexample");
            };
            let v = cex.to_valuation();
            let le: Expr = l.parse().unwrap();
            let re: Expr = r.parse().unwrap();
            assert_ne!(le.eval(&v, 8), re.eval(&v, 8), "bogus witness {cex}");
        }
    }

    #[test]
    fn syntactic_equality_is_solved_by_rewriting() {
        let r = check("x + y", "x + y", 64);
        assert!(r.solved_by_rewriting);
        assert_eq!(r.outcome, CheckOutcome::Equivalent);
        // Commutative normalization also closes y + x at Standard+.
        let r = check("x + y", "y + x", 64);
        assert!(r.solved_by_rewriting);
    }

    #[test]
    fn aggressive_rewriting_closes_linear_cancellations_without_sat() {
        let r = check("x + (x&y) - (x&y)", "x", 64);
        assert!(r.solved_by_rewriting, "should not need bit-blasting");
        assert_eq!(r.outcome, CheckOutcome::Equivalent);
    }

    #[test]
    fn weaker_profiles_need_the_sat_core_more_often() {
        let lhs: Expr = "x + (x&y) - (x&y)".parse().unwrap();
        let rhs: Expr = "x".parse().unwrap();
        let weak = SmtSolver::new(SolverProfile::stp_style());
        let r = weak.check_equivalence(&lhs, &rhs, 8, None);
        assert_eq!(r.outcome, CheckOutcome::Equivalent);
        assert!(!r.solved_by_rewriting, "Basic rewriting cannot cancel");
    }

    #[test]
    fn conflict_budget_produces_timeout_on_hard_miters() {
        // Figure 1 at 8 bits with a 5-conflict budget cannot finish.
        let mut s = solver();
        s.set_conflict_budget(Some(5));
        let lhs: Expr = "x*y".parse().unwrap();
        let rhs: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        let r = s.check_equivalence(&lhs, &rhs, 8, None);
        assert_eq!(r.outcome, CheckOutcome::Timeout);
    }

    #[test]
    fn propagation_budget_of_one_times_out_deterministically() {
        // The Figure 1 miter cannot reach a verdict within a single
        // unit propagation, so a `propagations(1)` budget must stop the
        // search — deterministically, on every run — exactly like the
        // conflict budget does. This is the cap that bounds
        // propagation-heavy miters a conflict budget never observes.
        let lhs: Expr = "x*y".parse().unwrap();
        let rhs: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        for _ in 0..3 {
            let r =
                solver().check_equivalence_budgeted(&lhs, &rhs, 8, &MiterBudget::propagations(1));
            assert_eq!(r.outcome, CheckOutcome::Timeout);
            assert!(r.sat_stats.propagations <= 2, "budget overrun");
        }
    }

    #[test]
    fn budgeted_query_with_propagation_headroom_still_finishes() {
        // A generous propagation budget must not change the verdict.
        let r = solver().check_equivalence_budgeted(
            &"x ^ y".parse().unwrap(),
            &"(x | y) - (x & y)".parse().unwrap(),
            8,
            &MiterBudget::propagations(1 << 20),
        );
        assert_eq!(r.outcome, CheckOutcome::Equivalent);
    }

    #[test]
    fn timeouts_respect_wall_clock() {
        let lhs: Expr = "x*y".parse().unwrap();
        let rhs: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        let r = solver().check_equivalence(&lhs, &rhs, 16, Some(Duration::from_millis(30)));
        // Either it finished quickly or it timed out; it must not report
        // inequivalence.
        assert!(
            !matches!(r.outcome, CheckOutcome::NotEquivalent(_)),
            "identity misreported as inequivalent"
        );
    }

    #[test]
    fn one_bit_queries_work() {
        let r = check("x & y", "y & x", 1);
        assert_eq!(r.outcome, CheckOutcome::Equivalent);
        let r = check("x | y", "x & y", 1);
        assert!(matches!(r.outcome, CheckOutcome::NotEquivalent(_)));
    }

    #[test]
    fn all_profiles_agree_on_verdicts() {
        for profile in SolverProfile::all() {
            let s = SmtSolver::new(profile.clone());
            let good = s.check_equivalence(
                &"x + y".parse().unwrap(),
                &"(x ^ y) + 2*(x & y)".parse().unwrap(),
                8,
                None,
            );
            assert_eq!(
                good.outcome,
                CheckOutcome::Equivalent,
                "{} failed the identity",
                profile.name
            );
            let bad =
                s.check_equivalence(&"x".parse().unwrap(), &"x + 1".parse().unwrap(), 8, None);
            assert!(
                matches!(bad.outcome, CheckOutcome::NotEquivalent(_)),
                "{} failed the refutation",
                profile.name
            );
        }
    }
}
