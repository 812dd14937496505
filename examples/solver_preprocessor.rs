//! Scenario: MBA-Solver as a drop-in SMT preprocessing pass — the
//! architecture of the paper's Figure 5.
//!
//! A symbolic-execution engine keeps hitting hard MBA constraints. This
//! example wraps the solver behind a preprocessing front end: every
//! equivalence query first passes through MBA-Solver, and only the
//! simplified form reaches the (budgeted) SMT solver. The run prints a
//! side-by-side of solver behaviour with and without the pass.
//!
//! ```text
//! cargo run --release --example solver_preprocessor
//! ```

use std::time::Duration;

use mba::expr::Expr;
use mba::gen::{Corpus, CorpusConfig};
use mba::smt::{CheckOutcome, CheckResult, SmtSolver, SolverProfile};
use mba::solver::Simplifier;

/// The preprocessing front end of Figure 5: parse → simplify → solve.
struct PreprocessingSolver {
    simplifier: Simplifier,
    backend: SmtSolver,
}

impl PreprocessingSolver {
    fn new(profile: SolverProfile) -> Self {
        PreprocessingSolver {
            simplifier: Simplifier::new(),
            backend: SmtSolver::new(profile),
        }
    }

    /// Checks `lhs == rhs`, simplifying both sides first. Semantics are
    /// preserved by construction, so the verdict transfers.
    fn check(&self, lhs: &Expr, rhs: &Expr, width: u32, budget: Duration) -> CheckResult {
        let lhs = self.simplifier.simplify(lhs);
        let rhs = self.simplifier.simplify(rhs);
        self.backend
            .check_equivalence(&lhs, &rhs, width, Some(budget))
    }
}

fn main() {
    let budget = Duration::from_millis(400);
    let width = 16;
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 99,
        per_category: 15,
    });

    let raw = SmtSolver::new(SolverProfile::z3_style());
    let preprocessed = PreprocessingSolver::new(SolverProfile::z3_style());

    let (mut raw_solved, mut pre_solved) = (0usize, 0usize);
    let (mut raw_time, mut pre_time) = (Duration::ZERO, Duration::ZERO);
    for sample in corpus.samples() {
        let r = raw.check_equivalence(
            &sample.obfuscated,
            &sample.ground_truth,
            width,
            Some(budget),
        );
        raw_time += r.elapsed;
        if r.outcome == CheckOutcome::Equivalent {
            raw_solved += 1;
        }

        let p = preprocessed.check(&sample.obfuscated, &sample.ground_truth, width, budget);
        pre_time += p.elapsed;
        if p.outcome == CheckOutcome::Equivalent {
            pre_solved += 1;
        }
        assert!(
            !matches!(p.outcome, CheckOutcome::NotEquivalent(_)),
            "preprocessing broke an identity: {sample}"
        );
    }

    let n = corpus.len();
    println!("{n} MBA equivalence queries, {width}-bit, {budget:?} budget each\n");
    println!(
        "{:<26} {:>10} {:>14}",
        "configuration", "solved", "total SMT time"
    );
    println!(
        "{:<26} {:>6}/{:<3} {:>14.2?}",
        "z3-style (raw)", raw_solved, n, raw_time
    );
    println!(
        "{:<26} {:>6}/{:<3} {:>14.2?}",
        "z3-style + MBA-Solver", pre_solved, n, pre_time
    );
    println!(
        "\npreprocessing lookup table: {}",
        preprocessed.simplifier.cache_stats()
    );
}
