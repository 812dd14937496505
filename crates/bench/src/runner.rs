//! Parallel execution of simplification batches and equivalence queries
//! over a corpus.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mba_expr::Expr;
use mba_gen::ObfuscationKind;
use mba_sig::CacheStats;
use mba_smt::{CheckOutcome, SmtSolver, SolverProfile};
use mba_solver::{Simplifier, SimplifyResult};

/// The verdict of one query, flattened for aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proven equivalent within the budget.
    Solved,
    /// Proven *not* equivalent — for identity corpora this flags an
    /// unsound simplification (Table 7's "N" column).
    Refuted,
    /// Budget exhausted (Table 7's "O" column).
    Timeout,
}

/// One equivalence query to run.
#[derive(Debug, Clone)]
pub struct EquivalenceTask {
    /// Corpus id of the underlying sample.
    pub sample_id: usize,
    /// MBA category of the underlying sample.
    pub kind: ObfuscationKind,
    /// Left side (e.g. the obfuscated or simplified expression).
    pub lhs: Expr,
    /// Right side (the ground truth).
    pub rhs: Expr,
}

/// The outcome of one query.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// Corpus id.
    pub sample_id: usize,
    /// MBA category.
    pub kind: ObfuscationKind,
    /// Verdict.
    pub verdict: Verdict,
    /// Wall-clock solving time.
    pub elapsed: Duration,
    /// Whether rewriting alone closed the query.
    pub solved_by_rewriting: bool,
}

/// One measured batch-simplification pass: per-expression results plus
/// the wall-clock and signature-cache telemetry the experiment binaries
/// report (and serialize into `BENCH_*.json`).
#[derive(Debug)]
pub struct SimplifyRun {
    /// Per-expression results, in input order.
    pub results: Vec<SimplifyResult>,
    /// Wall-clock time of the whole batch.
    pub wall_clock: Duration,
    /// Signature-cache activity *during this batch* (deltas, so earlier
    /// runs against a shared cache do not pollute the numbers).
    pub cache: CacheStats,
}

impl SimplifyRun {
    /// The simplified expressions alone, in input order.
    pub fn outputs(&self) -> Vec<Expr> {
        self.results.iter().map(|r| r.output.clone()).collect()
    }
}

/// Simplifies `exprs` through [`Simplifier::simplify_batch_with_jobs`],
/// measuring wall-clock and cache hit-rate.
pub fn simplify_corpus(simplifier: &Simplifier, exprs: &[Expr], jobs: usize) -> SimplifyRun {
    let before = simplifier.sig_cache().stats();
    let start = Instant::now();
    let results = simplifier.simplify_batch_with_jobs(exprs, jobs);
    let wall_clock = start.elapsed();
    let after = simplifier.sig_cache().stats();
    SimplifyRun {
        results,
        wall_clock,
        cache: after.since(&before),
    }
}

/// Runs every task against `profile`, using `threads` workers. Records
/// come back sorted by `sample_id`.
pub fn run_equivalence_checks(
    tasks: &[EquivalenceTask],
    profile: &SolverProfile,
    width: u32,
    timeout: Duration,
    threads: usize,
) -> Vec<SolveRecord> {
    let next = AtomicUsize::new(0);
    let mut records: Vec<SolveRecord> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let solver = SmtSolver::new(profile.clone());
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        let result =
                            solver.check_equivalence(&task.lhs, &task.rhs, width, Some(timeout));
                        let verdict = match result.outcome {
                            CheckOutcome::Equivalent => Verdict::Solved,
                            CheckOutcome::NotEquivalent(_) => Verdict::Refuted,
                            CheckOutcome::Timeout => Verdict::Timeout,
                        };
                        local.push(SolveRecord {
                            sample_id: task.sample_id,
                            kind: task.kind,
                            verdict,
                            elapsed: result.elapsed,
                            solved_by_rewriting: result.solved_by_rewriting,
                        });
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.sample_id);
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(id: usize, lhs: &str, rhs: &str) -> EquivalenceTask {
        EquivalenceTask {
            sample_id: id,
            kind: ObfuscationKind::Linear,
            lhs: lhs.parse().unwrap(),
            rhs: rhs.parse().unwrap(),
        }
    }

    #[test]
    fn mixed_verdicts_come_back_in_order() {
        let tasks = vec![
            task(0, "x + y", "(x | y) + (x & y)"),
            task(1, "x + y", "x - y"),
            task(2, "x", "x"),
        ];
        let records = run_equivalence_checks(
            &tasks,
            &SolverProfile::boolector_style(),
            8,
            Duration::from_secs(5),
            3,
        );
        assert_eq!(records.len(), 3);
        assert_eq!(
            records.iter().map(|r| r.sample_id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(records[0].verdict, Verdict::Solved);
        assert_eq!(records[1].verdict, Verdict::Refuted);
        assert_eq!(records[2].verdict, Verdict::Solved);
        assert!(records[2].solved_by_rewriting);
    }

    #[test]
    fn timeouts_are_reported() {
        // Figure 1 at 12 bits with a microscopic timeout.
        let tasks = vec![task(0, "(x&~y)*(~x&y) + (x&y)*(x|y)", "x*y")];
        let records = run_equivalence_checks(
            &tasks,
            &SolverProfile::z3_style(),
            12,
            Duration::from_millis(1),
            1,
        );
        assert_eq!(records[0].verdict, Verdict::Timeout);
    }

    #[test]
    fn simplify_corpus_matches_sequential_and_counts_cache_activity() {
        // Polynomial entries walk the truth-table route (linear inputs
        // take the corner-recovery fast path, which bypasses the cache).
        let exprs: Vec<Expr> = ["x*y + 2*(x&y)", "x + y - 2*(x&y)", "x*y + 2*(x&y)"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let batch_solver = Simplifier::new();
        let run = simplify_corpus(&batch_solver, &exprs, 2);
        let sequential = Simplifier::new();
        for (e, got) in exprs.iter().zip(run.outputs()) {
            assert_eq!(got, sequential.simplify(e));
        }
        assert!(run.cache.lookups() > 0, "batch must exercise the cache");
        // A second identical batch against the same simplifier is all
        // hits at the signature layer (the expression-level lookup table
        // answers first, so just assert no new misses dominate).
        let rerun = simplify_corpus(&batch_solver, &exprs, 2);
        assert_eq!(run.outputs(), rerun.outputs());
    }

    #[test]
    fn single_thread_handles_all_tasks() {
        let tasks: Vec<_> = (0..5).map(|i| task(i, "x", "x")).collect();
        let records = run_equivalence_checks(
            &tasks,
            &SolverProfile::stp_style(),
            8,
            Duration::from_secs(1),
            1,
        );
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.verdict == Verdict::Solved));
    }
}
