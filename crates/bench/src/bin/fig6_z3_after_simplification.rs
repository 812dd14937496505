//! **Figure 6**: Z3-style solving time with MBA-Solver's simplification,
//! as a sorted time series (the paper's flat near-zero curve) plus the
//! same histogram as Figure 4 for contrast.

use mba_bench::{report, runner::EquivalenceTask, ExperimentConfig, Verdict};
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::SolverProfile;
use mba_solver::Simplifier;

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Figure 6: z3-style solving time with MBA-Solver simplification");
    println!("({})\n", config.banner());

    let corpus = Corpus::generate(&CorpusConfig {
        seed: config.seed,
        per_category: config.per_category,
    });
    let simplifier = Simplifier::new();
    eprintln!("simplifying {} samples ...", corpus.len());
    let tasks: Vec<EquivalenceTask> = corpus
        .samples()
        .iter()
        .map(|s| EquivalenceTask {
            sample_id: s.id,
            kind: s.kind,
            lhs: simplifier.simplify(&s.obfuscated),
            rhs: s.ground_truth.clone(),
        })
        .collect();
    eprintln!("running z3-style ...");
    let records = mba_bench::run_equivalence_checks(
        &tasks,
        &SolverProfile::z3_style(),
        config.width,
        config.timeout(),
        config.threads,
    );

    // Sorted curve, decimated to at most 20 points for readability.
    let mut times: Vec<f64> = records.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    println!("sorted solving-time curve (percentile -> seconds):");
    for p in (0..=100).step_by(5) {
        let idx = ((times.len().saturating_sub(1)) * p) / 100;
        println!(
            "  p{:<3} {:>10.4}",
            p,
            times.get(idx).copied().unwrap_or(0.0)
        );
    }

    let solved = records
        .iter()
        .filter(|r| r.verdict == Verdict::Solved)
        .count();
    let rewritten = records.iter().filter(|r| r.solved_by_rewriting).count();
    println!(
        "\nsolved {solved}/{} ({:.1}%); {rewritten} closed by word-level rewriting alone",
        records.len(),
        100.0 * solved as f64 / records.len().max(1) as f64
    );
    println!(
        "average time per case: {:.4} s",
        report::mean(records.iter().map(|r| r.elapsed.as_secs_f64()))
    );
}
