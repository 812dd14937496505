//! **Figure 4**: per-solver solving-time distribution over the corpus,
//! rendered as text histograms (most mass should sit at `timeout` for
//! the original MBA — the paper's observation).

use mba_bench::{report, runner::EquivalenceTask, ExperimentConfig, Verdict};
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::SolverProfile;

const BUCKETS: [&str; 6] = [
    "< 1 ms",
    "1-10 ms",
    "10-100 ms",
    "0.1-1 s",
    ">= 1 s",
    "timeout",
];

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Figure 4: solving-time distribution on original MBA");
    println!("({})\n", config.banner());

    let corpus = Corpus::generate(&CorpusConfig {
        seed: config.seed,
        per_category: config.per_category,
    });
    let tasks: Vec<EquivalenceTask> = corpus
        .samples()
        .iter()
        .map(|s| EquivalenceTask {
            sample_id: s.id,
            kind: s.kind,
            lhs: s.obfuscated.clone(),
            rhs: s.ground_truth.clone(),
        })
        .collect();

    for profile in SolverProfile::all() {
        eprintln!("running {} ...", profile.name);
        let records = mba_bench::run_equivalence_checks(
            &tasks,
            &profile,
            config.width,
            config.timeout(),
            config.threads,
        );
        let mut counts = vec![0usize; BUCKETS.len()];
        for r in &records {
            let bucket = report::time_bucket(r.elapsed, r.verdict == Verdict::Timeout);
            let idx = BUCKETS
                .iter()
                .position(|&b| b == bucket)
                .expect("known bucket");
            counts[idx] += 1;
        }
        let max = counts.iter().copied().max().unwrap_or(0);
        println!("--- {} ---", profile.name);
        for (label, &count) in BUCKETS.iter().zip(&counts) {
            println!("{}", report::histogram_line(label, count, max, 40));
        }
        let avg = report::mean(records.iter().map(|r| r.elapsed.as_secs_f64()));
        println!("average time per case (incl. timeouts): {avg:.3} s\n");
    }
}
