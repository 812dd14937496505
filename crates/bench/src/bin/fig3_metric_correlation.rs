//! **Figure 3**: how each complexity metric relates to solving time.
//!
//! Samples are bucketed by metric value; per bucket we report the mean
//! solving time of solved instances and the timeout rate. The paper's
//! finding — MBA alternation dominates — shows up as the steepest
//! timeout-rate growth.

use mba_bench::{runner::EquivalenceTask, ExperimentConfig, SolveRecord, Verdict};
use mba_expr::Metrics;
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::SolverProfile;

/// A metric extractor paired with its display name and bucket width.
type MetricSeries = (&'static str, Box<dyn Fn(&Metrics) -> f64>, f64);

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Figure 3: complexity metrics vs solving performance");
    println!("(boolector-style profile; {})\n", config.banner());

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
    eprintln!("running {} queries ...", tasks.len());
    let records = mba_bench::run_equivalence_checks(
        &tasks,
        &SolverProfile::boolector_style(),
        config.width,
        config.timeout(),
        config.threads,
    );
    let metrics: Vec<Metrics> = corpus
        .samples()
        .iter()
        .map(|s| Metrics::of(&s.obfuscated))
        .collect();

    let series: [MetricSeries; 5] = [
        ("MBA Alternation", Box::new(|m| m.alternation as f64), 4.0),
        ("MBA Length", Box::new(|m| m.length as f64), 64.0),
        ("Number of Terms", Box::new(|m| m.num_terms as f64), 4.0),
        ("Num of Variables", Box::new(|m| m.num_vars as f64), 1.0),
        ("Coefficients", Box::new(|m| m.max_coefficient as f64), 8.0),
    ];

    for (name, value_of, bucket_width) in &series {
        println!("--- {name} ---");
        println!(
            "{:<16} {:>8} {:>10} {:>14} {:>12}",
            "bucket", "samples", "solved", "avg time (s)", "timeout %"
        );
        let mut buckets: Vec<(usize, Vec<&SolveRecord>)> = Vec::new();
        for (record, m) in records.iter().zip(&metrics) {
            let bucket = (value_of(m) / bucket_width) as usize;
            match buckets.iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, v)) => v.push(record),
                None => buckets.push((bucket, vec![record])),
            }
        }
        buckets.sort_by_key(|&(b, _)| b);
        for (bucket, rs) in &buckets {
            let lo = *bucket as f64 * bucket_width;
            let hi = lo + bucket_width;
            let solved: Vec<_> = rs.iter().filter(|r| r.verdict == Verdict::Solved).collect();
            let timeouts = rs.iter().filter(|r| r.verdict == Verdict::Timeout).count();
            let avg = mba_bench::report::mean(solved.iter().map(|r| r.elapsed.as_secs_f64()));
            println!(
                "{:<16} {:>8} {:>10} {:>14.4} {:>11.1}%",
                format!("[{lo:.0},{hi:.0})"),
                rs.len(),
                solved.len(),
                avg,
                100.0 * timeouts as f64 / rs.len() as f64,
            );
        }
        println!();
    }
}
