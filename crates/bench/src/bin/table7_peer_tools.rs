//! **Table 7**: MBA-Solver vs the peer tools (SSPAM-like, Syntia-like).
//!
//! For each tool: correctness of its output against the ground truth
//! (`Y` equivalent / `N` not equivalent / `O` timeout, decided by the
//! boolector-style profile), average MBA alternation before and after
//! simplification (correct outputs only), and average solving time per
//! solver profile (correct outputs only).

use std::time::Duration;

use mba_baselines::{Sspam, Syntia};
use mba_bench::{report, report::BenchReport, runner::EquivalenceTask, ExperimentConfig, Verdict};
use mba_expr::{metrics::alternation, Expr};
use mba_gen::{Corpus, CorpusConfig, Sample};
use mba_smt::SolverProfile;
use mba_solver::{Simplifier, SimplifyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct ToolRun {
    name: &'static str,
    outputs: Vec<Expr>,
}

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Table 7: peer-tool comparison (SSPAM-like, Syntia-like, MBA-Solver)");
    println!("({})\n", config.banner());

    let corpus = Corpus::generate(&CorpusConfig {
        seed: config.seed,
        per_category: config.per_category,
    });
    let samples = corpus.samples();

    // Run the three tools.
    eprintln!("running sspam ...");
    let sspam = Sspam::new();
    let sspam_out: Vec<Expr> = samples
        .iter()
        .map(|s| sspam.simplify(&s.obfuscated))
        .collect();

    eprintln!("running syntia ...");
    let syntia = Syntia::new();
    let syntia_out: Vec<Expr> = samples
        .iter()
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(config.seed ^ s.id as u64);
            syntia.synthesize(&s.obfuscated, &mut rng).expr
        })
        .collect();

    eprintln!("running mba-solver on {} jobs ...", config.jobs);
    let simplifier = Simplifier::with_config(SimplifyConfig {
        use_cache: config.use_cache,
        ..SimplifyConfig::default()
    });
    let solver_inputs: Vec<Expr> = samples.iter().map(|s| s.obfuscated.clone()).collect();
    let solver_run = mba_bench::simplify_corpus(&simplifier, &solver_inputs, config.jobs);
    let solver_out: Vec<Expr> = solver_run.outputs();

    let runs = [
        ToolRun {
            name: "SSPAM",
            outputs: sspam_out,
        },
        ToolRun {
            name: "Syntia",
            outputs: syntia_out,
        },
        ToolRun {
            name: "MBA-Solver",
            outputs: solver_out,
        },
    ];

    println!(
        "{:<12} {:>5} {:>5} {:>5} {:>8}  {:>8} {:>8} {:>7}  {:>10} {:>10} {:>10}",
        "Tool",
        "Y",
        "N",
        "O",
        "Ratio%",
        "AltBefore",
        "AltAfter",
        "A/B%",
        "z3 (s)",
        "stp (s)",
        "boolector"
    );

    let profiles = SolverProfile::all();
    for run in &runs {
        let tasks: Vec<EquivalenceTask> = samples
            .iter()
            .zip(&run.outputs)
            .map(|(s, out)| EquivalenceTask {
                sample_id: s.id,
                kind: s.kind,
                lhs: out.clone(),
                rhs: s.ground_truth.clone(),
            })
            .collect();
        eprintln!("checking {} outputs ...", run.name);
        // Correctness verdicts via the strongest profile.
        let verdicts = mba_bench::run_equivalence_checks(
            &tasks,
            &SolverProfile::boolector_style(),
            config.width,
            config.timeout(),
            config.threads,
        );
        let y = verdicts
            .iter()
            .filter(|r| r.verdict == Verdict::Solved)
            .count();
        let n = verdicts
            .iter()
            .filter(|r| r.verdict == Verdict::Refuted)
            .count();
        let o = verdicts
            .iter()
            .filter(|r| r.verdict == Verdict::Timeout)
            .count();

        // Alternation before/after over the correctly simplified set.
        let correct: Vec<usize> = verdicts
            .iter()
            .filter(|r| r.verdict == Verdict::Solved)
            .map(|r| r.sample_id)
            .collect();
        let before = report::mean(
            correct
                .iter()
                .map(|&i| alternation(&samples[i].obfuscated) as f64),
        );
        let after = report::mean(correct.iter().map(|&i| alternation(&run.outputs[i]) as f64));
        let ratio = if before > 0.0 {
            100.0 * after / before
        } else {
            0.0
        };

        // Per-profile average solving time over correct outputs.
        let correct_tasks: Vec<EquivalenceTask> =
            correct.iter().map(|&i| tasks[i].clone()).collect();
        let mut avg_times = [0.0f64; 3];
        for (slot, profile) in avg_times.iter_mut().zip(&profiles) {
            let records = mba_bench::run_equivalence_checks(
                &correct_tasks,
                profile,
                config.width,
                Duration::from_millis(config.timeout_ms),
                config.threads,
            );
            *slot = report::mean(records.iter().map(|r| r.elapsed.as_secs_f64()));
        }

        println!(
            "{:<12} {:>5} {:>5} {:>5} {:>7.1}%  {:>8.1} {:>8.1} {:>6.1}%  {:>10.4} {:>10.4} {:>10.4}",
            run.name,
            y,
            n,
            o,
            100.0 * y as f64 / samples.len().max(1) as f64,
            before,
            after,
            ratio,
            avg_times[0],
            avg_times[1],
            avg_times[2],
        );
    }

    println!(
        "\nMBA-Solver signature cache: {} | batch wall-clock: {:.3}s",
        solver_run.cache,
        solver_run.wall_clock.as_secs_f64()
    );
    let mut telemetry = BenchReport::new("table7");
    telemetry
        .push_simplify_run(&solver_run)
        .push_int("jobs", config.jobs as u64)
        .push_int("cache_enabled", u64::from(config.use_cache));
    match telemetry.write() {
        Ok(path) => eprintln!("telemetry written to {}", path.display()),
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }

    // Guard against silently dropping categories.
    let _: &[Sample] = samples;
}
