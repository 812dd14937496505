//! **Ablation (quality)**: how much each MBA-Solver design choice
//! contributes — lookup table, final-step optimization, ∧- vs ∨-basis,
//! and round count — measured as output alternation, output length,
//! simplification time, and the share of outputs the boolector-style
//! profile can then solve instantly.
//!
//! Complements the Criterion `ablation` bench (which measures time
//! only) with the quality dimension DESIGN.md calls out.

use std::time::Duration;

use mba_bench::{report, report::BenchReport, runner::EquivalenceTask, ExperimentConfig, Verdict};
use mba_expr::{metrics::alternation, Expr};
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::SolverProfile;
use mba_solver::{Basis, Simplifier, SimplifyConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Ablation: contribution of MBA-Solver design choices");
    println!("({})\n", config.banner());

    let corpus = Corpus::generate(&CorpusConfig {
        seed: config.seed,
        per_category: config.per_category.min(200),
    });

    let variants: Vec<(&str, SimplifyConfig)> = vec![
        ("full (default)", SimplifyConfig::default()),
        (
            "no final-step opt",
            SimplifyConfig {
                final_step: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "no lookup table",
            SimplifyConfig {
                use_cache: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "or-basis",
            SimplifyConfig {
                basis: Basis::Or,
                ..SimplifyConfig::default()
            },
        ),
        (
            "adaptive-basis",
            SimplifyConfig {
                basis: Basis::Adaptive,
                ..SimplifyConfig::default()
            },
        ),
        (
            "single round",
            SimplifyConfig {
                max_rounds: 1,
                ..SimplifyConfig::default()
            },
        ),
    ];

    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "variant", "avg alt", "avg length", "time (ms)", "cache hit %", "solved fast %"
    );

    let inputs: Vec<Expr> = corpus
        .samples()
        .iter()
        .map(|s| s.obfuscated.clone())
        .collect();
    let mut telemetry = BenchReport::new("ablation");
    telemetry
        .push_int("samples", corpus.len() as u64)
        .push_int("jobs", config.jobs as u64);
    for (name, cfg) in variants {
        let simplifier = Simplifier::with_config(SimplifyConfig {
            use_cache: cfg.use_cache && config.use_cache,
            ..cfg
        });
        let run = mba_bench::simplify_corpus(&simplifier, &inputs, config.jobs);
        let outputs = run.outputs();
        let elapsed_ms = run.wall_clock.as_secs_f64() * 1000.0 / corpus.len() as f64;

        let avg_alt = report::mean(outputs.iter().map(|o| alternation(o) as f64));
        let avg_len = report::mean(outputs.iter().map(|o| o.to_string().len() as f64));

        // "Solved fast": equivalence closes within a tight budget.
        let tasks: Vec<EquivalenceTask> = corpus
            .samples()
            .iter()
            .zip(&outputs)
            .map(|(s, out)| EquivalenceTask {
                sample_id: s.id,
                kind: s.kind,
                lhs: out.clone(),
                rhs: s.ground_truth.clone(),
            })
            .collect();
        let records = mba_bench::run_equivalence_checks(
            &tasks,
            &SolverProfile::boolector_style(),
            config.width,
            Duration::from_millis(100),
            config.threads,
        );
        let fast = records
            .iter()
            .filter(|r| r.verdict == Verdict::Solved)
            .count();

        println!(
            "{:<20} {:>12.2} {:>12.1} {:>12.3} {:>11.1}% {:>13.1}%",
            name,
            avg_alt,
            avg_len,
            elapsed_ms,
            100.0 * run.cache.hit_rate(),
            100.0 * fast as f64 / corpus.len().max(1) as f64,
        );

        let slug: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        telemetry
            .push_float(
                &format!("{slug}_wall_clock_s"),
                run.wall_clock.as_secs_f64(),
            )
            .push_float(&format!("{slug}_cache_hit_rate"), run.cache.hit_rate());
    }

    match telemetry.write() {
        Ok(path) => eprintln!("telemetry written to {}", path.display()),
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}
