//! **Table 6**: solver performance *after* MBA-Solver simplification —
//! the paper's headline positive result.
//!
//! Every corpus sample is first simplified by `mba-solver`; the query
//! is then `simplified == ground_truth`.

use mba_bench::{report, report::BenchReport, runner::EquivalenceTask, ExperimentConfig};
use mba_expr::Expr;
use mba_gen::{Corpus, CorpusConfig};
use mba_smt::SolverProfile;
use mba_solver::{Simplifier, SimplifyConfig};

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Table 6: SMT solving after MBA-Solver simplification");
    println!("({})\n", config.banner());

    let corpus = Corpus::generate(&CorpusConfig {
        seed: config.seed,
        per_category: config.per_category,
    });
    let simplifier = Simplifier::with_config(SimplifyConfig {
        use_cache: config.use_cache,
        ..SimplifyConfig::default()
    });
    eprintln!(
        "simplifying {} samples on {} jobs ...",
        corpus.len(),
        config.jobs
    );
    let inputs: Vec<Expr> = corpus
        .samples()
        .iter()
        .map(|s| s.obfuscated.clone())
        .collect();
    let run = mba_bench::simplify_corpus(&simplifier, &inputs, config.jobs);
    let tasks: Vec<EquivalenceTask> = corpus
        .samples()
        .iter()
        .zip(run.outputs())
        .map(|(s, simplified)| EquivalenceTask {
            sample_id: s.id,
            kind: s.kind,
            lhs: simplified,
            rhs: s.ground_truth.clone(),
        })
        .collect();

    let profiles = SolverProfile::all();
    let mut per_profile = Vec::new();
    for profile in &profiles {
        eprintln!("running {} ...", profile.name);
        per_profile.push(mba_bench::run_equivalence_checks(
            &tasks,
            profile,
            config.width,
            config.timeout(),
            config.threads,
        ));
    }

    let names: Vec<&str> = profiles.iter().map(|p| p.name).collect();
    print!("{}", report::solver_table(&names, &per_profile));

    let lookup = simplifier.cache_stats();
    println!("\nMBA-Solver lookup table: {lookup}");
    println!(
        "signature cache: {} | batch wall-clock: {:.3}s",
        run.cache,
        run.wall_clock.as_secs_f64()
    );

    let mut telemetry = BenchReport::new("table6");
    telemetry
        .push_simplify_run(&run)
        .push_int("jobs", config.jobs as u64)
        .push_int("cache_enabled", u64::from(config.use_cache))
        .push_int("lookup_table_hits", lookup.hits)
        .push_int("lookup_table_misses", lookup.misses)
        .push_float("lookup_table_hit_rate", lookup.hit_rate())
        // Where did simplification time go, stage by stage? The
        // simplifier recorded spans into its registry during the batch.
        .push_stage_breakdown(&simplifier.metrics().snapshot());
    for (name, records) in names.iter().zip(&per_profile) {
        for kind in report::CATEGORIES {
            let prefix = format!("{name}_{kind}")
                .to_lowercase()
                .replace([' ', '-'], "_");
            telemetry.push_aggregate(&prefix, &report::aggregate(records, kind));
        }
    }
    match telemetry.write() {
        Ok(path) => eprintln!("telemetry written to {}", path.display()),
        Err(e) => eprintln!("telemetry write failed: {e}"),
    }
}
