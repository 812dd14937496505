//! `mba_fuzz`: the differential fuzzing CLI.
//!
//! Runs the `mba-verify` harness — seeded case generation, three
//! simplify paths, tiered equivalence oracles, shrinking — and writes a
//! `BENCH_fuzz.json` summary. Exit status is non-zero iff a
//! discrepancy was found, so CI can gate on it directly:
//!
//! ```text
//! $ mba_fuzz --iterations 10000 --seed 42
//! mba_fuzz: 10000 iterations, seed 42 ... clean (12.3s)
//! ```

use std::process::ExitCode;
use std::time::Duration;

use mba_bench::report::BenchReport;
use mba_verify::corpus::{append_reproducer, default_corpus_dir};
use mba_verify::{FuzzConfig, Fuzzer};

fn usage() {
    eprintln!(
        "usage: mba_fuzz [options]\n\
         \n\
         options:\n\
         \x20 --iterations N       cases to run (default 1000)\n\
         \x20 --seed S             root seed; the run is a pure function of it (default 42)\n\
         \x20 --jobs N             worker threads (default: all cores)\n\
         \x20 --time-budget-ms MS  stop starting new chunks after MS milliseconds\n\
         \x20 --max-depth D        random-AST depth (default 4)\n\
         \x20 --vars N             variables per case (default 3)\n\
         \x20 --obfuscated F       fraction of obfuscator-built cases, 0..1 (default 0.4)\n\
         \x20 --miter-conflicts N  SAT conflict budget per miter (default 2000)\n\
         \x20 --no-smt             disable the SAT miter tier (eval + truth tables only)\n\
         \x20 --write-corpus       append shrunk reproducers to crates/verify/corpus/\n\
         \x20 --quiet              suppress the per-discrepancy dump"
    );
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .and_then(|v| v.parse::<T>().ok())
        .ok_or_else(|| format!("mba_fuzz: {flag} requires a value"))
}

fn run() -> Result<ExitCode, String> {
    let mut config = FuzzConfig::default();
    let mut write_corpus = false;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--iterations" | "-n" => config.iterations = parse(&arg, args.next())?,
            "--seed" | "-s" => config.seed = parse(&arg, args.next())?,
            "--jobs" | "-j" => config.jobs = parse(&arg, args.next())?,
            "--time-budget-ms" => {
                config.time_budget = Some(Duration::from_millis(parse(&arg, args.next())?));
            }
            "--max-depth" => config.case.random.max_depth = parse(&arg, args.next())?,
            "--vars" => config.case.random.num_vars = parse(&arg, args.next())?,
            "--obfuscated" => {
                config.case.obfuscated_fraction = parse::<f64>(&arg, args.next())?;
                if !(0.0..=1.0).contains(&config.case.obfuscated_fraction) {
                    return Err("mba_fuzz: --obfuscated must be in 0..1".into());
                }
            }
            "--miter-conflicts" => config.oracle.miter_conflicts = parse(&arg, args.next())?,
            "--no-smt" => config.oracle.miter_node_limit = 0,
            "--write-corpus" => write_corpus = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                usage();
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("mba_fuzz: unknown option `{other}`")),
        }
    }

    let fuzzer = Fuzzer::new(config.clone());
    let report = fuzzer.run();

    let mut bench = BenchReport::new("fuzz");
    bench
        .push_int("seed", report.seed)
        .push_int("iterations", report.iterations)
        .push_float("wall_clock_s", report.wall_time.as_secs_f64())
        .push_bool("stopped_early", report.stopped_early)
        .push_int("discrepancies", report.discrepancies.len() as u64)
        .push_int("input_nodes", report.input_nodes)
        .push_int("output_nodes", report.output_nodes)
        .push_int("oracle_checks", report.oracle.checks)
        .push_int("oracle_evaluations", report.oracle.evaluations)
        .push_int("oracle_truth_tables", report.oracle.truth_tables)
        .push_int(
            "oracle_truth_table_proofs",
            report.oracle.truth_table_proofs,
        )
        .push_int("oracle_miters", report.oracle.miters)
        .push_int("oracle_miter_proofs", report.oracle.miter_proofs)
        .push_int(
            "oracle_miter_rewrite_closed",
            report.oracle.miter_rewrite_closed,
        )
        .push_int("oracle_miter_unknowns", report.oracle.miter_unknowns)
        .push_int("oracle_miter_skipped", report.oracle.miter_skipped)
        .push_int("oracle_miter_conflicts", report.oracle.miter_conflicts)
        .push_int("shrink_attempts", report.shrink.attempts)
        .push_int("shrink_accepted", report.shrink.accepted)
        .push_stage_breakdown(&fuzzer.metrics().snapshot());
    for (kind, count) in &report.per_kind {
        bench.push_int(&format!("cases_{kind}"), *count);
    }
    match bench.write() {
        Ok(path) => {
            if !quiet {
                eprintln!("mba_fuzz: wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("mba_fuzz: cannot write bench report: {e}"),
    }

    let proofs = report.oracle.proofs();
    eprintln!(
        "mba_fuzz: {} iterations, seed {}, {} proved / {} checked, \
         {:.1}% node reduction ({:.2}s)",
        report.iterations,
        report.seed,
        proofs,
        report.oracle.checks,
        100.0 * (1.0 - report.output_nodes as f64 / report.input_nodes.max(1) as f64),
        report.wall_time.as_secs_f64(),
    );

    if report.is_clean() {
        eprintln!("mba_fuzz: clean — no discrepancies");
        return Ok(ExitCode::SUCCESS);
    }

    eprintln!(
        "mba_fuzz: {} DISCREPANCIES{}",
        report.discrepancies.len(),
        if report.stopped_early {
            " (stopped early)"
        } else {
            ""
        }
    );
    for d in &report.discrepancies {
        if !quiet {
            eprintln!("  iteration {} [{}]: {}", d.iteration, d.case_kind, d.kind);
            eprintln!("    input:  {}", d.input);
            eprintln!("    output: {}", d.output);
            eprintln!("    shrunk: {} ({} nodes)", d.shrunk, d.shrunk.node_count());
        }
        if write_corpus {
            match append_reproducer(&default_corpus_dir(), d, report.seed) {
                Ok(path) => eprintln!("    corpus: {}", path.display()),
                Err(e) => eprintln!("    corpus: write failed: {e}"),
            }
        }
    }
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            usage();
            ExitCode::FAILURE
        }
    }
}
