//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! mba_benchmark --workload NAME --seed N --seconds S --trace 0|1
//! mba_benchmark [--seed N] [--seconds S] [--repeat N] [--out FILE]
//! mba_benchmark compare BASE.json NEW.json [--bounds BENCHMARK.json]
//! ```
//!
//! The first form runs one workload and prints every metric with its
//! unit, then one JSON object as its last line. The second runs every
//! workload, untraced and traced, each in a child process of its own,
//! `--repeat` times at one seed; it prints medians and quartiles, fails
//! when output digests differ between runs, and writes all runs to
//! `--out`. `compare` applies the bounds in `BENCHMARK.json` to two such
//! files. `benchmark/README.md` describes the workloads and metrics.
//! (`mba_benchmark probe WORKLOAD` is one library cold start, which
//! library runs call in fresh processes to time `setup_s`.)

mod check;
mod host;
mod inputs;
mod library;
mod measure;
mod report;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Input;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one workload run measured.
pub struct Outcome {
    pub attempted: usize,
    /// Wrong outputs, error replies, transport failures and missing
    /// replies.
    pub failed: usize,
    /// Digest of the outputs for a fixed prefix of the inputs; equal
    /// across runs at one seed.
    pub digest: String,
    /// Reasons the run is invalid beyond `failed`.
    pub notes: Vec<String>,
    /// The host yardstick's median duration over the measured work, in
    /// µs (see `host`).
    pub yardstick_us: f64,
    pub metrics: Metrics,
}

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("correct_frac", "ratio"),
    ("output_nodes_ratio", "ratio"),
    ("solved_frac", "ratio"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`). Layers are
/// named after crates. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("expr.parse_us", "us"),
    ("expr.intern_us", "us"),
    ("expr.classify_us", "us"),
    ("expr.render_us", "us"),
    ("core.simplify_us.p50", "us"),
    ("core.simplify_us.p99", "us"),
    ("core.stage.signature_us", "us"),
    ("core.stage.signature_calls", "count"),
    ("core.stage.basis_us", "us"),
    ("core.stage.basis_calls", "count"),
    ("core.stage.simba_us", "us"),
    ("core.stage.simba_calls", "count"),
    ("core.stage.poly_reduce_us", "us"),
    ("core.stage.poly_reduce_calls", "count"),
    ("core.stage.rewrite_us", "us"),
    ("core.stage.rewrite_calls", "count"),
    ("core.stage.final_fold_us", "us"),
    ("core.stage.final_fold_calls", "count"),
    ("core.stage.synth_us", "us"),
    ("core.stage.synth_calls", "count"),
    ("core.lookup_hit_frac", "ratio"),
    ("core.rounds", "count"),
    ("core.bailouts", "count"),
    ("core.skipped_too_many_vars", "count"),
    ("sig.cache_hit_frac", "ratio"),
    ("sig.evictions", "count"),
    ("simba.hit_frac", "ratio"),
    ("eval.bitparallel_rows", "count"),
    ("synth.attempts", "count"),
    ("synth.hit_frac", "ratio"),
    ("synth.candidates", "count"),
    ("bdd.canonicalizations", "count"),
    ("bdd.nodes", "count"),
    ("smt.solve_us.p50", "us"),
    ("smt.solve_us.p99", "us"),
    ("smt.rewrite_closed_frac", "ratio"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("serve.server_us.p50", "us"),
    ("serve.server_us.p99", "us"),
    ("serve.transport_us.p50", "us"),
    ("serve.transport_us.p99", "us"),
    ("serve.queue_wait_us.mean", "us"),
    ("serve.service_us.mean", "us"),
    ("loadgen.late_us.p99", "us"),
    ("loadgen.outstanding_max", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage_frac", "ratio"),
    ("workload.repeat_frac", "ratio"),
    ("host.yardstick_us", "us"),
];

pub const WORKLOADS: [&str; 4] = ["paper-cold", "tail-tiers", "serve-open", "serve-closed"];

/// Inputs per second of run generated for the timed library passes:
/// more than the seed commit gets through, so the pass ends on time.
const PAPER_PER_S: usize = 2400;
const TAIL_PER_S: usize = 2200;
/// Inputs the traced library runs cover, and with them every output
/// digest and the peak-memory reading.
const PAPER_FIXED_INPUTS: usize = 4000;
const TAIL_FIXED_INPUTS: usize = 3000;
/// Requests the serve digests and the closed loop's memory reading
/// cover.
const SERVE_FIXED_REQUESTS: usize = 4000;
/// Each `setup_s` sample is a cold start that ends with the answers to
/// the first few inputs of the workload's kind, made at a fixed seed so
/// that set-up time does not vary with `--seed`.
const PROBE_INPUTS: usize = 8;
const PROBE_SEED: u64 = 0;

/// At least `n` paper inputs: linear, polynomial and non-polynomial.
fn paper_inputs(seed: u64, n: usize) -> Vec<Input> {
    inputs::paper(seed, n.div_ceil(3))
}

/// At least `n` tail inputs: residuals, wide chains, random ASTs and
/// products past the monomial cap, 10 : 2 : 10 : 1.
fn tail_inputs(seed: u64, n: usize) -> Vec<Input> {
    let k = n.div_ceil(23);
    inputs::tail(seed, 10 * k, 2 * k, 10 * k, k)
}

/// The inputs each `setup_s` sample of `workload` answers.
fn probe_inputs(workload: &str) -> Result<Vec<Input>, String> {
    let mut probe = match workload {
        "paper-cold" => paper_inputs(PROBE_SEED, PROBE_INPUTS),
        "tail-tiers" => tail_inputs(PROBE_SEED, PROBE_INPUTS),
        "serve-open" | "serve-closed" => inputs::serve_mix(PROBE_SEED, PROBE_INPUTS),
        other => return Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    };
    probe.truncate(PROBE_INPUTS);
    Ok(probe)
}

/// Runs one workload.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let probe = probe_inputs(name)?;
    let scaled = |per_s: usize, min: usize| ((per_s as f64 * seconds) as usize).max(min);
    let t0 = std::time::Instant::now();
    let generated = |n: usize| {
        eprintln!(
            "{name}: {n} inputs generated in {:.1} s",
            t0.elapsed().as_secs_f64()
        );
    };
    Ok(match name {
        "paper-cold" => {
            let inputs = paper_inputs(seed, scaled(PAPER_PER_S, PAPER_FIXED_INPUTS));
            generated(inputs.len());
            library::run(name, &inputs, seconds, trace, PAPER_FIXED_INPUTS)?
        }
        "tail-tiers" => {
            let inputs = tail_inputs(seed, scaled(TAIL_PER_S, TAIL_FIXED_INPUTS));
            generated(inputs.len());
            library::run(name, &inputs, seconds, trace, TAIL_FIXED_INPUTS)?
        }
        "serve-open" => {
            let pool = inputs::serve_mix(seed, serve::OPEN_POOL);
            let requests = (serve::OPEN_RATE_RPS * seconds) as usize;
            let picks = inputs::zipf_picks(seed, pool.len(), requests);
            let due_s = inputs::arrivals(seed, requests, serve::OPEN_RATE_RPS);
            generated(pool.len());
            let kind = serve::Loop::Open(&due_s);
            serve::run(
                &server_bin()?,
                kind,
                &pool,
                &picks,
                &probe,
                seconds,
                trace,
                SERVE_FIXED_REQUESTS,
            )?
        }
        "serve-closed" => {
            let pool = inputs::serve_mix(seed, scaled(serve::CLOSED_POOL_PER_S, 1));
            let picks: Vec<usize> = (0..pool.len()).collect();
            generated(pool.len());
            let kind = serve::Loop::Closed;
            serve::run(
                &server_bin()?,
                kind,
                &pool,
                &picks,
                &probe,
                seconds,
                trace,
                SERVE_FIXED_REQUESTS,
            )?
        }
        _ => unreachable!("probe_inputs accepted `{name}`"),
    })
}

/// The server binary, built next to this one.
fn server_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin = exe.with_file_name("mba_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p mba-serve` into the same target directory",
            bin.display()
        ))
    }
}

fn usage() -> &'static str {
    "usage: mba_benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
     \x20      mba_benchmark [--seed N] [--seconds S] [--repeat N] [--out FILE]\n\
     \x20      mba_benchmark compare BASE.json NEW.json [--bounds BENCHMARK.json]"
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("bad number `{v}` for {flag}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--repeat" => a.repeat = num(value()?)? as usize,
            "--out" => a.out = Some(value()?.into()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    if a.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("probe") => match &args[1..] {
            [workload] => cold_start(workload),
            _ => Err("probe takes one workload".into()),
        },
        _ => parse_args(&args).and_then(|a| match &a.workload {
            Some(w) => single(w, &a),
            None => report::full_run(a.seed, a.seconds, a.repeat, a.out.as_deref()),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mba_benchmark: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

/// `probe WORKLOAD`: one library cold start on the workload's probe
/// inputs, printed in seconds. Library runs take `setup_s` from many.
fn cold_start(workload: &str) -> Result<bool, String> {
    println!("{}", library::cold_start(&probe_inputs(workload)?)?);
    Ok(true)
}

/// One workload run in this process; the last line printed is the
/// result object. Returns whether the run was correct.
fn single(workload: &str, a: &Args) -> Result<bool, String> {
    let outcome = run_workload(workload, a.seed, a.seconds, a.trace)?;
    print!(
        "{}",
        report::render_run(workload, a.seed, a.trace, &outcome)
    );
    Ok(outcome.failed == 0 && outcome.notes.is_empty())
}

/// The workload sizes, for result files.
pub fn sizes() -> String {
    format!(
        "paper-cold: {PAPER_PER_S} inputs/s generated, {PAPER_FIXED_INPUTS} traced; \
         tail-tiers: {TAIL_PER_S} inputs/s generated, {TAIL_FIXED_INPUTS} traced; \
         serve-open: {} rps over {} inputs; serve-closed: {} inputs/s generated; \
         {} SMT queries per run",
        serve::OPEN_RATE_RPS,
        serve::OPEN_POOL,
        serve::CLOSED_POOL_PER_S,
        measure::SOLVE_QUERIES,
    )
}
