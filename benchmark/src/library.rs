//! The library workloads: one caller and a fresh `Simplifier`; each
//! input is parsed, simplified and rendered, then handed with its
//! ground truth to the SMT solver — the paper's pipeline.

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mba_expr::{engine_stats, Expr, ExprArena};
use mba_solver::Simplifier;

use crate::check::right_answer;
use crate::host::HostSpeed;
use crate::inputs::{repeat_frac, Input};
use crate::measure::{end_to_end, judge, peak_rss_mb, us, Answers, ColdStarts, SOLVE_REPS};
use crate::stats::{per, percentile};
use crate::{Metrics, Outcome};

/// Inputs simplified on a throwaway simplifier before the timed pass,
/// so the process-wide lazily built tables (the §4.5 bitwise catalogs)
/// exist and the measured simplifier starts with empty caches of its
/// own.
const WARMUP_INPUTS: usize = 64;

/// The `probe` mode: in a fresh process, constructs a `Simplifier` and
/// answers the probe inputs in order. Returns the time that took, in
/// seconds at reference speed, or an error naming a wrong answer.
pub fn cold_start(probe: &[Input]) -> Result<f64, String> {
    let exprs: Vec<Expr> = probe
        .iter()
        .map(|i| i.text.parse().expect("generated inputs parse"))
        .collect();
    let mut host = HostSpeed::spot();
    let t0 = Instant::now();
    let simplifier = Simplifier::new();
    let outputs: Vec<String> = exprs
        .iter()
        .map(|e| simplifier.simplify_detailed(e).output.to_string())
        .collect();
    let elapsed = t0.elapsed().as_secs_f64();
    host.spot_again();
    let t = elapsed * host.scale(0.0, f64::INFINITY);
    match probe
        .iter()
        .zip(&outputs)
        .find(|(input, out)| !right_answer(input, Some(out.as_str())))
    {
        Some((input, out)) => Err(format!("wrong answer {out} to probe input {}", input.text)),
        None => Ok(t),
    }
}

/// One `setup_s` sample of a library workload: [`cold_start`] in a fresh
/// process of this binary (`exe`), so that tables built once per
/// process count every time.
fn cold_start_process(exe: &Path, workload: &str) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["probe", workload])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(t) if out.status.success() => Ok(t),
        _ => Err(format!("the {workload} probe failed ({})", out.status)),
    }
}

/// All seven pipeline stages the simplifier records spans for, with
/// their per-layer metric names: mean µs per input, and calls.
pub const STAGES: [(&str, &str, &str); 7] = [
    (
        "signature",
        "core.stage.signature_us",
        "core.stage.signature_calls",
    ),
    ("basis", "core.stage.basis_us", "core.stage.basis_calls"),
    ("simba", "core.stage.simba_us", "core.stage.simba_calls"),
    (
        "poly_reduce",
        "core.stage.poly_reduce_us",
        "core.stage.poly_reduce_calls",
    ),
    (
        "rewrite",
        "core.stage.rewrite_us",
        "core.stage.rewrite_calls",
    ),
    (
        "final_fold",
        "core.stage.final_fold_us",
        "core.stage.final_fold_calls",
    ),
    ("synth", "core.stage.synth_us", "core.stage.synth_calls"),
];

/// Span totals of a traced pass, in microseconds.
#[derive(Default)]
struct Spans {
    parse: f64,
    intern: f64,
    classify: f64,
    simplify: Vec<f64>,
    render: f64,
}

/// One pass over a prefix of the inputs on a fresh simplifier.
struct Pass<'a> {
    answers: Answers<'a>,
    /// Work time of the pass (see `host`).
    wall: Duration,
    host: HostSpeed,
    spans: Spans,
    counters: Metrics,
    /// Peak memory once `rss_at` inputs were done (or at the end).
    rss_mb: f64,
}

impl Pass<'_> {
    /// The pass's work time at reference speed, in seconds.
    fn reference_s(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        s * self.host.scale(0.0, s)
    }
}

enum Limit {
    Time(Duration),
    Count(usize),
}

/// With `cold`, a timed pass takes its cold starts as they fall due,
/// outside its work clock.
fn pass<'a>(
    inputs: &'a [Input],
    limit: Limit,
    traced: bool,
    rss_at: usize,
    mut cold: Option<&mut ColdStarts<'_>>,
) -> Pass<'a> {
    let simplifier = Simplifier::new();
    let arena = ExprArena::new();
    let (deadline, inputs) = match limit {
        Limit::Time(d) => (Some(d.as_secs_f64()), inputs),
        Limit::Count(n) => (None, &inputs[..n.min(inputs.len())]),
    };
    let before = GlobalCounters::read();
    let mut spans = Spans::default();
    let mut a = Answers::default();
    let mut rss_mb = None;
    let mut host = HostSpeed::new();
    for input in inputs {
        host.tick();
        if deadline.is_some_and(|d| host.now_s() >= d) {
            break;
        }
        if let (Some(c), Some(d)) = (cold.as_deref_mut(), deadline) {
            let progress = host.now_s() / d;
            host.aside(|| c.take_due(progress));
        }
        let t0 = Instant::now();
        let output = match input.text.parse::<Expr>() {
            Err(_) => None,
            Ok(e) if traced => {
                let t1 = Instant::now();
                let id = arena.intern(&e);
                let t2 = Instant::now();
                black_box(arena.classify(id));
                let t3 = Instant::now();
                let r = simplifier.simplify_detailed(&e);
                let t4 = Instant::now();
                let out = r.output.to_string();
                let t5 = Instant::now();
                spans.parse += us(t1 - t0);
                spans.intern += us(t2 - t1);
                spans.classify += us(t3 - t2);
                spans.simplify.push(us(t4 - t3));
                spans.render += us(t5 - t4);
                Some(out)
            }
            Ok(e) => Some(simplifier.simplify_detailed(&e).output.to_string()),
        };
        let t_end = Instant::now();
        let latency = if output.is_some() {
            us(t_end - t0)
        } else {
            f64::INFINITY
        };
        a.inputs.push(input);
        a.outputs.push(output);
        a.latency_us.push(latency);
        a.done_s.push(host.now_s());
        if a.outputs.len() == rss_at {
            rss_mb = Some(peak_rss_mb("self"));
        }
    }
    let wall = Duration::from_secs_f64(host.now_s());
    let counters = if traced {
        layer_counters(&simplifier, &before, a.outputs.len())
    } else {
        Metrics::new()
    };
    Pass {
        answers: a,
        wall,
        host,
        spans,
        counters,
        rss_mb: rss_mb.unwrap_or_else(|| peak_rss_mb("self")),
    }
}

/// The process-wide counter families, read before and after a pass.
struct GlobalCounters {
    simba: mba_sig::SimbaStats,
    synth: mba_synth::SynthStats,
    bdd: mba_bdd::BddStats,
    bit_rows: u64,
}

impl GlobalCounters {
    fn read() -> GlobalCounters {
        GlobalCounters {
            simba: mba_sig::simba_stats(),
            synth: mba_synth::synth_stats(),
            bdd: mba_bdd::bdd_stats(),
            bit_rows: engine_stats().bit_parallel_rows,
        }
    }
}

/// Counter deltas of a pass and the simplifier's own registry.
fn layer_counters(s: &Simplifier, before: &GlobalCounters, inputs: usize) -> Metrics {
    let now = GlobalCounters::read();
    let simba = now.simba.since(&before.simba);
    let synth = now.synth.since(&before.synth);
    let bdd = now.bdd.since(&before.bdd);
    let snap = s.metrics().snapshot();
    let mut m = Metrics::new();
    for (stage, us_name, calls_name) in STAGES {
        let (sum, count) = snap
            .histogram(&format!("core.stage.{stage}.micros"))
            .map_or((0, 0), |h| (h.sum, h.count));
        m.insert(us_name, per(sum as f64, inputs));
        m.insert(calls_name, count as f64);
    }
    m.insert("core.lookup_hit_frac", s.cache_stats().hit_rate());
    m.insert("core.rounds", snap.counter("core.result.rounds") as f64);
    m.insert("core.bailouts", snap.counter("core.result.bailouts") as f64);
    m.insert(
        "core.skipped_too_many_vars",
        snap.counter("core.result.skipped.too_many_vars") as f64,
    );
    m.insert("sig.cache_hit_frac", s.sig_cache().stats().hit_rate());
    m.insert("sig.evictions", s.sig_cache().evictions() as f64);
    m.insert("simba.hit_frac", simba.hit_rate());
    m.insert(
        "eval.bitparallel_rows",
        (now.bit_rows - before.bit_rows) as f64,
    );
    m.insert("synth.attempts", synth.attempts as f64);
    m.insert("synth.hit_frac", synth.hit_rate());
    m.insert("synth.candidates", synth.candidates as f64);
    m.insert("bdd.canonicalizations", bdd.canonicalizations as f64);
    m.insert("bdd.nodes", bdd.nodes as f64);
    m
}

/// Runs a library workload. Untraced: a pass timed for `seconds` gives
/// the end-to-end metrics, and the [`cold_start_process`] samples taken
/// during it give `setup_s`. Traced:
/// untraced, traced and again untraced passes over the first
/// `fixed_inputs` inputs, each on a fresh simplifier, give the per-layer
/// metrics and the tracing overhead; their outputs must match. Digests,
/// peak memory and the node ratio also cover the first `fixed_inputs`,
/// so none of them depends on how fast the host was.
pub fn run(
    workload: &str,
    inputs: &[Input],
    seconds: f64,
    trace: bool,
    fixed_inputs: usize,
) -> Result<Outcome, String> {
    // Before the traced-mode passes the throwaway simplifier answers all
    // of their inputs, so no pass pays a first-use cost that the others
    // do not.
    let warm_up = if trace { fixed_inputs } else { WARMUP_INPUTS };
    let warm = Simplifier::new();
    for input in &inputs[..warm_up.min(inputs.len())] {
        if let Ok(e) = input.text.parse::<Expr>() {
            black_box(warm.simplify(&e));
        }
    }
    drop(warm);

    if !trace {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cold = ColdStarts::new(|| cold_start_process(&exe, workload));
        let timed = Limit::Time(Duration::from_secs_f64(seconds));
        let p = pass(inputs, timed, false, fixed_inputs, Some(&mut cold));
        let setup = cold.finish()?;
        let j = judge(&p.answers, SOLVE_REPS, fixed_inputs);
        return Ok(Outcome {
            attempted: p.answers.outputs.len(),
            failed: j.failed(),
            digest: p.answers.digest(fixed_inputs),
            notes: vec![],
            yardstick_us: p.host.median_us(),
            metrics: end_to_end(&p.answers, &j, &setup, p.rss_mb, &p.host),
        });
    }

    // Untraced passes before and after the traced one, so that a steady
    // drift in host speed cancels out of the overhead; each pass's time
    // is also taken at reference speed.
    let fixed = || Limit::Count(fixed_inputs);
    let before = pass(inputs, fixed(), false, fixed_inputs, None);
    let traced = pass(inputs, fixed(), true, fixed_inputs, None);
    let after = pass(inputs, fixed(), false, fixed_inputs, None);
    let a = &traced.answers;
    let mut j = judge(a, 1, fixed_inputs);
    let mut notes = vec![];
    let mismatched: Vec<usize> = (0..a.outputs.len())
        .filter(|&i| {
            [&before, &after]
                .iter()
                .any(|p| p.answers.outputs[i] != a.outputs[i])
        })
        .collect();
    if !mismatched.is_empty() {
        notes.push(format!(
            "{} outputs differ between the traced and the untraced pass",
            mismatched.len()
        ));
    }
    for i in mismatched {
        j.wrong[i] = true;
    }
    let n = a.outputs.len();
    let untraced_s = (before.reference_s() + after.reference_s()) / 2.0;
    let overhead = traced.reference_s() / untraced_s - 1.0;
    let s = traced.spans;
    let covered = s.parse + s.intern + s.classify + s.simplify.iter().sum::<f64>() + s.render;
    let mut simplify = s.simplify;
    let mut m = traced.counters;
    m.insert("expr.parse_us", per(s.parse, n));
    m.insert("expr.intern_us", per(s.intern, n));
    m.insert("expr.classify_us", per(s.classify, n));
    m.insert("expr.render_us", per(s.render, n));
    m.insert("core.simplify_us.p50", percentile(&mut simplify, 0.5));
    m.insert("core.simplify_us.p99", percentile(&mut simplify, 0.99));
    m.extend(std::mem::take(&mut j.solve.metrics));
    m.insert("trace.overhead_frac", overhead);
    m.insert("trace.span_coverage_frac", covered / us(traced.wall));
    m.insert("host.yardstick_us", traced.host.median_us());
    m.insert(
        "workload.repeat_frac",
        repeat_frac(a.inputs.iter().map(|i| i.text.as_str())),
    );
    Ok(Outcome {
        attempted: n,
        failed: j.failed(),
        digest: a.digest(fixed_inputs),
        notes,
        yardstick_us: traced.host.median_us(),
        metrics: m,
    })
}
