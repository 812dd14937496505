//! From a workload's answers to its metrics: the output checker, the
//! SMT consumer, and the end-to-end metrics every workload reports.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use mba_expr::Expr;
use mba_smt::{CheckOutcome, MiterBudget, SmtSolver, SolverProfile};

use crate::check::correct;
use crate::host::HostSpeed;
use crate::inputs::Input;
use crate::stats::{median, per, percentile, segmented, Digest};
use crate::Metrics;

/// Outputs handed to the SMT solver per run: the first ones, in input
/// order, whose input has a ground truth.
pub const SOLVE_QUERIES: usize = 1000;
/// Times the end-to-end runs solve the same queries; `solve_s` is the
/// median, so a burst of host noise during one pass does not count.
pub const SOLVE_REPS: usize = 3;
const SOLVE_CONFLICTS: u64 = 250;
const SOLVE_TIMEOUT: Duration = Duration::from_secs(5);
/// Cold starts timed for `setup_s`.
pub const SETUP_REPS: usize = 15;

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The `setup_s` samples of a run: [`SETUP_REPS`] cold starts spread
/// evenly over its measured phase. The host changes speed for seconds at
/// a time, so cold starts taken back to back all see one speed; spread
/// out, their median spans the run.
pub struct ColdStarts<'a> {
    take: Box<dyn FnMut() -> Result<f64, String> + Send + 'a>,
    samples: Vec<f64>,
    error: Option<String>,
}

impl<'a> ColdStarts<'a> {
    /// `take` times one cold start, in seconds.
    pub fn new(take: impl FnMut() -> Result<f64, String> + Send + 'a) -> ColdStarts<'a> {
        ColdStarts {
            take: Box::new(take),
            samples: Vec::with_capacity(SETUP_REPS),
            error: None,
        }
    }

    /// Takes the next cold start if it is due when the measured phase is
    /// `progress` (0 to 1) of the way through: the k-th is due at
    /// k / [`SETUP_REPS`].
    pub fn take_due(&mut self, progress: f64) {
        let k = self.samples.len();
        if self.error.is_none() && k < SETUP_REPS && progress * SETUP_REPS as f64 >= k as f64 {
            match (self.take)() {
                Ok(t) => self.samples.push(t),
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// All the samples, taking now those the phase did not reach; or
    /// the first error.
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.error.is_none() && self.samples.len() < SETUP_REPS {
            self.take_due(1.0);
        }
        self.error.map_or(Ok(self.samples), Err)
    }
}

/// What a workload got back, one entry per input handled, in order.
#[derive(Default)]
pub struct Answers<'a> {
    pub inputs: Vec<&'a Input>,
    /// The output, `None` when there was none (an error reply, a
    /// missing reply, an input that did not parse).
    pub outputs: Vec<Option<String>>,
    /// Latency per input; infinite when there was no output.
    pub latency_us: Vec<f64>,
    /// When the input was answered (or given up on), in seconds from
    /// the start of the run.
    pub done_s: Vec<f64>,
    /// Leading answers that are checked but not timed: the open loop's
    /// warm-up.
    pub untimed: usize,
}

impl Answers<'_> {
    /// The digest of the first `n` outputs, tagged with how many there
    /// were, so runs that got through fewer inputs never compare equal.
    pub fn digest(&self, n: usize) -> String {
        let mut d = Digest::default();
        let prefix = &self.outputs[..n.min(self.outputs.len())];
        for out in prefix {
            d.push(out.as_deref().unwrap_or("<none>"));
        }
        format!("{}:{}", d.hex(), prefix.len())
    }
}

/// The checker's and the solver's findings on a run's answers.
pub struct Judged {
    /// Per answer: missing, wrong on a check point, or refuted by the
    /// solver.
    pub wrong: Vec<bool>,
    /// Σ output nodes / Σ input nodes over the distinct inputs among a
    /// fixed number of leading answers, so that it does not depend on
    /// how far a timed run got.
    pub nodes_ratio: f64,
    pub solve: Solve,
}

impl Judged {
    pub fn failed(&self) -> usize {
        self.wrong.iter().filter(|&&w| w).count()
    }
}

/// Checks every answer and solves the first [`SOLVE_QUERIES`] outputs of
/// distinct inputs that have a ground truth, `reps` times over. The node
/// ratio covers the first `fixed` answers.
pub fn judge(a: &Answers, reps: usize, fixed: usize) -> Judged {
    let mut wrong = Vec::with_capacity(a.outputs.len());
    let mut seen = HashSet::new();
    let (mut nodes_in, mut nodes_out) = (0usize, 0usize);
    let mut queries = Vec::new();
    for (i, (input, out)) in a.inputs.iter().zip(&a.outputs).enumerate() {
        let e: Expr = input.text.parse().expect("generated inputs parse");
        let parsed = out.as_deref().and_then(|o| o.parse::<Expr>().ok());
        let ok = parsed
            .as_ref()
            .is_some_and(|o| correct(&e, o, input.truth.as_ref()));
        if !ok {
            report_wrong(&wrong, input, out.as_deref(), "fails the checker");
        }
        wrong.push(!ok);
        if !seen.insert(input.text.as_str()) {
            continue;
        }
        if i < fixed {
            nodes_in += e.node_count();
            nodes_out += parsed.as_ref().map_or(0, Expr::node_count);
        }
        if queries.len() < SOLVE_QUERIES {
            if let (Some(o), Some(t)) = (parsed, input.truth.as_ref()) {
                queries.push((i, o, t));
            }
        }
    }
    let solve = solve(&queries, reps);
    for &i in &solve.refuted {
        let why = "refuted by the SMT solver";
        report_wrong(&wrong, a.inputs[i], a.outputs[i].as_deref(), why);
        wrong[i] = true;
    }
    Judged {
        wrong,
        nodes_ratio: nodes_out as f64 / nodes_in as f64,
        solve,
    }
}

/// Prints a wrong answer to stderr, for the first few of a run only.
fn report_wrong(wrong_so_far: &[bool], input: &Input, output: Option<&str>, why: &str) {
    if wrong_so_far.iter().filter(|&&w| w).count() >= 10 {
        return;
    }
    let truth = input.truth.as_ref().map(ToString::to_string);
    eprintln!(
        "wrong answer ({why}): input {} truth {} output {}",
        input.text,
        truth.as_deref().unwrap_or("-"),
        output.unwrap_or("<none>")
    );
}

/// The SMT consumer's results.
pub struct Solve {
    pub queries: usize,
    pub proved: usize,
    /// Answer indices whose output the solver showed to differ from its
    /// ground truth.
    pub refuted: Vec<usize>,
    /// Median over repetitions of the time to solve every query, at
    /// reference speed.
    pub total: Duration,
    /// Per-layer metrics of the first repetition.
    pub metrics: Metrics,
}

/// Proves each `(answer index, output, ground truth)` equal at width 64
/// under a conflict budget (the paper's consumer, Table 6), `reps` times.
fn solve(queries: &[(usize, Expr, &Expr)], reps: usize) -> Solve {
    let solver = SmtSolver::new(SolverProfile::z3_style());
    let budget = MiterBudget::conflicts(SOLVE_CONFLICTS).with_timeout(SOLVE_TIMEOUT);
    let mut totals = Vec::with_capacity(reps);
    let mut first = None;
    for _ in 0..reps.max(1) {
        let (mut proved, mut closed, mut conflicts, mut props) = (0, 0, 0, 0);
        let mut refuted = Vec::new();
        let mut times = Vec::with_capacity(queries.len());
        let mut host = HostSpeed::new();
        for (i, out, truth) in queries {
            host.tick();
            let t0 = Instant::now();
            let r = solver.check_equivalence_budgeted(out, truth, 64, &budget);
            times.push(us(t0.elapsed()));
            match r.outcome {
                CheckOutcome::Equivalent => proved += 1,
                CheckOutcome::NotEquivalent(_) => refuted.push(*i),
                CheckOutcome::Timeout => {}
            }
            closed += usize::from(r.solved_by_rewriting);
            conflicts += r.sat_stats.conflicts;
            props += r.sat_stats.propagations;
        }
        let total = host.now_s();
        totals.push(total * host.scale(0.0, total));
        if first.is_none() {
            let mut m = Metrics::new();
            m.insert("smt.solve_us.p50", percentile(&mut times, 0.5));
            m.insert("smt.solve_us.p99", percentile(&mut times, 0.99));
            m.insert("smt.rewrite_closed_frac", per(closed as f64, queries.len()));
            m.insert("sat.conflicts", conflicts as f64);
            m.insert("sat.propagations", props as f64);
            first = Some((proved, refuted, m));
        }
    }
    let (proved, refuted, metrics) = first.expect("at least one repetition");
    Solve {
        queries: queries.len(),
        proved,
        refuted,
        total: Duration::from_secs_f64(median(&totals)),
        metrics,
    }
}

/// The end-to-end metrics of a run. Timings are medians over equal
/// consecutive segments of the run (see [`segmented`]), at reference
/// speed by the samples `host` took on the clock of `a.done_s`.
pub fn end_to_end(
    a: &Answers,
    j: &Judged,
    setup_s: &[f64],
    rss_mb: f64,
    host: &HostSpeed,
) -> Metrics {
    let timed = a.untimed..a.outputs.len();
    let latency: Vec<f64> = a.latency_us[timed.clone()]
        .iter()
        .zip(&j.wrong[timed.clone()])
        .map(|(&l, &wrong)| if wrong { f64::INFINITY } else { l })
        .collect();
    let t = segmented(&latency, &a.done_s[timed], |from, to| host.scale(from, to));
    let mut m = Metrics::new();
    m.insert("setup_s", median(setup_s));
    m.insert("throughput_per_s", t.throughput);
    m.insert("latency_p50_us", t.p50);
    m.insert("latency_p99_us", t.p99);
    m.insert(
        "correct_frac",
        1.0 - per(j.failed() as f64, a.outputs.len()),
    );
    m.insert("output_nodes_ratio", j.nodes_ratio);
    m.insert("solved_frac", per(j.solve.proved as f64, j.solve.queries));
    m.insert("solve_s", j.solve.total.as_secs_f64());
    m.insert("peak_rss_mb", rss_mb);
    m
}

/// Peak resident memory of process `pid` (or `self`) so far, in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(text: &str, truth: Option<&str>) -> Input {
        Input {
            text: text.into(),
            truth: truth.map(|t| t.parse().unwrap()),
        }
    }

    #[test]
    fn wrong_missing_and_unparsable_replies_are_failures() {
        let good = input("2*(x|y) - (~x&y) - (x&~y)", Some("x+y"));
        let answers = Answers {
            inputs: vec![&good; 5],
            outputs: vec![
                Some("x+y".into()),
                Some("x^y".into()),
                Some("x+".into()),
                None,
                Some("y+x".into()),
            ],
            latency_us: vec![10.0, 10.0, 10.0, f64::INFINITY, 10.0],
            done_s: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            untimed: 0,
        };
        let j = judge(&answers, 1, 5);
        assert_eq!(j.wrong, [false, true, true, true, false]);
        assert_eq!(j.failed(), 3);
        // One query per distinct input, proved.
        assert_eq!((j.solve.queries, j.solve.proved), (1, 1));
        let m = end_to_end(&answers, &j, &[1.0], 5.0, &HostSpeed::new());
        assert_eq!(m["correct_frac"], 0.4);
        // Three of five answers fail, so the p99 is infinite.
        assert_eq!(m["latency_p99_us"], f64::INFINITY);
    }

    #[test]
    fn cold_starts_are_spread_over_the_phase_then_topped_up() {
        let mut taken = 0;
        let mut c = ColdStarts::new(|| {
            taken += 1;
            Ok(f64::from(taken))
        });
        // The first is due at the start, the second a fifteenth in.
        c.take_due(0.0);
        c.take_due(0.0);
        c.take_due(0.05);
        assert_eq!(c.samples, [1.0]);
        c.take_due(0.07);
        assert_eq!(c.samples.len(), 2);
        // One at a time, however far the phase got.
        c.take_due(0.9);
        assert_eq!(c.samples.len(), 3);
        let all = c.finish().unwrap();
        assert_eq!(all.len(), SETUP_REPS);
        assert_eq!(all[SETUP_REPS - 1], SETUP_REPS as f64);
    }

    #[test]
    fn a_failed_cold_start_fails_the_samples() {
        let mut tries = 0;
        let mut c = ColdStarts::new(|| {
            tries += 1;
            if tries == 2 {
                Err("wrong answer".to_string())
            } else {
                Ok(1.0)
            }
        });
        c.take_due(1.0);
        c.take_due(1.0);
        c.take_due(1.0);
        assert_eq!(c.finish(), Err("wrong answer".to_string()));
        assert_eq!(tries, 2, "no cold start after the failed one");
    }

    #[test]
    fn a_reply_the_solver_refutes_is_a_failure() {
        // An output that differs from its ground truth: the solver
        // refutes it, as well as the checker catching it.
        let i = input("x*x", Some("x"));
        let answers = Answers {
            inputs: vec![&i],
            outputs: vec![Some("x*x".into())],
            latency_us: vec![1.0],
            done_s: vec![0.1],
            untimed: 0,
        };
        let j = judge(&answers, 1, 1);
        assert_eq!(j.wrong, [true]);
        assert_eq!(j.solve.refuted, [0]);
    }
}
