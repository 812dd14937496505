//! Aggregation, table formatting, and machine-readable telemetry for
//! the experiment binaries.

use std::io;
use std::path::PathBuf;
use std::time::Duration;

use mba_gen::ObfuscationKind;

use crate::runner::{SimplifyRun, SolveRecord, Verdict};

/// Per-category aggregate in the shape of the paper's Tables 2 and 6:
/// `N`, `[T_min, T_max]`, `T_avg` over *solved* samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryAggregate {
    /// Samples in the category.
    pub total: usize,
    /// Solved within budget.
    pub solved: usize,
    /// Refuted (non-equivalent) — zero on identity corpora unless a
    /// tool was unsound.
    pub refuted: usize,
    /// Timed out.
    pub timeouts: usize,
    /// Fastest solved time (seconds).
    pub t_min: f64,
    /// Slowest solved time (seconds).
    pub t_max: f64,
    /// Mean solved time (seconds).
    pub t_avg: f64,
}

/// Aggregates records of one category.
pub fn aggregate(records: &[SolveRecord], kind: ObfuscationKind) -> CategoryAggregate {
    let of_kind: Vec<&SolveRecord> = records.iter().filter(|r| r.kind == kind).collect();
    let solved: Vec<&&SolveRecord> = of_kind
        .iter()
        .filter(|r| r.verdict == Verdict::Solved)
        .collect();
    let times: Vec<f64> = solved.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    // An empty category must aggregate to all-zero times: the old
    // `fold(f64::INFINITY, f64::min)` left `t_min = inf` on zero solved
    // samples, and that non-finite value then reached the JSON telemetry
    // (where it can only render as `null`). Zero is the documented "no
    // data" value, matching `t_avg`.
    CategoryAggregate {
        total: of_kind.len(),
        solved: solved.len(),
        refuted: of_kind
            .iter()
            .filter(|r| r.verdict == Verdict::Refuted)
            .count(),
        timeouts: of_kind
            .iter()
            .filter(|r| r.verdict == Verdict::Timeout)
            .count(),
        t_min: if times.is_empty() {
            0.0
        } else {
            times.iter().copied().fold(f64::INFINITY, f64::min)
        },
        t_max: times.iter().copied().fold(0.0, f64::max),
        t_avg: if times.is_empty() {
            0.0
        } else {
            times.iter().sum::<f64>() / times.len() as f64
        },
    }
}

/// Formats one aggregate as the paper's `N  [Tmin, Tmax]  Tavg` triple.
pub fn format_aggregate(a: &CategoryAggregate) -> String {
    if a.solved == 0 {
        return format!("{:>5}  {:>18}  {:>8}", 0, "[-, -]", "-");
    }
    format!(
        "{:>5}  [{:>7.3}, {:>7.3}]  {:>8.3}",
        a.solved, a.t_min, a.t_max, a.t_avg
    )
}

/// The three categories in table order.
pub const CATEGORIES: [ObfuscationKind; 3] = [
    ObfuscationKind::Linear,
    ObfuscationKind::Polynomial,
    ObfuscationKind::NonPolynomial,
];

/// The simplifier pipeline stages reported by
/// [`BenchReport::push_stage_breakdown`], in pipeline order; names match
/// the `core.stage.<name>.micros` histograms `mba-solver` records.
pub const STAGES: [&str; 5] = ["signature", "basis", "poly_reduce", "rewrite", "final_fold"];

/// Renders a full solver-performance table (the layout of Tables 2/6):
/// one row per category, one column group per profile.
pub fn solver_table(profile_names: &[&str], per_profile: &[Vec<SolveRecord>]) -> String {
    assert_eq!(profile_names.len(), per_profile.len());
    let mut out = String::new();
    out.push_str(&format!("{:<12}", "MBA Type"));
    for name in profile_names {
        out.push_str(&format!("  | {:^37}", name));
    }
    out.push('\n');
    out.push_str(&format!("{:<12}", ""));
    for _ in profile_names {
        out.push_str(&format!(
            "  | {:>5}  {:>18}  {:>8}",
            "N", "[Tmin, Tmax] (s)", "Tavg (s)"
        ));
    }
    out.push('\n');
    for kind in CATEGORIES {
        out.push_str(&format!("{:<12}", kind.to_string()));
        for records in per_profile {
            let a = aggregate(records, kind);
            out.push_str(&format!("  | {}", format_aggregate(&a)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "Total"));
    for records in per_profile {
        let solved = records
            .iter()
            .filter(|r| r.verdict == Verdict::Solved)
            .count();
        let total = records.len().max(1);
        out.push_str(&format!(
            "  | {:>5} ({:>5.1}%) {:>21}",
            solved,
            100.0 * solved as f64 / total as f64,
            ""
        ));
    }
    out.push('\n');
    out
}

/// A flat JSON-object builder for `BENCH_<name>.json` telemetry files.
///
/// The workspace has no JSON dependency, and the telemetry is a flat
/// string/number map, so this renders the object by hand. Insertion
/// order is preserved; [`BenchReport::write`] drops the file next to
/// wherever the binary runs so CI and scripts can diff wall-clock and
/// cache hit-rate across runs.
#[derive(Debug, Clone)]
pub struct BenchReport {
    name: String,
    /// `(key, already-rendered JSON value)` in insertion order.
    fields: Vec<(String, String)>,
}

impl BenchReport {
    /// Starts a report for bench `name` (also its first field).
    pub fn new(name: &str) -> BenchReport {
        let mut r = BenchReport {
            name: name.to_string(),
            fields: Vec::new(),
        };
        r.push_str("bench", name);
        r
    }

    fn push_raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a string field.
    pub fn push_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push_raw(key, format!("\"{}\"", escape_json(value)))
    }

    /// Adds an integer field.
    pub fn push_int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Adds a boolean field.
    pub fn push_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.push_raw(key, value.to_string())
    }

    /// Adds a float field (non-finite values are serialized as `null`,
    /// which JSON requires).
    pub fn push_float(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value.is_finite() {
            format!("{value:.6}")
        } else {
            "null".to_string()
        };
        self.push_raw(key, rendered)
    }

    /// Adds the standard telemetry of one measured simplification batch:
    /// sample count, wall-clock, and cache hits/misses/hit-rate.
    pub fn push_simplify_run(&mut self, run: &SimplifyRun) -> &mut Self {
        self.push_int("samples", run.results.len() as u64)
            .push_float("simplify_wall_clock_s", run.wall_clock.as_secs_f64())
            .push_int("cache_hits", run.cache.hits)
            .push_int("cache_misses", run.cache.misses)
            .push_float("cache_hit_rate", run.cache.hit_rate())
    }

    /// Adds one [`CategoryAggregate`] as `<prefix>_total` /
    /// `<prefix>_solved` / `<prefix>_refuted` / `<prefix>_timeouts` /
    /// `<prefix>_t_min_s` / `<prefix>_t_max_s` / `<prefix>_t_avg_s`.
    /// [`aggregate`] keeps empty categories all-zero, so every value
    /// here is finite by construction.
    pub fn push_aggregate(&mut self, prefix: &str, a: &CategoryAggregate) -> &mut Self {
        self.push_int(&format!("{prefix}_total"), a.total as u64)
            .push_int(&format!("{prefix}_solved"), a.solved as u64)
            .push_int(&format!("{prefix}_refuted"), a.refuted as u64)
            .push_int(&format!("{prefix}_timeouts"), a.timeouts as u64)
            .push_float(&format!("{prefix}_t_min_s"), a.t_min)
            .push_float(&format!("{prefix}_t_max_s"), a.t_max)
            .push_float(&format!("{prefix}_t_avg_s"), a.t_avg)
    }

    /// Adds the simplifier's per-stage timing breakdown from an
    /// `mba-obs` snapshot: for each pipeline stage in [`STAGES`],
    /// `stage_<name>_micros` (total time), `stage_<name>_calls`
    /// (span count), and `stage_<name>_p95_micros` (log2-bucket
    /// approximate p95). Stages that never ran report zeros, so the
    /// field set is identical across runs. All integers — no float can
    /// enter the file through this path.
    pub fn push_stage_breakdown(&mut self, snapshot: &mba_obs::Snapshot) -> &mut Self {
        for stage in STAGES {
            let (micros, calls, p95) = snapshot
                .histogram(&format!("core.stage.{stage}.micros"))
                .map_or((0, 0, 0), |h| (h.sum, h.count, h.approx_quantile(0.95)));
            self.push_int(&format!("stage_{stage}_micros"), micros)
                .push_int(&format!("stage_{stage}_calls"), calls)
                .push_int(&format!("stage_{stage}_p95_micros"), p95);
        }
        self
    }

    /// Renders the JSON object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("  \"{}\": {}", escape_json(k), v))
            .collect();
        format!("{{\n{}\n}}\n", body.join(",\n"))
    }

    /// Writes `BENCH_<name>.json` in the current directory and returns
    /// its path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-system error.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A plain-text histogram line: `label  count  bar`.
pub fn histogram_line(label: &str, count: usize, max: usize, width: usize) -> String {
    let bar_len = (count * width).checked_div(max).unwrap_or(0);
    format!("{:<14} {:>6}  {}", label, count, "#".repeat(bar_len))
}

/// Buckets a solving time for Figure 4-style distributions.
pub fn time_bucket(elapsed: Duration, timed_out: bool) -> &'static str {
    if timed_out {
        return "timeout";
    }
    let s = elapsed.as_secs_f64();
    if s < 0.001 {
        "< 1 ms"
    } else if s < 0.01 {
        "1-10 ms"
    } else if s < 0.1 {
        "10-100 ms"
    } else if s < 1.0 {
        "0.1-1 s"
    } else {
        ">= 1 s"
    }
}

/// Nearest-rank percentile of an **unsorted** sample (`p` in `0..=100`);
/// `0.0` when empty. Sorts a copy, so callers can pass raw latency
/// vectors straight from a run. `p = 50/95/99` are the serving-layer
/// latency quantiles `BENCH_serve.json` reports.
///
/// Non-finite samples are skipped: `NaN` is incomparable, so letting it
/// into the sort (the old `partial_cmp(..).unwrap_or(Equal)`) scrambled
/// the ordering unpredictably and could surface `NaN` as any quantile.
/// A latency vector has no legitimate non-finite entries — an upstream
/// producer that emits one is feeding the report garbage, and skipping
/// keeps the remaining quantiles honest instead of poisoning them all.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite values were filtered"));
    let p = p.clamp(0.0, 100.0);
    // Nearest-rank: the smallest value with at least p% of the sample
    // at or below it.
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Mean of a sequence, 0 when empty.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: usize, kind: ObfuscationKind, verdict: Verdict, ms: u64) -> SolveRecord {
        SolveRecord {
            sample_id: id,
            kind,
            verdict,
            elapsed: Duration::from_millis(ms),
            solved_by_rewriting: false,
        }
    }

    #[test]
    fn aggregate_computes_min_max_avg() {
        let records = vec![
            rec(0, ObfuscationKind::Linear, Verdict::Solved, 100),
            rec(1, ObfuscationKind::Linear, Verdict::Solved, 300),
            rec(2, ObfuscationKind::Linear, Verdict::Timeout, 1000),
            rec(3, ObfuscationKind::Polynomial, Verdict::Solved, 50),
        ];
        let a = aggregate(&records, ObfuscationKind::Linear);
        assert_eq!(a.total, 3);
        assert_eq!(a.solved, 2);
        assert_eq!(a.timeouts, 1);
        assert!((a.t_min - 0.1).abs() < 1e-9);
        assert!((a.t_max - 0.3).abs() < 1e-9);
        assert!((a.t_avg - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_category_formats_dashes() {
        let a = aggregate(&[], ObfuscationKind::Linear);
        assert_eq!(a.solved, 0);
        assert!(format_aggregate(&a).contains("[-, -]"));
    }

    #[test]
    fn empty_aggregate_is_all_finite_zeros() {
        // Regression: the empty fold used to leave `t_min = inf`.
        for a in [
            aggregate(&[], ObfuscationKind::Linear),
            // Non-empty category with zero *solved* samples: the times
            // vector is still empty.
            aggregate(
                &[rec(0, ObfuscationKind::Linear, Verdict::Timeout, 900)],
                ObfuscationKind::Linear,
            ),
        ] {
            assert!(a.t_min.is_finite() && a.t_min == 0.0, "t_min = {}", a.t_min);
            assert!(a.t_max.is_finite() && a.t_max == 0.0);
            assert!(a.t_avg.is_finite() && a.t_avg == 0.0);
        }
    }

    #[test]
    fn empty_aggregate_round_trips_through_report_writer() {
        // The full path the bug poisoned: empty aggregate → BenchReport
        // → rendered JSON. The output must parse and contain no nulls
        // (a null is push_float's spelling of a non-finite value).
        let mut r = BenchReport::new("roundtrip");
        for kind in CATEGORIES {
            let a = aggregate(&[], kind);
            r.push_aggregate(&kind.to_string().replace('-', "_"), &a);
        }
        let rendered = r.render();
        let parsed = mba_obs::json::parse_json(&rendered)
            .unwrap_or_else(|e| panic!("unparseable report: {e}\n{rendered}"));
        assert_eq!(
            mba_obs::json::find_non_finite(&parsed),
            None,
            "empty aggregates leaked a non-finite value:\n{rendered}"
        );
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["linear_t_min_s"].as_num(), Some(0.0));
        assert_eq!(obj["linear_solved"].as_u64(), Some(0));
    }

    #[test]
    fn solver_table_contains_all_rows() {
        let records = vec![
            rec(0, ObfuscationKind::Linear, Verdict::Solved, 10),
            rec(1, ObfuscationKind::NonPolynomial, Verdict::Timeout, 500),
        ];
        let table = solver_table(&["z3-style"], &[records]);
        for needle in ["linear", "poly", "non-poly", "Total", "z3-style"] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn buckets_cover_the_range() {
        assert_eq!(time_bucket(Duration::from_micros(10), false), "< 1 ms");
        assert_eq!(time_bucket(Duration::from_millis(5), false), "1-10 ms");
        assert_eq!(time_bucket(Duration::from_millis(50), false), "10-100 ms");
        assert_eq!(time_bucket(Duration::from_millis(500), false), "0.1-1 s");
        assert_eq!(time_bucket(Duration::from_secs(2), false), ">= 1 s");
        assert_eq!(time_bucket(Duration::from_secs(2), true), "timeout");
    }

    #[test]
    fn histogram_bars_scale() {
        let line = histogram_line("x", 5, 10, 20);
        assert!(line.contains(&"#".repeat(10)));
        let empty = histogram_line("y", 0, 10, 20);
        assert!(!empty.contains('#'));
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(mean([]), 0.0);
        assert_eq!(mean([2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // Unsorted input is fine.
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        // 100 samples: p95 is the 95th smallest, p99 the 99th.
        let big: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&big, 50.0), 50.0);
        assert_eq!(percentile(&big, 95.0), 95.0);
        assert_eq!(percentile(&big, 99.0), 99.0);
        // Out-of-range p clamps instead of panicking.
        assert_eq!(percentile(&v, 150.0), 5.0);
        assert_eq!(percentile(&v, -3.0), 1.0);
    }

    #[test]
    fn percentile_skips_non_finite_samples() {
        // Regression: NaN used to enter the sort via
        // `partial_cmp(..).unwrap_or(Equal)` and scramble the order.
        let v = [f64::NAN, 3.0, f64::INFINITY, 1.0, f64::NEG_INFINITY, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 3.0);
        // NaN placement must not depend on position: every permutation
        // of a NaN-poisoned sample gives the same quantiles.
        let a = [f64::NAN, 5.0, 1.0];
        let b = [5.0, f64::NAN, 1.0];
        let c = [5.0, 1.0, f64::NAN];
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(percentile(&a, p), percentile(&b, p));
            assert_eq!(percentile(&b, p), percentile(&c, p));
            assert!(percentile(&a, p).is_finite());
        }
        // All-non-finite behaves like empty.
        assert_eq!(percentile(&[f64::NAN, f64::INFINITY], 50.0), 0.0);
    }

    #[test]
    fn stage_breakdown_reports_every_stage_as_integers() {
        let reg = mba_obs::MetricsRegistry::new();
        reg.histogram("core.stage.signature.micros").record(120);
        reg.histogram("core.stage.signature.micros").record(80);
        reg.histogram("core.stage.basis.micros").record(40);
        let mut r = BenchReport::new("stages");
        r.push_stage_breakdown(&reg.snapshot());
        let rendered = r.render();
        let parsed = mba_obs::json::parse_json(&rendered).unwrap();
        let obj = parsed.as_obj().unwrap();
        assert_eq!(obj["stage_signature_micros"].as_u64(), Some(200));
        assert_eq!(obj["stage_signature_calls"].as_u64(), Some(2));
        assert_eq!(obj["stage_basis_micros"].as_u64(), Some(40));
        // Stages that never ran still report, as zeros.
        assert_eq!(obj["stage_rewrite_calls"].as_u64(), Some(0));
        assert_eq!(obj["stage_final_fold_micros"].as_u64(), Some(0));
        assert_eq!(mba_obs::json::find_non_finite(&parsed), None);
    }

    #[test]
    fn bench_report_renders_flat_json() {
        let mut r = BenchReport::new("table6");
        r.push_int("samples", 75)
            .push_float("simplify_wall_clock_s", 0.125)
            .push_float("cache_hit_rate", 0.5)
            .push_str("note", "a \"quoted\"\nvalue");
        let json = r.render();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"bench\": \"table6\""));
        assert!(json.contains("\"samples\": 75"));
        assert!(json.contains("\"simplify_wall_clock_s\": 0.125000"));
        assert!(json.contains("\"note\": \"a \\\"quoted\\\"\\nvalue\""));
        // Exactly one trailing-comma-free object: last field has none.
        assert!(!json.contains(",\n}"));
    }

    #[test]
    fn bench_report_serializes_non_finite_floats_as_null() {
        let mut r = BenchReport::new("x");
        r.push_float("bad", f64::NAN);
        assert!(r.render().contains("\"bad\": null"));
    }
}
