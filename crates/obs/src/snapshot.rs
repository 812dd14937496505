//! Deterministic, serializable captures of a [`MetricsRegistry`].
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use std::collections::BTreeMap;

use crate::json::json_escape;
use crate::metrics::bucket_upper_bound;

/// One histogram, captured: total count, total sum, and the non-empty
/// log2 buckets as `(bucket index, sample count)` in index order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples (microseconds for latency histograms).
    pub sum: u64,
    /// Sparse non-empty buckets, ascending by index.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (integer division; telemetry precision).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile (`q` in `0.0..=1.0`): the inclusive upper
    /// bound of the bucket holding the nearest-rank sample, `0` when
    /// empty. Resolution is one log2 bucket — a factor of two — which
    /// is the trade the fixed-bucket design makes for lock-free
    /// recording.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(self.buckets.last().map_or(0, |&(i, _)| i))
    }

    /// Bucket-wise difference (`self − earlier`), saturating at zero so
    /// a reset between captures cannot underflow.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let earlier_by_index: BTreeMap<usize, u64> = earlier.buckets.iter().copied().collect();
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .filter_map(|&(i, n)| {
                let d = n.saturating_sub(earlier_by_index.get(&i).copied().unwrap_or(0));
                (d > 0).then_some((i, d))
            })
            .collect();
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

/// A full capture of a registry at one instant.
///
/// Snapshots are plain data: diff them with [`Snapshot::since`], select
/// sub-trees with [`Snapshot::filter_prefix`], serialize with
/// [`Snapshot::render_json`]. Rendering is **deterministic** (sorted
/// maps, integers only — no float formatting, hence no `NaN`/`Infinity`
/// hazard) so equal snapshots render byte-identically; the
/// `--jobs 1/0/64` byte-identity test in `mba-solver` depends on this.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram captures by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The counter named `name`, `0` when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge named `name`, `0` when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The histogram named `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The activity between `earlier` and `self`: counters and
    /// histograms diff (saturating at zero), gauges keep `self`'s
    /// point-in-time value. Metrics absent from `earlier` pass through
    /// unchanged; metrics absent from `self` are dropped.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| {
                    let base = earlier.histograms.get(k);
                    (
                        k.clone(),
                        match base {
                            Some(b) => v.since(b),
                            None => v.clone(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// A snapshot containing only metrics whose names satisfy `keep`.
    pub fn filter(&self, keep: impl Fn(&str) -> bool) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(k, _)| keep(k))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// [`Snapshot::filter`] by name prefix.
    pub fn filter_prefix(&self, prefix: &str) -> Snapshot {
        self.filter(|name| name.starts_with(prefix))
    }

    /// Canonical JSON: sorted keys, integers only, no whitespace
    /// variance. Parseable by [`crate::json::parse_json`], and equal
    /// snapshots render byte-identically.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"gauges\":{");
        push_entries(
            &mut out,
            self.gauges.iter().map(|(k, v)| (k, v.to_string())),
        );
        out.push_str("},\"histograms\":{");
        push_entries(
            &mut out,
            self.histograms.iter().map(|(k, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(i, n)| format!("[{i},{n}]"))
                    .collect();
                (
                    k,
                    format!(
                        "{{\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        buckets.join(",")
                    ),
                )
            }),
        );
        out.push_str("}}");
        out
    }
}

fn push_entries<'a>(out: &mut String, entries: impl Iterator<Item = (&'a String, String)>) {
    let mut first = true;
    for (key, rendered) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('"');
        out.push_str(&json_escape(key));
        out.push_str("\":");
        out.push_str(&rendered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse_json, Json};
    use crate::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("core.result.exprs").add(5);
        reg.counter("serve.error.parse").add(2);
        reg.gauge("serve.queue.depth").set(3);
        let h = reg.histogram("core.stage.signature.micros");
        h.record(7);
        h.record(900);
        reg
    }

    #[test]
    fn render_is_canonical_and_parseable() {
        let a = sample_registry().snapshot();
        let b = sample_registry().snapshot();
        assert_eq!(a, b);
        assert_eq!(a.render_json(), b.render_json());
        let parsed = parse_json(&a.render_json()).unwrap();
        let obj = parsed.as_obj().unwrap();
        let counters = obj["counters"].as_obj().unwrap();
        assert_eq!(counters["core.result.exprs"], Json::Num(5.0));
        let hist = obj["histograms"].as_obj().unwrap()["core.stage.signature.micros"]
            .as_obj()
            .unwrap();
        assert_eq!(hist["count"], Json::Num(2.0));
        assert_eq!(hist["sum"], Json::Num(907.0));
    }

    #[test]
    fn since_diffs_counters_and_histograms_but_not_gauges() {
        let reg = sample_registry();
        let before = reg.snapshot();
        reg.counter("core.result.exprs").add(10);
        reg.gauge("serve.queue.depth").set(1);
        reg.histogram("core.stage.signature.micros").record(7);
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.counter("core.result.exprs"), 10);
        assert_eq!(delta.counter("serve.error.parse"), 0);
        assert_eq!(
            delta.gauge("serve.queue.depth"),
            1,
            "gauges are point-in-time"
        );
        let h = delta.histogram("core.stage.signature.micros").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 7);
        assert_eq!(h.buckets, vec![(3, 1)]);
    }

    #[test]
    fn since_saturates_after_reset() {
        let big = HistogramSnapshot {
            count: 5,
            sum: 100,
            buckets: vec![(2, 5)],
        };
        let reset = HistogramSnapshot::default();
        let d = reset.since(&big);
        assert_eq!((d.count, d.sum), (0, 0));
        assert!(d.buckets.is_empty());
    }

    #[test]
    fn filter_prefix_selects_subtrees() {
        let snap = sample_registry().snapshot();
        let core = snap.filter_prefix("core.");
        assert_eq!(core.counters.len(), 1);
        assert_eq!(core.histograms.len(), 1);
        assert!(core.gauges.is_empty());
        let serve = snap.filter_prefix("serve.");
        assert_eq!(serve.counter("serve.error.parse"), 2);
        assert!(serve.histograms.is_empty());
    }

    #[test]
    fn quantiles_return_bucket_upper_bounds() {
        let mut h = HistogramSnapshot::default();
        assert_eq!(h.approx_quantile(0.5), 0);
        // 3 samples in bucket 3 ([4,7]), 1 sample in bucket 10.
        h.count = 4;
        h.sum = 5 + 6 + 7 + 600;
        h.buckets = vec![(3, 3), (10, 1)];
        assert_eq!(h.approx_quantile(0.5), 7);
        assert_eq!(h.approx_quantile(0.99), 1023);
        assert_eq!(h.mean(), (5 + 6 + 7 + 600) / 4);
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let snap = Snapshot::default();
        let rendered = snap.render_json();
        assert_eq!(
            rendered,
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert!(parse_json(&rendered).is_ok());
    }
}
