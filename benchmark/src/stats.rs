//! Order statistics, output digests and JSON number rendering.

use std::ops::Range;

/// The nearest-rank `q`-quantile of `samples` (`q` in `0..=1`).
///
/// A failed or refused request is recorded as `f64::INFINITY`, so it
/// sorts above every real latency and counts as missing any limit: with
/// more than 1% failures the p99 is infinite.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// At most this many consecutive equal segments per run: a burst of a
/// few seconds then moves a minority of them.
pub const MAX_SEGMENTS: usize = 8;
/// At least this many answers per segment, so that ten lie beyond its
/// p99.
pub const MIN_SEGMENT_ANSWERS: usize = 1000;

/// Throughput and latency percentiles of a run.
#[derive(Debug)]
pub struct Timing {
    pub throughput: f64,
    pub p50: f64,
    pub p99: f64,
}

/// Equal consecutive segments of `n` samples: as many as
/// [`MIN_SEGMENT_ANSWERS`] allows, at least one, up to [`MAX_SEGMENTS`].
fn segments(n: usize) -> impl Iterator<Item = Range<usize>> {
    let k = (n / MIN_SEGMENT_ANSWERS).clamp(1, MAX_SEGMENTS);
    (0..k).map(move |i| i * n / k..(i + 1) * n / k)
}

/// The `q`-quantile of each of the [`segments`] of `samples`, in order,
/// and the median over segments.
pub fn segmented_percentile(samples: &[f64], q: f64) -> f64 {
    let per: Vec<f64> = segments(samples.len())
        .map(|r| percentile(&mut samples[r].to_vec(), q))
        .collect();
    median(&per)
}

/// Each timing taken over the [`segments`] of the answers, and the
/// median over segments reported: a burst of noise from other work on
/// the host moves a minority of segments, not the result.
/// `latency_us[i]` is infinite for a failed answer, which still takes
/// its place in its segment; `done_s[i]` is when answer `i` came, in
/// seconds from the start. A segment's throughput is its successful
/// answers over the time from the previous segment's last answer to
/// its own. `scale(from_s, to_s)` is the factor that takes times
/// measured in that stretch to reference speed (see `host`); times are
/// multiplied by it and throughputs divided.
pub fn segmented(latency_us: &[f64], done_s: &[f64], scale: impl Fn(f64, f64) -> f64) -> Timing {
    let n = latency_us.len();
    if n == 0 {
        return Timing {
            throughput: 0.0,
            p50: f64::INFINITY,
            p99: f64::INFINITY,
        };
    }
    let mut thr = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut prev_end = 0.0;
    for range in segments(n) {
        let mut lat = latency_us[range.clone()].to_vec();
        let end = done_s[range].iter().copied().fold(prev_end, f64::max);
        let ok = lat.iter().filter(|l| l.is_finite()).count();
        let f = scale(prev_end, end);
        thr.push(ok as f64 / (end - prev_end) / f);
        prev_end = end;
        p50.push(percentile(&mut lat, 0.5) * f);
        p99.push(percentile(&mut lat, 0.99) * f);
    }
    Timing {
        throughput: median(&thr),
        p50: median(&p50),
        p99: median(&p99),
    }
}

/// The median, as Python's `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads here match the ones checked against
/// `BENCHMARK.json`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// FNV-1a over a sequence of outputs, newline-separated. Two runs that
/// produce the same outputs for the same inputs have the same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, output: &str) {
        for b in output.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Renders a metric value as a JSON number with every digit kept. JSON
/// has no infinity, so an infinite percentile reads as `f64::MAX`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{:e}", f64::MAX)
    }
}

/// Mean of `total` over `n`, 0 when `n` is 0.
pub fn per(total: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_count_as_infinite_latency() {
        // 98 answered requests and 2 failures: the p99 falls on a failure.
        let mut lat: Vec<f64> = (1..=98).map(f64::from).collect();
        lat.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&mut lat, 0.99), f64::INFINITY);
        assert_eq!(percentile(&mut lat, 0.5), 50.0);
        // With one failure in 100 the p99 is still a real latency.
        let mut lat: Vec<f64> = (1..=99).map(f64::from).collect();
        lat.push(f64::INFINITY);
        assert_eq!(percentile(&mut lat, 0.99), 99.0);
        assert_eq!(percentile(&mut [], 0.5), f64::INFINITY);
        assert_eq!(json_num(f64::INFINITY), "1.7976931348623157e308");
    }

    #[test]
    fn one_slow_segment_does_not_move_segmented_timings() {
        // Full segments of answers 1 ms apart and 100 us each...
        let n = MIN_SEGMENT_ANSWERS * MAX_SEGMENTS;
        let mut lat = vec![100.0; n];
        let steady_done: Vec<f64> = (1..=n).map(|i| i as f64 / 1000.0).collect();
        let steady = segmented(&lat, &steady_done, |_, _| 1.0);
        assert!((steady.throughput - 1000.0).abs() < 1e-6);
        assert_eq!((steady.p50, steady.p99), (100.0, 100.0));
        // ...then the host stalls for 50 ms during the second segment.
        let second = MIN_SEGMENT_ANSWERS..2 * MIN_SEGMENT_ANSWERS;
        let mut done = steady_done.clone();
        for i in second.start..n {
            if second.contains(&i) {
                lat[i] = 600.0;
            }
            done[i] += 0.05;
        }
        let stalled = segmented(&lat, &done, |_, _| 1.0);
        assert!((stalled.throughput - steady.throughput).abs() < 1e-6);
        assert_eq!((stalled.p50, stalled.p99), (steady.p50, steady.p99));
        // Failed answers count against throughput and as infinitely
        // slow: with every other answer failed, throughput halves and
        // the p99 is infinite.
        let half: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 100.0 } else { f64::INFINITY })
            .collect();
        let t = segmented(&half, &steady_done, |_, _| 1.0);
        assert!((t.throughput - 500.0).abs() < 1e-6);
        assert_eq!((t.p50, t.p99), (100.0, f64::INFINITY));
        // Too few answers for two segments: one.
        let few = segmented(&lat[..1500], &done[..1500], |_, _| 1.0);
        assert_eq!(few.p50, 100.0);
        // A host at half speed in the second half of a steady run: scaled
        // to reference speed, its timings are those of the first half.
        let mut slow_lat = vec![100.0; n];
        let mut slow_done = steady_done.clone();
        for i in n / 2..n {
            slow_lat[i] = 200.0;
            slow_done[i] = 0.5 * n as f64 / 1000.0 + 2.0 * (i + 1 - n / 2) as f64 / 1000.0;
        }
        let half_speed = |from: f64, _to: f64| {
            if from >= 0.5 * n as f64 / 1000.0 {
                0.5
            } else {
                1.0
            }
        };
        let scaled = segmented(&slow_lat, &slow_done, half_speed);
        assert!((scaled.throughput - 1000.0).abs() < 1e-6);
        assert_eq!((scaled.p50, scaled.p99), (100.0, 100.0));
    }

    #[test]
    fn a_stall_in_one_segment_does_not_move_a_segmented_percentile() {
        // Four segments of 1000; the second has 50 samples 10 ms late.
        let mut late = vec![100.0; 4 * MIN_SEGMENT_ANSWERS];
        for l in &mut late[1000..1050] {
            *l = 10_000.0;
        }
        assert_eq!(percentile(&mut late.clone(), 0.99), 10_000.0);
        assert_eq!(segmented_percentile(&late, 0.99), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push("x+y");
        a.push("x");
        b.push("x");
        b.push("x+y");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push("x+y");
        c.push("x");
        assert_eq!(a.hex(), c.hex());
    }
}
