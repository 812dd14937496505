//! Host speed. The machine this benchmark was defined on (a VM shared
//! with other tenants) changes speed on its own, by up to a factor of
//! two for seconds to minutes at a time, which no run length averages
//! out. So a run also times a fixed piece of work of its own, the
//! yardstick, every [`INTERVAL`] while it measures, and reports its
//! end-to-end times at reference speed: scaled by [`REFERENCE_US`] over
//! the yardstick's median duration while they were measured. The
//! yardstick touches only this module's memory and the standard
//! library, so no change to the program under test moves it.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use crate::stats::median;

/// How often the yardstick runs during measured work.
pub const INTERVAL: Duration = Duration::from_millis(50);
/// The yardstick's duration at reference speed, in µs: about its median
/// on the host the benchmark was defined on, so scaled times stay close
/// to the times measured there.
pub const REFERENCE_US: f64 = 400.0;
/// Yardstick runs timed before, and again after, a single measurement
/// such as one cold start.
pub const SPOT_SAMPLES: usize = 3;
/// 1 MiB of slots: larger than a core's own caches, so that most probes
/// miss them, as the simplifier's pointer-heavy work does.
const TABLE_SLOTS: usize = 1 << 17;
const INSERTS: u64 = 30_000;

/// Inserts pseudo-random keys into an open-addressing table. The same
/// keys and probes every time; no allocation.
fn yardstick(table: &mut [u64]) -> Duration {
    let t0 = Instant::now();
    table.fill(0);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut repeats = 0u64;
    for _ in 0..INSERTS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = (x % 50_000) | 1;
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 47) as usize % table.len();
        while table[slot] != 0 && table[slot] != key {
            slot = (slot + 1) % table.len();
        }
        repeats += u64::from(table[slot] == key);
        table[slot] = key;
    }
    black_box(repeats);
    t0.elapsed()
}

/// Yardstick samples taken alongside one stretch of measured work, on
/// a clock of work time: seconds since `start` less the time the
/// yardstick itself took in the same thread.
pub struct HostSpeed {
    table: Vec<u64>,
    start: Instant,
    paused: Duration,
    last: Option<Instant>,
    /// Work time and duration in µs of each run.
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// A sampler whose work clock starts now. Runs the yardstick once
    /// first, untimed, so that the table's pages are mapped before the
    /// first sample.
    pub fn new() -> HostSpeed {
        let mut table = vec![0; TABLE_SLOTS];
        yardstick(&mut table);
        HostSpeed {
            table,
            start: Instant::now(),
            paused: Duration::ZERO,
            last: None,
            samples: Vec::new(),
        }
    }

    /// Seconds of work since the start.
    pub fn now_s(&self) -> f64 {
        (self.start.elapsed().saturating_sub(self.paused)).as_secs_f64()
    }

    /// Runs the yardstick in this thread, and leaves its time out of the
    /// work clock.
    pub fn sample(&mut self) {
        let at = self.now_s();
        let t0 = Instant::now();
        let took = yardstick(&mut self.table);
        self.samples.push((at, took.as_secs_f64() * 1e6));
        self.paused += t0.elapsed();
        self.last = Some(Instant::now());
    }

    /// Runs `f` in this thread, and leaves its time out of the work
    /// clock.
    pub fn aside<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.paused += t0.elapsed();
        out
    }

    /// [`sample`](Self::sample) when [`INTERVAL`] has passed since the
    /// last run, or there was none.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= INTERVAL) {
            self.sample();
        }
    }

    /// Times the yardstick [`SPOT_SAMPLES`] times, as before a single
    /// measurement.
    pub fn spot() -> HostSpeed {
        let mut h = HostSpeed::new();
        h.spot_again();
        h
    }

    /// Times the yardstick [`SPOT_SAMPLES`] more times, as after a
    /// single measurement, so that its samples bracket it.
    pub fn spot_again(&mut self) {
        for _ in 0..SPOT_SAMPLES {
            self.sample();
        }
    }

    /// The yardstick's median duration, in µs.
    pub fn median_us(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|&(_, us)| us).collect();
        median(&all)
    }

    /// The factor that takes a time measured between work times `from_s`
    /// and `to_s` to reference speed: [`REFERENCE_US`] over the median
    /// yardstick run in that stretch, or in the whole run when none fell
    /// in it. Multiply times by it and divide rates by it.
    pub fn scale(&self, from_s: f64, to_s: f64) -> f64 {
        let within: Vec<f64> = self
            .samples
            .iter()
            .filter(|&&(at, _)| from_s <= at && at <= to_s)
            .map(|&(_, us)| us)
            .collect();
        let us = if within.is_empty() {
            self.median_us()
        } else {
            median(&within)
        };
        if us.is_finite() && us > 0.0 {
            REFERENCE_US / us
        } else {
            1.0
        }
    }
}

/// A gate between closed-loop clients and a sampler thread, so that the
/// yardstick runs while no request is in flight and the server is idle:
/// each request holds the gate open ([`Gate::request`]), and [`gated`]
/// shuts it every [`INTERVAL`] for one yardstick run, which the gate's
/// work clock leaves out. The sampler makes no requests; a waiting
/// sampler holds off new requests (the standard `RwLock` lets a waiting
/// writer in before new readers).
pub struct Gate {
    shut: RwLock<()>,
    start: Instant,
    paused_ns: AtomicU64,
    requests: AtomicUsize,
}

impl Gate {
    /// A gate whose work clock starts now.
    pub fn new() -> Gate {
        Gate {
            shut: RwLock::new(()),
            start: Instant::now(),
            paused_ns: AtomicU64::new(0),
            requests: AtomicUsize::new(0),
        }
    }

    /// Keeps the sampler out while the guard lives.
    pub fn request(&self) -> RwLockReadGuard<'_, ()> {
        let open = self.shut.read().expect("no thread panics holding the gate");
        self.requests.fetch_add(1, Ordering::Relaxed);
        open
    }

    /// Requests let through so far.
    pub fn requests(&self) -> usize {
        self.requests.load(Ordering::Relaxed)
    }

    /// Seconds of work since the start: wall time less the time the
    /// gate was shut.
    pub fn now_s(&self) -> f64 {
        let paused = Duration::from_nanos(self.paused_ns.load(Ordering::Relaxed));
        (self.start.elapsed().saturating_sub(paused)).as_secs_f64()
    }
}

/// Runs `work`, whose requests go through `gate`, while a thread of its
/// own shuts the gate every [`INTERVAL`] to sample the host and then
/// call `between`. The samples are on the gate's work clock, which
/// leaves out both.
pub fn gated<T>(
    gate: &Gate,
    mut between: impl FnMut() + Send,
    work: impl FnOnce() -> T,
) -> (T, HostSpeed) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut host = HostSpeed::new();
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(INTERVAL);
                let _shut = gate
                    .shut
                    .write()
                    .expect("no thread panics holding the gate");
                let at = gate.now_s();
                let t0 = Instant::now();
                let took = yardstick(&mut host.table);
                host.samples.push((at, took.as_secs_f64() * 1e6));
                between();
                let paused = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                gate.paused_ns.fetch_add(paused, Ordering::Relaxed);
            }
            host
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        (
            out,
            sampler.join().expect("the host sampler does not panic"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_samples_in_the_window() {
        let mut h = HostSpeed::new();
        h.samples = vec![(0.1, 400.0), (0.2, 800.0), (1.1, 200.0)];
        // Twice the reference duration: the host ran at half speed, so
        // times measured then are halved.
        assert_eq!(h.scale(0.15, 0.25), 0.5);
        assert_eq!(h.scale(1.0, 2.0), 2.0);
        // No sample in the window: the run's median (400 us).
        assert_eq!(h.scale(5.0, 6.0), 1.0);
        assert_eq!(HostSpeed::new().scale(0.0, 1.0), 1.0);
    }

    #[test]
    fn the_gate_keeps_the_sampler_out_of_requests_and_the_clock() {
        let gate = Gate::new();
        let mut betweens = 0;
        let ((), host) = gated(
            &gate,
            || {
                std::thread::sleep(INTERVAL);
                betweens += 1;
            },
            || {
                for _ in 0..3 {
                    let _request = gate.request();
                    let before = gate.now_s();
                    std::thread::sleep(INTERVAL);
                    // Nothing was paused while the request held the gate.
                    let elapsed = gate.now_s() - before;
                    assert!(elapsed >= INTERVAL.as_secs_f64(), "{elapsed}");
                }
            },
        );
        // The sampler got in between requests, and neither its yardstick
        // runs nor what it did between them count as work.
        assert_eq!(gate.requests(), 3);
        assert!(!host.samples.is_empty());
        assert_eq!(betweens, host.samples.len());
        let paused = Duration::from_nanos(gate.paused_ns.load(Ordering::Relaxed));
        assert!(paused >= INTERVAL * betweens as u32, "{paused:?}");
    }

    #[test]
    fn the_yardstick_leaves_the_work_clock_alone() {
        let mut h = HostSpeed::spot();
        assert_eq!(h.samples.len(), SPOT_SAMPLES);
        assert!(h.samples.iter().all(|&(_, us)| us > 0.0));
        // Yardstick runs and nothing else: almost no work time passes.
        let before = h.now_s();
        for _ in 0..5 {
            h.sample();
        }
        assert!(h.now_s() - before < 0.001, "{}", h.now_s() - before);
        h.tick();
        assert_eq!(
            h.samples.len(),
            SPOT_SAMPLES + 5,
            "ran again within INTERVAL"
        );
    }
}
