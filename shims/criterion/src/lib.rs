//! Offline, API-compatible subset of `criterion`.
//!
//! Implements the benchmark-definition surface the workspace's benches
//! use — `criterion_group!` / `criterion_main!`, `Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, `Bencher::iter` / `iter_batched`, `black_box` — with a
//! simple measurement loop instead of criterion's statistical engine:
//! each benchmark is warmed up once, then timed over a fixed iteration
//! budget, and the mean is printed as
//! `bench: <group>/<id> ... <mean> per iter (<iters> iters)`.
//!
//! Set `CRITERION_SHIM_ITERS` to change the measured iteration count
//! (default 30; CI can set 1 for a smoke pass).

#![forbid(unsafe_code)]

use std::fmt::{self, Display};
use std::hint;
use std::time::{Duration, Instant};

/// Re-export point so `criterion::BatchSize::SmallInput` resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs (the only variant the workspace uses;
    /// the shim treats all variants identically).
    SmallInput,
    /// Larger inputs.
    LargeInput,
    /// One batch per sample.
    PerIteration,
}

/// An opaque benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// `group/function` style id.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{function}/{parameter}"))
    }

    /// Id rendered from a parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Prevents the optimizer from deleting a computed value.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

fn shim_iters() -> u64 {
    std::env::var("CRITERION_SHIM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &u64| n > 0)
        .unwrap_or(30)
}

/// The per-benchmark measurement handle.
pub struct Bencher {
    iters: u64,
    /// Mean time per iteration of the measured routine.
    elapsed: Option<Duration>,
}

impl Bencher {
    /// Times `routine` over the iteration budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // One warm-up call outside the timed window.
        black_box(routine());
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = Some(start.elapsed() / self.iters as u32);
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let mut total = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.elapsed = Some(total / self.iters as u32);
    }
}

fn run_one(label: &str, iters: u64, f: impl FnOnce(&mut Bencher)) {
    let mut bencher = Bencher {
        iters,
        elapsed: None,
    };
    f(&mut bencher);
    match bencher.elapsed {
        Some(mean) => println!("bench: {label} ... {mean:?} per iter ({iters} iters)"),
        None => println!("bench: {label} ... no measurement recorded"),
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    iters: u64,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.iters = (n as u64).max(1);
        self
    }

    /// Allows longer measurement windows (accepted, ignored).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks a closure under `id` within this group.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into());
        run_one(&label, self.iters, f);
        self
    }

    /// Benchmarks a closure over a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id.into());
        run_one(&label, self.iters, |b| f(b, input));
        self
    }

    /// Ends the group (printing is immediate, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
pub struct Criterion {
    iters: u64,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            iters: shim_iters(),
        }
    }
}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            iters: self.iters,
            _criterion: self,
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        run_one(name, self.iters, f);
        self
    }

    /// Parses CLI arguments (accepted, ignored — the shim has none).
    pub fn configure_from_args(self) -> Self {
        self
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_records_a_measurement() {
        let mut b = Bencher {
            iters: 3,
            elapsed: None,
        };
        b.iter(|| 1 + 1);
        assert!(b.elapsed.is_some());
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let mut b = Bencher {
            iters: 2,
            elapsed: None,
        };
        b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.elapsed.is_some());
    }

    #[test]
    fn ids_render() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }
}
