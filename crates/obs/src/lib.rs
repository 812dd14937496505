//! `mba-obs`: the pipeline observability layer.
//!
//! The paper's evaluation rests on *per-stage* cost claims — signature
//! extraction, basis solving, and polynomial reduction are each argued
//! to be cheap relative to SMT solving — so the reproduction needs a
//! way to see inside the simplifier, the shared signature cache, and
//! the serving layer without perturbing what it measures. This crate
//! is that layer, and it deliberately has **zero dependencies** (std
//! only) so every other crate in the workspace can use it.
//!
//! Three pieces:
//!
//! 1. **Instruments** ([`Counter`], [`Gauge`], [`Histogram`]) — plain
//!    atomics. The hot path is a handful of `Relaxed` atomic ops on
//!    pre-resolved handles; no lock is ever taken while recording.
//!    Histograms use fixed log2 buckets (bucket *i* ≥ 1 covers
//!    `[2^(i-1), 2^i)`), which is exact enough for latency work and
//!    keeps recording branch-free.
//! 2. **[`MetricsRegistry`]** — a named get-or-register directory of
//!    instruments. Registration takes a lock (cold path, once per
//!    metric); steady-state callers hold `Arc` handles. Labeled timing
//!    spans ([`MetricsRegistry::span`], [`Histogram::time`]) record
//!    elapsed microseconds on drop.
//! 3. **[`Snapshot`]** — a deterministic, serializable capture of every
//!    instrument. [`Snapshot::since`] diffs two captures (the standard
//!    way to report per-batch activity against long-lived registries),
//!    [`Snapshot::filter_prefix`] selects sub-trees (e.g. only the
//!    scheduling-independent `core.result.*` counters for byte-identity
//!    tests), and [`Snapshot::render_json`] emits canonical JSON with
//!    no floats — so a snapshot can never smuggle `NaN`/`Infinity`
//!    into a `BENCH_*.json` file.
//!
//! The [`json`] module carries the workspace's hand-rolled JSON value
//! parser (shared with `mba-serve`'s wire protocol and the bench
//! report validators); the build environment is offline, so there is
//! no JSON crate to lean on.
//!
//! # Metric naming scheme
//!
//! Dotted lowercase paths, coarse-to-fine: `<crate>.<subsystem>.<name>`
//! with histograms additionally suffixed by their unit
//! (`core.stage.signature.micros`, `serve.queue.wait.micros`).
//! Counters under `core.result.*` are **deterministic**: they are pure
//! functions of the input corpus, independent of worker count and cache
//! scheduling, and are pinned byte-identical across `--jobs 1/0/64`.

pub mod json;
mod metrics;
mod snapshot;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, MetricsRegistry, OwnedSpan, Span,
    HISTOGRAM_BUCKETS,
};
pub use snapshot::{HistogramSnapshot, Snapshot};
