//! Differential tests: the signature cache and the batch API are pure
//! accelerations — they must never change a single output byte.
//!
//! Uses the same 75-sample preview corpus as the Table 6 preview
//! (seed 2024, 25 samples per category), comparing, over every sample
//! and several configurations:
//!
//! - cache-on vs cache-off (`SimplifyConfig::use_cache`);
//! - `Simplifier::simplify_batch` vs a sequential
//!   `simplify_detailed` loop, at several worker counts;
//! - a shared `Arc<SigCache>` across independent simplifiers.

use std::sync::Arc;

use mba_expr::Expr;
use mba_gen::{Corpus, CorpusConfig};
use mba_sig::SigCache;
use mba_solver::{Basis, Simplified, Simplifier, SimplifyConfig};

fn preview_corpus() -> Vec<Expr> {
    Corpus::generate(&CorpusConfig {
        seed: 2024,
        per_category: 25,
    })
    .samples()
    .iter()
    .map(|s| s.obfuscated.clone())
    .collect()
}

/// Rendered output strings of a sequential run under `config`.
fn sequential_outputs(config: &SimplifyConfig, exprs: &[Expr]) -> Vec<String> {
    let simplifier = Simplifier::with_config(config.clone());
    exprs
        .iter()
        .map(|e| simplifier.simplify(e).to_string())
        .collect()
}

fn render(results: &[Simplified]) -> Vec<String> {
    results.iter().map(|r| r.output.to_string()).collect()
}

#[test]
fn cache_on_and_cache_off_are_byte_identical() {
    let exprs = preview_corpus();
    for basis in [Basis::And, Basis::Or, Basis::Adaptive] {
        let on = sequential_outputs(
            &SimplifyConfig {
                use_cache: true,
                basis,
                ..SimplifyConfig::default()
            },
            &exprs,
        );
        let off = sequential_outputs(
            &SimplifyConfig {
                use_cache: false,
                basis,
                ..SimplifyConfig::default()
            },
            &exprs,
        );
        for (i, (a, b)) in on.iter().zip(&off).enumerate() {
            assert_eq!(
                a, b,
                "cache changed output of sample {i} under {basis:?}: `{}`",
                exprs[i]
            );
        }
    }
}

#[test]
fn batch_matches_sequential_on_the_preview_corpus() {
    let exprs = preview_corpus();
    assert_eq!(exprs.len(), 75, "preview corpus scale changed");
    let reference = sequential_outputs(&SimplifyConfig::default(), &exprs);

    let batch_solver = Simplifier::new();
    let batched = batch_solver.simplify_batch(&exprs);
    assert_eq!(batched.len(), exprs.len());
    assert_eq!(
        render(&batched),
        reference,
        "simplify_batch diverged from the sequential loop"
    );
    assert!(
        batch_solver.sig_cache().stats().hits > 0,
        "the preview corpus must produce signature-cache hits"
    );
}

#[test]
fn batch_output_is_independent_of_worker_count() {
    let exprs = preview_corpus();
    let reference = render(&Simplifier::new().simplify_batch_with_jobs(&exprs, 1));
    for jobs in [2, 3, 8, 64] {
        let run = render(&Simplifier::new().simplify_batch_with_jobs(&exprs, jobs));
        assert_eq!(run, reference, "jobs={jobs} changed outputs");
    }
}

#[test]
fn batch_reports_rounds_and_metrics_identically() {
    // Not only the rendered output: the full Simplified record (rounds,
    // bail-outs, metrics) must match the sequential path.
    let exprs = preview_corpus();
    let sequential = Simplifier::new();
    let seq: Vec<Simplified> = exprs
        .iter()
        .map(|e| sequential.simplify_detailed(e))
        .collect();
    let batched = Simplifier::new().simplify_batch_with_jobs(&exprs, 4);
    for (i, (s, b)) in seq.iter().zip(&batched).enumerate() {
        assert_eq!(s.output, b.output, "sample {i} output");
        assert_eq!(s.rounds, b.rounds, "sample {i} rounds");
        assert_eq!(s.bailed, b.bailed, "sample {i} bailed");
        assert_eq!(
            s.output_metrics.alternation, b.output_metrics.alternation,
            "sample {i} alternation"
        );
    }
}

#[test]
fn shared_cache_across_simplifiers_is_transparent() {
    let exprs = preview_corpus();
    let reference = sequential_outputs(&SimplifyConfig::default(), &exprs);
    let cache = Arc::new(SigCache::new());
    // Two simplifiers over the same cache, run one after the other: the
    // second sees a fully warm cache and must still agree byte-for-byte.
    for round in 0..2 {
        let simplifier = Simplifier::with_cache(SimplifyConfig::default(), Arc::clone(&cache));
        let outputs = render(&simplifier.simplify_batch_with_jobs(&exprs, 4));
        assert_eq!(outputs, reference, "round {round} diverged");
    }
    let stats = cache.stats();
    assert!(
        stats.hits > stats.misses,
        "warm second pass should be hit-dominated: {stats}"
    );
}

#[test]
fn batch_handles_empty_and_single_inputs() {
    let simplifier = Simplifier::new();
    assert!(simplifier.simplify_batch(&[]).is_empty());
    let one: Vec<Expr> = vec!["x + y - 2*(x&y)".parse().unwrap()];
    let results = simplifier.simplify_batch_with_jobs(&one, 16);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].output.to_string(), "x^y");
}
