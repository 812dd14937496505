//! Criterion bench: time-side ablation of MBA-Solver's design choices
//! on a fixed mini-corpus (quality side lives in the
//! `ablation_quality` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mba_gen::{Corpus, CorpusConfig};
use mba_solver::{Basis, Simplifier, SimplifyConfig};

fn mini_corpus() -> Corpus {
    Corpus::generate(&CorpusConfig {
        seed: 99,
        per_category: 8,
    })
}

fn bench_config_variants(c: &mut Criterion) {
    let corpus = mini_corpus();
    let variants: Vec<(&str, SimplifyConfig)> = vec![
        ("full", SimplifyConfig::default()),
        (
            "no-final-step",
            SimplifyConfig {
                final_step: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "no-lookup-table",
            SimplifyConfig {
                use_cache: false,
                ..SimplifyConfig::default()
            },
        ),
        (
            "or-basis",
            SimplifyConfig {
                basis: Basis::Or,
                ..SimplifyConfig::default()
            },
        ),
        (
            "adaptive-basis",
            SimplifyConfig {
                basis: Basis::Adaptive,
                ..SimplifyConfig::default()
            },
        ),
        (
            "single-round",
            SimplifyConfig {
                max_rounds: 1,
                ..SimplifyConfig::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation/simplify-corpus");
    group.sample_size(20);
    for (name, config) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter_batched(
                || Simplifier::with_config(config.clone()),
                |s| {
                    for sample in corpus.samples() {
                        std::hint::black_box(s.simplify(&sample.obfuscated));
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_config_variants);
criterion_main!(benches);
