//! **Table 8**: MBA-Solver's own time and memory cost as input
//! complexity (MBA alternation) grows.
//!
//! Expressions are generated at target alternation levels 10/20/30/40;
//! for each level we report mean simplification time and mean peak heap
//! growth per expression, measured by a counting global allocator.

use std::time::Instant;

use mba_bench::alloc_meter::{self, CountingAllocator};
use mba_bench::ExperimentConfig;
use mba_expr::{metrics::alternation, Expr};
use mba_gen::{ObfuscationKind, Obfuscator};
use mba_solver::Simplifier;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn main() {
    let config = ExperimentConfig::from_env();
    println!("Table 8: MBA-Solver overhead vs input MBA alternation");
    println!("({})\n", config.banner());

    let per_level = config.per_category.clamp(10, 200);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let obfuscator = Obfuscator::new();
    let targets = [10usize, 20, 30, 40];

    println!(
        "{:<24} {:>12} {:>14} {:>12}",
        "Alternation (target±3)", "samples", "time (ms)", "memory (KB)"
    );

    for &target in &targets {
        // Generate expressions whose measured alternation lands near the
        // target by re-drawing with progressively heavier knobs.
        let mut inputs: Vec<Expr> = Vec::new();
        let mut attempts = 0usize;
        while inputs.len() < per_level && attempts < per_level * 400 {
            attempts += 1;
            let kind = if target <= 15 {
                ObfuscationKind::Linear
            } else {
                ObfuscationKind::NonPolynomial
            };
            let truth: Expr = ["x+y", "x-y+z", "x^y", "2*x+y"][attempts % 4]
                .parse()
                .expect("parses");
            let candidate = obfuscator.obfuscate(&truth, kind, &mut rng);
            let alt = alternation(&candidate);
            if alt.abs_diff(target) <= 3 {
                inputs.push(candidate);
            }
        }
        if inputs.is_empty() {
            println!("{target:<24} {:>12} (no expressions at this level)", 0);
            continue;
        }

        // Fresh simplifier per level: the lookup table should not carry
        // work across levels.
        let simplifier = Simplifier::new();
        let mut total_ms = 0.0f64;
        let mut total_peak_kb = 0.0f64;
        for e in &inputs {
            let baseline = alloc_meter::reset_peak();
            let start = Instant::now();
            let out = simplifier.simplify(e);
            total_ms += start.elapsed().as_secs_f64() * 1000.0;
            total_peak_kb += alloc_meter::peak_since(baseline) as f64 / 1024.0;
            std::hint::black_box(out);
        }
        println!(
            "{:<24} {:>12} {:>14.3} {:>12.1}",
            target,
            inputs.len(),
            total_ms / inputs.len() as f64,
            total_peak_kb / inputs.len() as f64,
        );
    }
}
