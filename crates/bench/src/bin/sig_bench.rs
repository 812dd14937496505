//! **Signature-extraction microbenchmark**: scalar tree-walking truth
//! tables vs the bit-parallel batch evaluation engine, and the SiMBA
//! corner-recovery fast path vs the classic basis solve.
//!
//! For each variable count `t` in `2..=max_vars` the bench builds one
//! deterministic pure-bitwise expression over `v0..v{t-1}`, extracts its
//! truth table with both [`TruthTable::of_scalar`] (one tree walk per
//! row) and [`TruthTable::of`] (one tape pass per 64 rows), checks the
//! two tables are identical, and reports rows/second for each path plus
//! the speedup. A second section builds one deterministic *linear* MBA
//! per `t` and times two ways of recovering its ∧-basis coefficients:
//! the SiMBA fast path (`2^t` corner evaluations + Möbius inversion,
//! [`mba_sig::simba::recover_coefficients`]) against the classic basis
//! solve ([`SignatureVector::solve_in_basis`] over the full ∧-basis —
//! a `2^t × 2^t` rational linear system, the approach the fast path
//! displaces), after checking both recover the same coefficients and
//! that the fast route renders byte-identical to `to_normalized_expr`.
//! A simplifier pass over the same corpus reports the fast-path hit
//! rate from the process-global counters. Results land in
//! `BENCH_sig.json` for `check_bench_json` and CI trend diffing.
//!
//! Per variable count the report also carries the hash-consed arena's
//! warm-lookup column (`tNN_interned_rows_per_s` — an id-keyed
//! [`mba_sig::SigCache::table_of_id`] hit, i.e. what a repeat skeleton
//! costs once interning has seen it — plus `tNN_interned_speedup` over
//! recomputing the table), a `tNN_cycles_per_task` estimate (elapsed ×
//! the `/proc/cpuinfo` clock estimate), and the exact
//! `tNN_instrs_per_task` tape-op count (`program.len() × ⌈2^t/64⌉`).
//! After the simplifier pass, arena interning totals (`arena_nodes`,
//! `interned_hits`, `interning_hit_rate`, `arena_bytes`) land in the
//! report and, via [`mba_sig::publish_arena_metrics`], in the obs
//! registry.
//!
//! A final synthesis-tier section measures the candidate-evaluation
//! engine (wide [`EvalProgram::eval_bits_wide`] blocks of 256 rows vs
//! four narrow `eval_bits` passes over the same candidate-sized tapes:
//! `synth_{narrow,wide}_rows_per_s`, `synth_wide_speedup`) and runs the
//! full simplifier over a residual corpus — parity opaque zeros the
//! algebraic tiers cannot cancel — reporting the `synth.*` counter
//! deltas, `synth_candidates_per_s`, and the recovery rate: the
//! fraction of corpus entries the algebraic pipeline left unreduced
//! (synthesis off) for which the synthesis tier found a strictly
//! smaller equivalent.
//!
//! A BDD section sweeps `t = 8..=16` independently of `--max-vars`:
//! per `t` it times the ROBDD canonicalization route (Expr → BDD →
//! Expr, [`mba_bdd::canonicalize`]) in truth-table-equivalent rows/sec
//! (`tNN_bdd_rows_per_s` — `2^t` rows per call), demonstrating the
//! column that keeps going after the `2^t`-row tiers stop at `t = 12`.
//! The `bdd.{nodes,apply_hits,canonicalizations}` counter deltas land
//! in the report and, via [`mba_bdd::publish_bdd_metrics`], in the obs
//! registry.
//!
//! The binary exits non-zero if the engine counters report zero tape
//! compiles — i.e. if the bit-parallel path silently stopped being
//! exercised — if the simplifier pass records a zero fast-path hit
//! rate, if the arena records zero interning hits, if the wide
//! candidate evaluator fails to beat the narrow interpreter by 2x, if
//! the synthesis pass records no accepted substitution, if the
//! residual recovery rate falls below 30%, if the BDD sweep records
//! zero canonicalizations, or if the BDD column fails to post a
//! positive finite rate at `t = 12` (the last size the truth-table
//! tiers can still reach).

use std::time::Instant;

use mba_bdd::{bdd_stats, publish_bdd_metrics};
use mba_bench::report::BenchReport;
use mba_expr::{BinOp, EvalProgram, Expr, ExprArena, Ident, UnOp, WIDE_LANES};
use mba_gen::{Corpus, CorpusConfig};
use mba_sig::{
    publish_arena_metrics, publish_eval_engine_metrics, simba, SigCache, SignatureVector,
    TruthTable,
};
use mba_solver::{Simplifier, SimplifyConfig};
use mba_synth::{publish_synth_metrics, synth_stats};

/// Bench-local knobs (the shared [`mba_bench::ExperimentConfig`] flags
/// are corpus-oriented and do not fit a microbenchmark).
struct SigBenchConfig {
    /// Timing repetitions per variable count (`--repeats`).
    repeats: usize,
    /// Largest variable count measured (`--max-vars`, 2..=12).
    max_vars: usize,
}

impl SigBenchConfig {
    fn parse(args: &[String]) -> Result<SigBenchConfig, String> {
        let mut config = SigBenchConfig {
            repeats: 3,
            max_vars: 12,
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                iter.next()
                    .ok_or_else(|| format!("{name} requires a value\n{}", Self::usage()))
            };
            match flag.as_str() {
                "--repeats" => {
                    config.repeats = parse_num(take("--repeats")?)?;
                    if config.repeats == 0 {
                        return Err("--repeats must be positive".into());
                    }
                }
                "--max-vars" => {
                    config.max_vars = parse_num(take("--max-vars")?)?;
                    if !(2..=12).contains(&config.max_vars) {
                        return Err("--max-vars must be in 2..=12".into());
                    }
                }
                "--help" | "-h" => return Err(Self::usage()),
                other => return Err(format!("unknown flag `{other}`\n{}", Self::usage())),
            }
        }
        Ok(config)
    }

    fn usage() -> String {
        "usage: sig_bench [--repeats N] [--max-vars 2..=12]".to_string()
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed numeric value `{s}`"))
}

/// A deterministic pure-bitwise expression over `vars` with a few
/// operators per variable, cycling through `&`, `^`, `|`, and `~` so
/// every tape opcode is exercised.
fn bench_expr(vars: &[Ident]) -> Expr {
    let mut e = Expr::var(vars[0].as_str());
    for (i, v) in vars.iter().enumerate().skip(1) {
        let v = Expr::var(v.as_str());
        let prev = Expr::var(vars[i - 1].as_str());
        e = match i % 3 {
            0 => Expr::binary(BinOp::And, e, Expr::binary(BinOp::Or, v, prev)),
            1 => Expr::binary(BinOp::Xor, e, Expr::unary(UnOp::Not, v)),
            _ => Expr::binary(BinOp::Or, e, Expr::binary(BinOp::Xor, v, prev)),
        };
    }
    e
}

/// A deterministic linear MBA over `vars`: `2t` bitwise terms with
/// cycling coefficients plus a constant — the shape obfuscated linear
/// expressions actually take, so the route comparison below measures
/// realistic per-term fan-out on the basis side.
fn bench_linear_expr(vars: &[Ident]) -> Expr {
    let t = vars.len();
    let mut terms: Vec<(i128, Expr)> = Vec::new();
    for i in 0..2 * t {
        let a = Expr::var(vars[i % t].as_str());
        let b = Expr::var(vars[(i + 1) % t].as_str());
        let term = match i % 4 {
            0 => Expr::binary(BinOp::And, a, b),
            1 => Expr::binary(BinOp::Or, a, Expr::unary(UnOp::Not, b)),
            2 => Expr::binary(BinOp::Xor, a, b),
            _ => Expr::unary(UnOp::Not, Expr::binary(BinOp::And, a, b)),
        };
        terms.push(((i as i128 % 7) - 3, term));
    }
    terms.push((5, Expr::one()));
    mba_sig::linear_combination(&terms)
}

/// The full ∧-basis over `vars` in the row-index subset order of
/// `recover_coefficients` (bit `t−1−j` selects variable `j`): every
/// non-empty conjunction, then the `−1` constant column.
fn and_basis(t: usize, vars: &[Ident]) -> Vec<Expr> {
    let mut basis = Vec::with_capacity(1 << t);
    for s in 1usize..(1 << t) {
        let mut e: Option<Expr> = None;
        for (j, var) in vars.iter().enumerate().take(t) {
            if s & (1 << (t - 1 - j)) != 0 {
                let v = Expr::var(var.as_str());
                e = Some(match e {
                    None => v,
                    Some(prev) => Expr::binary(BinOp::And, prev, v),
                });
            }
        }
        basis.push(e.expect("s is non-empty"));
    }
    basis.push(Expr::Const(-1));
    basis
}

/// Times `f` over `iters` calls and returns calls/second.
fn calls_per_second<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = start.elapsed().as_secs_f64();
    iters as f64 / elapsed.max(1e-9)
}

/// Times `f` over `iters` calls and returns rows/second for a table of
/// `rows` rows.
fn rows_per_second(rows: usize, iters: usize, mut f: impl FnMut() -> TruthTable) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let elapsed = start.elapsed().as_secs_f64();
    (rows * iters) as f64 / elapsed.max(1e-9)
}

/// Best-effort CPU clock estimate in Hz from `/proc/cpuinfo`, for the
/// `tNN_cycles_per_task` columns. Falls back to a finite nominal 1 GHz
/// when the pseudo-file is unavailable or unparseable (containers, or
/// non-Linux hosts), so the report never carries NaN/Infinity.
fn cpu_hz_estimate() -> f64 {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("cpu MHz") {
            if let Some(value) = rest.split(':').nth(1) {
                if let Ok(mhz) = value.trim().parse::<f64>() {
                    if mhz.is_finite() && mhz > 0.0 {
                        return mhz * 1e6;
                    }
                }
            }
        }
    }
    1e9
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match SigBenchConfig::parse(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };

    println!("Signature extraction: scalar vs bit-parallel truth tables");
    println!(
        "(repeats={} max-vars={})\n",
        config.repeats, config.max_vars
    );
    println!(
        "{:<6} {:>8} {:>16} {:>16} {:>8} {:>16} {:>8}",
        "vars", "rows", "scalar rows/s", "batch rows/s", "speedup", "interned rows/s", "warm-x"
    );

    let mut report = BenchReport::new("sig");
    report.push_int("repeats", config.repeats as u64);
    report.push_int("max_vars", config.max_vars as u64);

    let cpu_hz = cpu_hz_estimate();
    report.push_float("cpu_hz_estimate", cpu_hz);

    // One arena + id-keyed cache shared across the whole sweep: the
    // interned column measures what a *repeat* skeleton costs once
    // hash-consing has seen its shape — an id lookup plus an Arc clone,
    // no tape pass at all.
    let bench_arena = ExprArena::new();
    let bench_cache = SigCache::new();
    for t in 2..=config.max_vars {
        let vars: Vec<Ident> = (0..t).map(|i| Ident::new(format!("v{i:02}"))).collect();
        let e = bench_expr(&vars);
        let rows = 1usize << t;

        // The two paths must agree before their speed is worth
        // comparing.
        let fast = TruthTable::of(&e, &vars).expect("bench expression is pure bitwise");
        let slow = TruthTable::of_scalar(&e, &vars).expect("bench expression is pure bitwise");
        assert_eq!(
            fast, slow,
            "bit-parallel and scalar truth tables diverge at t={t}"
        );

        // Scale iterations inversely with table size so each
        // measurement covers a comparable row volume.
        let iters = config.repeats * (4096 / rows).max(1);
        let scalar = rows_per_second(rows, iters, || {
            TruthTable::of_scalar(&e, &vars).expect("pure bitwise")
        });
        let batch = rows_per_second(rows, iters, || {
            TruthTable::of(&e, &vars).expect("pure bitwise")
        });
        let speedup = batch / scalar.max(1e-9);

        // Warm id-keyed lookup: intern once, prime the cache entry,
        // then time pure hits. Each hit is sub-microsecond, so use a
        // larger fixed iteration budget than the recompute paths.
        let id = bench_arena.intern(&e);
        let warm = bench_cache
            .table_of_id(&bench_arena, id, &vars)
            .expect("bench expression is pure bitwise");
        assert_eq!(*warm, fast, "cached table diverges at t={t}");
        let warm_iters = config.repeats * 4096;
        let interned_calls = calls_per_second(warm_iters, || {
            bench_cache
                .table_of_id(&bench_arena, id, &vars)
                .expect("pure bitwise")
        });
        let interned = interned_calls * rows as f64;
        let warm_speedup = interned / batch.max(1e-9);

        // Cost-model columns for the recompute path: estimated cycles
        // per truth-table extraction (elapsed × the clock estimate) and
        // the exact tape-op count it executes (`len × ⌈rows/64⌉`
        // bit-parallel instruction dispatches).
        let cycles_per_task = (rows as f64 / batch.max(1e-9)) * cpu_hz;
        let instrs_per_task = (EvalProgram::compile(&e).len() * rows.div_ceil(64)) as u64;

        println!(
            "{t:<6} {rows:>8} {scalar:>16.0} {batch:>16.0} {speedup:>7.1}x {interned:>16.0} {warm_speedup:>7.1}x"
        );
        report.push_float(&format!("t{t:02}_scalar_rows_per_s"), scalar);
        report.push_float(&format!("t{t:02}_batch_rows_per_s"), batch);
        report.push_float(&format!("t{t:02}_speedup"), speedup);
        report.push_float(&format!("t{t:02}_interned_rows_per_s"), interned);
        report.push_float(&format!("t{t:02}_interned_speedup"), warm_speedup);
        report.push_float(&format!("t{t:02}_cycles_per_task"), cycles_per_task);
        report.push_int(&format!("t{t:02}_instrs_per_task"), instrs_per_task);
    }

    // ── BDD canonicalization sweep ──────────────────────────────────
    //
    // Independent of `--max-vars`: the point of this column is exactly
    // that it keeps going where the `2^t`-row tiers stop. Per `t` one
    // canonicalization call covers the whole `2^t`-row semantic space,
    // so calls/s × 2^t is directly comparable to the truth-table
    // rows/s columns above — and for `t ≤ 12` both columns exist side
    // by side in the same report.
    println!("\nBDD canonicalization: Expr -> ROBDD -> Expr, t = 8..=16");
    println!(
        "{:<6} {:>12} {:>16} {:>16}",
        "vars", "rows", "bdd rows/s", "table rows/s"
    );
    let bdd_before = bdd_stats();
    let mut t12_bdd_rows_per_s = f64::NAN;
    for t in 8..=16usize {
        let vars: Vec<Ident> = (0..t).map(|i| Ident::new(format!("v{i:02}"))).collect();
        let e = bench_expr(&vars);
        let rows = 1usize << t;

        // The route must be exact before it is worth timing: at table
        // reach, Expr → BDD → Expr and the truth table must agree. The
        // bench chain's *diagram* stays linear in `t` but its rendered
        // expression does not, so the sweep raises the render budget
        // past the pipeline tier's conservative default.
        let canonicalize =
            |e: &Expr| mba_bdd::canonicalize_limited(e, mba_bdd::DEFAULT_NODE_LIMIT, 1 << 16);
        let rendered = canonicalize(&e).expect("bench expression is pure bitwise");
        if t <= 12 {
            let table = TruthTable::of(&e, &vars).expect("pure bitwise");
            let rendered_table = TruthTable::of(&rendered, &vars).expect("render is pure bitwise");
            assert_eq!(table, rendered_table, "BDD round-trip diverges at t={t}");
        }

        let iters = config.repeats * 8;
        let bdd_calls = calls_per_second(iters, || canonicalize(&e).expect("pure bitwise"));
        let bdd_rows = bdd_calls * rows as f64;
        if t == 12 {
            t12_bdd_rows_per_s = bdd_rows;
        }
        report.push_float(&format!("t{t:02}_bdd_rows_per_s"), bdd_rows);
        if t <= 12 {
            let table_iters = config.repeats * (4096 / rows).max(1);
            let table_rows = rows_per_second(rows, table_iters, || {
                TruthTable::of(&e, &vars).expect("pure bitwise")
            });
            println!("{t:<6} {rows:>12} {bdd_rows:>16.0} {table_rows:>16.0}");
        } else {
            // Past the cap the table column has nothing to post — the
            // BDD column is the only one still standing.
            println!("{t:<6} {rows:>12} {bdd_rows:>16.0} {:>16}", "-");
        }
    }
    let bdd_delta = bdd_stats().since(&bdd_before);
    println!(
        "bdd: {} nodes interned, {} apply hits, {} canonicalizations",
        bdd_delta.nodes, bdd_delta.apply_hits, bdd_delta.canonicalizations
    );
    report.push_int("bdd_nodes", bdd_delta.nodes);
    report.push_int("bdd_apply_hits", bdd_delta.apply_hits);
    report.push_int("bdd_canonicalizations", bdd_delta.canonicalizations);

    // SiMBA route comparison: corner recovery (2^t evaluations +
    // Möbius) vs the classic basis solve (a 2^t × 2^t rational linear
    // system over the full ∧-basis). Both must recover the same
    // coefficients — and the fast route must render byte-identical to
    // the normalized expression — before speed means anything.
    println!("\nCoefficient recovery: SiMBA corner route vs classic basis solve");
    println!(
        "{:<6} {:>8} {:>16} {:>16} {:>10}",
        "vars", "terms", "simba solves/s", "basis solves/s", "speedup"
    );
    // Beyond this the rational Gaussian elimination (O(8^t)) runs for
    // minutes-to-hours per solve; the corner route keeps being timed,
    // the baseline columns are dropped and announced, not silently
    // truncated.
    const MAX_BASIS_SOLVE_VARS: usize = 8;
    let mut linear_corpus = Vec::new();
    for t in 2..=config.max_vars {
        let vars: Vec<Ident> = (0..t).map(|i| Ident::new(format!("v{i:02}"))).collect();
        let e = bench_linear_expr(&vars);

        let sig = SignatureVector::of_linear(&e, &vars).expect("linear by construction");
        let fast = simba::simplify_linear(&e, &vars, 64).expect("linear");
        assert_eq!(
            fast.to_string(),
            sig.to_normalized_expr(&vars).to_string(),
            "fast route render diverges from normalization at t={t}"
        );

        let simba_iters = config.repeats * (1024 / (1usize << t).min(1024)).max(1);
        let simba_rate = calls_per_second(simba_iters, || {
            simba::recover_coefficients(&e, &vars, 64).expect("linear")
        });
        report.push_float(&format!("t{t:02}_simba_per_s"), simba_rate);
        linear_corpus.push(e.clone());

        if t > MAX_BASIS_SOLVE_VARS {
            println!(
                "{t:<6} {:>8} {simba_rate:>16.0} {:>16} {:>10}",
                2 * t + 1,
                "-",
                "-"
            );
            continue;
        }

        let basis = and_basis(t, &vars);
        let solved = sig
            .solve_in_basis(&basis, &vars)
            .expect("∧-basis is pure bitwise")
            .expect("∧-basis is unimodular, always solves");
        let recovered = simba::recover_coefficients(&e, &vars, 64).expect("linear by construction");
        // `solve_in_basis` orders coefficients by basis element
        // (subsets 1.., then −1); `recover_coefficients` puts the −1
        // column at index 0.
        for (s, &c) in recovered.iter().enumerate() {
            let classic = if s == 0 {
                solved[basis.len() - 1]
            } else {
                solved[s - 1]
            };
            assert_eq!(
                simba::reduce(c, 64),
                simba::reduce(classic, 64),
                "routes recover different coefficients at t={t}, subset {s}"
            );
        }

        // Calibrate the baseline's iteration count off one observed
        // solve so the largest sizes stay affordable.
        let start = Instant::now();
        std::hint::black_box(sig.solve_in_basis(&basis, &vars).unwrap().unwrap());
        let one = start.elapsed().as_secs_f64();
        let basis_iters = ((0.25 * config.repeats as f64 / one.max(1e-7)) as usize)
            .clamp(config.repeats, 512 * config.repeats);
        let basis_rate = calls_per_second(basis_iters, || {
            sig.solve_in_basis(&basis, &vars).unwrap().unwrap()
        });
        let speedup = simba_rate / basis_rate.max(1e-9);

        println!(
            "{t:<6} {:>8} {simba_rate:>16.0} {basis_rate:>16.1} {speedup:>9.1}x",
            2 * t + 1
        );
        report.push_float(&format!("t{t:02}_basis_per_s"), basis_rate);
        report.push_float(&format!("t{t:02}_simba_speedup"), speedup);
    }
    if config.max_vars > MAX_BASIS_SOLVE_VARS {
        println!(
            "(basis-solve baseline capped at t={MAX_BASIS_SOLVE_VARS}: \
             rational elimination over 2^t x 2^t explodes beyond it)"
        );
    }

    // Fast-path hit rate through the full simplifier, from the same
    // process-global counters the pipeline publishes over obs. Every
    // corpus entry is linear, so anything below 1.0 means eligible
    // candidates leaked onto the slow route.
    let before = simba::simba_stats();
    let simplifier = Simplifier::new();
    for e in &linear_corpus {
        std::hint::black_box(simplifier.simplify(e));
    }
    let delta = simba::simba_stats().since(&before);
    let hit_rate = delta.hit_rate();
    println!(
        "\nfast path: {} attempts, {} hits, {} fallbacks (hit rate {:.2})",
        delta.attempts, delta.hits, delta.fallbacks, hit_rate
    );
    report.push_int("simba_attempts", delta.attempts);
    report.push_int("simba_hits", delta.hits);
    report.push_float("simba_hit_rate", hit_rate);

    // Hash-consing totals from the simplifier's own arena over the same
    // corpus: every intern is either a fresh node or a hit on an
    // existing id, so `hits / (hits + nodes)` is the fraction of intern
    // traffic the arena served for free.
    let arena_stats = simplifier.arena().stats();
    let intern_traffic = arena_stats.interned_hits + arena_stats.nodes;
    let interning_hit_rate = arena_stats.interned_hits as f64 / (intern_traffic.max(1)) as f64;
    println!(
        "arena: {} nodes, {} interned hits (hit rate {:.2}), {} bytes",
        arena_stats.nodes, arena_stats.interned_hits, interning_hit_rate, arena_stats.bytes
    );
    report.push_int("arena_nodes", arena_stats.nodes);
    report.push_int("interned_hits", arena_stats.interned_hits);
    report.push_float("interning_hit_rate", interning_hit_rate);
    report.push_int("arena_bytes", arena_stats.bytes);

    // ── Synthesis tier ──────────────────────────────────────────────
    //
    // Candidate-evaluation microbench: the enumerator's pools hold
    // candidate tapes of a handful of ops, so per-call overhead (stack
    // alloc, counter bumps) is a real fraction of each pass. The wide
    // interpreter amortizes it over 4 lanes — 256 truth-table rows per
    // call against `eval_bits`' 64 — and its inner loops
    // autovectorize. Both paths cover the same 256 rows per candidate
    // so the rows/s columns are directly comparable.
    println!("\nSynthesis candidate evaluation: narrow (64-row) vs wide (256-row) passes");
    let candidates: Vec<Expr> = [
        "x", "~x", "x&y", "x^y", "x+y", "x*y+z", "~(x&y)^z", "x+y+z", "(x|y)&~z", "x*(y+z)",
    ]
    .iter()
    .map(|s| s.parse().expect("candidate parses"))
    .collect();
    let programs: Vec<EvalProgram> = candidates.iter().map(EvalProgram::compile).collect();
    let blocks: Vec<Vec<[u64; WIDE_LANES]>> = programs
        .iter()
        .map(|p| {
            (0..p.vars().len())
                .map(|i| {
                    let mut b = [0u64; WIDE_LANES];
                    for (w, lane) in b.iter_mut().enumerate() {
                        *lane = 0x9e37_79b9_7f4a_7c15u64
                            .wrapping_mul((i as u64 + 1) * 7 + w as u64 + 1);
                    }
                    b
                })
                .collect()
        })
        .collect();
    // The narrow path sees the same rows, one 64-row lane at a time.
    let lanes: Vec<Vec<Vec<u64>>> = blocks
        .iter()
        .map(|bs| {
            (0..WIDE_LANES)
                .map(|w| bs.iter().map(|b| b[w]).collect())
                .collect()
        })
        .collect();
    for (p, (b, ls)) in programs.iter().zip(blocks.iter().zip(&lanes)) {
        let wide = p.eval_bits_wide(b);
        for (w, lane) in ls.iter().enumerate() {
            assert_eq!(wide[w], p.eval_bits(lane), "wide and narrow rows diverge");
        }
    }
    let eval_iters = config.repeats * 40_000;
    let synth_rows = (eval_iters * candidates.len() * 64 * WIDE_LANES) as f64;
    let start = Instant::now();
    for _ in 0..eval_iters {
        for (p, ls) in programs.iter().zip(&lanes) {
            for lane in ls {
                std::hint::black_box(p.eval_bits(lane));
            }
        }
    }
    let narrow_rows_per_s = synth_rows / start.elapsed().as_secs_f64().max(1e-9);
    let start = Instant::now();
    for _ in 0..eval_iters {
        for (p, b) in programs.iter().zip(&blocks) {
            std::hint::black_box(p.eval_bits_wide(b));
        }
    }
    let wide_rows_per_s = synth_rows / start.elapsed().as_secs_f64().max(1e-9);
    let wide_speedup = wide_rows_per_s / narrow_rows_per_s.max(1e-9);
    println!(
        "narrow {narrow_rows_per_s:>16.0} rows/s   wide {wide_rows_per_s:>16.0} rows/s   {wide_speedup:.1}x"
    );
    report.push_float("synth_narrow_rows_per_s", narrow_rows_per_s);
    report.push_float("synth_wide_rows_per_s", wide_rows_per_s);
    report.push_float("synth_wide_speedup", wide_speedup);

    // Residual corpus: small ground truths wrapped in parity opaque
    // zeros ((q·(q+1)) ∧ 1 ≡ 0) that the algebraic tiers cannot cancel.
    // The synthesis-off pass establishes the baseline the recovery rate
    // is measured against; the timed synthesis-on pass supplies the
    // `synth.*` counter deltas and candidates/sec.
    let residual = Corpus::generate_residual(&CorpusConfig {
        seed: 0xC0FF_EE00,
        per_category: 48,
    });
    let nosynth_simplifier = Simplifier::with_config(SimplifyConfig {
        use_synthesis: false,
        ..SimplifyConfig::default()
    });
    let baselines: Vec<Expr> = residual
        .samples()
        .iter()
        .map(|s| nosynth_simplifier.simplify(&s.obfuscated))
        .collect();
    let synth_before = synth_stats();
    let synth_simplifier = Simplifier::new();
    let start = Instant::now();
    let synthesized: Vec<Expr> = residual
        .samples()
        .iter()
        .map(|s| synth_simplifier.simplify(&s.obfuscated))
        .collect();
    let synth_elapsed = start.elapsed().as_secs_f64();
    let synth_delta = synth_stats().since(&synth_before);
    let candidates_per_s = synth_delta.candidates as f64 / synth_elapsed.max(1e-9);

    let mut unreduced = 0u64;
    let mut recovered = 0u64;
    for ((sample, base), full) in residual.samples().iter().zip(&baselines).zip(&synthesized) {
        if base.node_count() > sample.ground_truth.node_count() {
            unreduced += 1;
            if full.node_count() < base.node_count() {
                recovered += 1;
            }
        }
    }
    let recovery_rate = recovered as f64 / (unreduced.max(1)) as f64;
    println!(
        "residual corpus: {} cases, {} left unreduced by the algebraic tiers, {} recovered ({:.0}%)",
        residual.samples().len(),
        unreduced,
        recovered,
        100.0 * recovery_rate
    );
    println!(
        "synthesis: {} attempts, {} hits, {} fallbacks, {} candidates ({:.0} candidates/s, {} budget-exhausted)",
        synth_delta.attempts,
        synth_delta.hits,
        synth_delta.fallbacks,
        synth_delta.candidates,
        candidates_per_s,
        synth_delta.budget_exhausted
    );
    report.push_int("synth_residual_cases", residual.samples().len() as u64);
    report.push_int("synth_residual_unreduced", unreduced);
    report.push_int("synth_residual_recovered", recovered);
    report.push_float("synth_recovery_rate", recovery_rate);
    report.push_int("synth_attempts", synth_delta.attempts);
    report.push_int("synth_hits", synth_delta.hits);
    report.push_int("synth_fallbacks", synth_delta.fallbacks);
    report.push_int("synth_candidates", synth_delta.candidates);
    report.push_int("synth_budget_exhausted", synth_delta.budget_exhausted);
    report.push_float("synth_hit_rate", synth_delta.hit_rate());
    report.push_float("synth_candidates_per_s", candidates_per_s);

    // Engine counters, via the same obs bridge the pipeline publishes
    // through. A zero here means the bit-parallel path was never taken
    // and every "batch" number above actually measured something else.
    let registry = mba_obs::MetricsRegistry::new();
    publish_eval_engine_metrics(&registry);
    publish_arena_metrics(simplifier.arena(), &registry);
    publish_synth_metrics(&registry);
    publish_bdd_metrics(&registry);
    let snapshot = registry.snapshot();
    let tape_compiles = snapshot.gauge("eval.tape_compiles");
    let bit_rows = snapshot.gauge("eval.bitparallel.rows");
    report.push_int("tape_compiles", tape_compiles.max(0) as u64);
    report.push_int("bitparallel_rows", bit_rows.max(0) as u64);

    match report.write() {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write report: {e}");
            std::process::exit(1);
        }
    }

    if tape_compiles < 1 {
        eprintln!("engine reports zero tape compiles: bit-parallel path not exercised");
        std::process::exit(1);
    }
    if hit_rate <= 0.0 {
        eprintln!("fast-path hit rate is zero: SiMBA route not exercised");
        std::process::exit(1);
    }
    if arena_stats.interned_hits < 1 {
        eprintln!("arena reports zero interning hits: hash-consing not exercised");
        std::process::exit(1);
    }
    if !wide_speedup.is_finite() || wide_speedup < 2.0 {
        eprintln!(
            "wide candidate evaluator is only {wide_speedup:.2}x the narrow interpreter (need 2x)"
        );
        std::process::exit(1);
    }
    if synth_delta.hits < 1 {
        eprintln!("synthesis pass accepted zero substitutions on the residual corpus");
        std::process::exit(1);
    }
    if !candidates_per_s.is_finite() || candidates_per_s <= 0.0 {
        eprintln!("synth_candidates_per_s is not a positive finite number: {candidates_per_s}");
        std::process::exit(1);
    }
    if recovery_rate < 0.30 {
        eprintln!(
            "synthesis recovered only {recovered}/{unreduced} residual cases \
             ({:.0}%, need 30%)",
            100.0 * recovery_rate
        );
        std::process::exit(1);
    }
    if bdd_delta.canonicalizations < 1 {
        eprintln!("BDD sweep recorded zero canonicalizations: ROBDD route not exercised");
        std::process::exit(1);
    }
    if !t12_bdd_rows_per_s.is_finite() || t12_bdd_rows_per_s <= 0.0 {
        eprintln!(
            "t12 BDD rate is not a positive finite number ({t12_bdd_rows_per_s}): \
             the BDD column must still be standing where the truth-table tiers stop"
        );
        std::process::exit(1);
    }
}
