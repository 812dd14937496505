//! Id-keyed signature caching replayed over a corpus with
//! cross-expression structure sharing.
//!
//! Three contracts pinned here:
//!
//! 1. **Reference agreement** — replaying the lookup stream through
//!    `table_of_id` returns the tables the uncached `TruthTable::of`
//!    computes, and misses exactly once per distinct
//!    `(subexpression, vars)` pair: structurally equal subtrees share
//!    one key.
//! 2. **Cross-expression CSE** — one cache shared across the corpus
//!    collects strictly more hits than fresh per-expression caches sum
//!    to, because hash-consing makes the `x & y` inside one expression
//!    *the same id* as the `x & y` inside another.
//! 3. **Telemetry mirror** — `publish_arena_metrics` gauges equal the
//!    arena's own stats snapshot.

use std::collections::HashSet;

use mba_expr::{Expr, ExprArena, Ident};
use mba_obs::MetricsRegistry;
use mba_sig::{publish_arena_metrics, SigCache, TruthTable};

/// A replay corpus of pure-bitwise expressions that deliberately share
/// subtrees across entries (`x & y`, `y | z`).
fn corpus() -> Vec<Expr> {
    [
        "x & y",
        "(x & y) | z",
        "~(x & y)",
        "y | z",
        "x ^ (y | z)",
        "(x & y) ^ (y | z)",
        "~x | (x & y)",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

/// The (subexpression, vars) lookup stream one corpus entry generates:
/// every pure-bitwise subtree with a table-sized variable set, in
/// pre-order — the shape of what skeleton extraction feeds the cache.
fn lookups(e: &Expr) -> Vec<(&Expr, Vec<Ident>)> {
    e.subexprs()
        .into_iter()
        .filter(|s| s.is_pure_bitwise())
        .filter_map(|s| {
            let vars: Vec<Ident> = s.vars().into_iter().collect();
            (!vars.is_empty() && vars.len() <= TruthTable::MAX_VARS).then_some((s, vars))
        })
        .collect()
}

#[test]
fn id_keyed_replay_agrees_with_uncached_tables() {
    let id_keyed = SigCache::new();
    let arena = ExprArena::new();
    let mut distinct = HashSet::new();
    let mut lookup_count = 0;
    for e in &corpus() {
        for (sub, vars) in lookups(e) {
            let reference = TruthTable::of(sub, &vars).expect("pure bitwise");
            let id = arena.intern(sub);
            let cached = id_keyed
                .table_of_id(&arena, id, &vars)
                .expect("pure bitwise");
            assert_eq!(*cached, reference, "tables diverge on `{sub}`");
            distinct.insert((sub.clone(), vars));
            lookup_count += 1;
        }
    }
    let stats = id_keyed.stats();
    assert_eq!(
        stats.misses,
        distinct.len() as u64,
        "one miss per distinct key"
    );
    assert_eq!(stats.lookups(), lookup_count);
    assert!(stats.hits > 0, "corpus must actually share subtrees");
    assert!(
        arena.stats().interned_hits > 0,
        "shared subtrees must intern to shared ids"
    );
}

#[test]
fn shared_cache_collects_strictly_more_hits_than_per_expression_caches() {
    // Per-expression baseline: a fresh cache and arena per entry can
    // only hit on repetition *within* one expression.
    let mut isolated_hits = 0;
    for e in &corpus() {
        let cache = SigCache::new();
        let arena = ExprArena::new();
        for (sub, vars) in lookups(e) {
            let id = arena.intern(sub);
            cache.table_of_id(&arena, id, &vars).expect("pure bitwise");
        }
        isolated_hits += cache.stats().hits;
    }
    // Shared cache + shared arena across the whole corpus.
    let cache = SigCache::new();
    let arena = ExprArena::new();
    for e in &corpus() {
        for (sub, vars) in lookups(e) {
            let id = arena.intern(sub);
            cache.table_of_id(&arena, id, &vars).expect("pure bitwise");
        }
    }
    let shared_hits = cache.stats().hits;
    assert!(
        shared_hits > isolated_hits,
        "cross-expression CSE must add hits: shared {shared_hits} vs isolated {isolated_hits}"
    );
}

#[test]
fn arena_gauges_mirror_arena_stats() {
    let arena = ExprArena::new();
    for e in &corpus() {
        arena.intern(e);
    }
    let registry = MetricsRegistry::new();
    publish_arena_metrics(&arena, &registry);
    let stats = arena.stats();
    let snap = registry.snapshot();
    assert_eq!(snap.gauge("arena.nodes"), stats.nodes as i64);
    assert_eq!(snap.gauge("arena.idents"), stats.idents as i64);
    assert_eq!(
        snap.gauge("arena.interned_hits"),
        stats.interned_hits as i64
    );
    assert_eq!(snap.gauge("arena.bytes"), stats.bytes as i64);
    assert_eq!(snap.gauge("arena.generation"), stats.generation as i64);
    assert!(stats.nodes > 0 && stats.bytes > 0);
}

#[test]
fn clearing_the_arena_invalidates_id_keys_but_keeps_tables_correct() {
    let cache = SigCache::new();
    let arena = ExprArena::new();
    let e: Expr = "x & y".parse().unwrap();
    let vars: Vec<Ident> = e.vars().into_iter().collect();
    let id = arena.intern(&e);
    let before = cache.table_of_id(&arena, id, &vars).expect("pure bitwise");
    arena.clear();
    // Same dense index after re-interning, but a new generation: the
    // lookup must miss (generation is part of the key), then recompute
    // the same table.
    let id2 = arena.intern(&e);
    assert_eq!(id2.index(), id.index());
    let stats_before = cache.stats();
    let after = cache.table_of_id(&arena, id2, &vars).expect("pure bitwise");
    let stats_after = cache.stats();
    assert_eq!(stats_after.misses, stats_before.misses + 1);
    assert_eq!(stats_after.hits, stats_before.hits);
    assert_eq!(*before, *after);
}
