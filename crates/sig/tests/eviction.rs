//! Bounded-cache behaviour: occupancy stays within budget, eviction
//! never changes simplification output, and snapshots warm-start a
//! fresh cache across a simulated restart.

use std::sync::Arc;

use mba_expr::{Expr, ExprArena, Ident, NodeId};
use mba_sig::{SigCache, TruthTable};
use mba_solver::{Simplifier, SimplifyConfig};

/// Distinct two-variable bitwise expressions interned into `arena`:
/// every `(i, op)` pair uses its own identifiers, so each one is a
/// fresh cache key.
fn distinct_ids(arena: &ExprArena, n: usize) -> Vec<(NodeId, Vec<Ident>)> {
    let ops = ["&", "|", "^"];
    (0..n)
        .map(|i| {
            let (a, b) = (format!("a{i}"), format!("b{i}"));
            let op = ops[i % ops.len()];
            let e: Expr = format!("{a} {op} ~{b}").parse().unwrap();
            (arena.intern(&e), vec![Ident::new(a), Ident::new(b)])
        })
        .collect()
}

/// Distinct four-variable truth tables, one per 16-row column value.
fn distinct_tables(n: usize) -> Vec<TruthTable> {
    (0..n as u64)
        .map(|column| TruthTable::from_blocks(4, vec![column]).unwrap())
        .collect()
}

#[test]
fn occupancy_never_exceeds_budget() {
    let budget = 48;
    let cache = SigCache::with_budget(budget);
    assert_eq!(cache.budget(), Some(budget));
    let arena = ExprArena::new();
    for (id, vars) in distinct_ids(&arena, 500) {
        let tt = cache.table_of_id(&arena, id, &vars).unwrap();
        cache.and_coefficients(&tt);
        cache.or_coefficients(&tt);
        assert!(
            cache.len() <= budget,
            "occupancy {} exceeded budget {budget}",
            cache.len()
        );
    }
    assert!(
        cache.evictions() > 0,
        "500 distinct keys into a 48-entry cache must evict"
    );
    // Shard occupancy mirrors the same bound.
    let total: usize = cache.shard_occupancy().into_iter().sum();
    assert_eq!(total, cache.len());
}

/// Under the default ∧ basis the ∨-coefficient map stays empty, so
/// the other two maps must be able to hold more than half the budget.
#[test]
fn and_basis_traffic_fills_more_than_half_the_budget() {
    let budget = 1024;
    let cache = SigCache::with_budget(budget);
    let arena = ExprArena::new();
    let ids = distinct_ids(&arena, 4 * budget);
    for ((id, vars), tt) in ids.iter().zip(distinct_tables(4 * budget)) {
        cache.table_of_id(&arena, *id, vars).unwrap();
        cache.and_coefficients(&tt);
    }
    assert!(cache.evictions() > 0, "4x the budget in keys must evict");
    assert!(
        cache.len() > budget / 2,
        "∧-basis traffic holds only {} of {budget} entries",
        cache.len()
    );
    assert!(cache.len() <= budget);
}

/// The maps share one budget, so traffic that reaches only one of them
/// fills nearly all of it before the first eviction.
#[test]
fn one_maps_traffic_fills_the_budget_before_evicting() {
    let budget = 1024;
    let cache = SigCache::with_budget(budget);
    let arena = ExprArena::new();
    let mut held_before_evicting = 0;
    for (id, vars) in distinct_ids(&arena, 2 * budget) {
        cache.table_of_id(&arena, id, &vars).unwrap();
        if cache.evictions() > 0 {
            break;
        }
        held_before_evicting = cache.len();
    }
    assert!(cache.evictions() > 0, "twice the budget in keys must evict");
    assert!(
        held_before_evicting * 10 >= budget * 9,
        "one map held only {held_before_evicting} of {budget} entries before evicting"
    );
    assert!(cache.len() <= budget);
}

#[test]
fn unbounded_cache_never_evicts() {
    let cache = SigCache::new();
    assert_eq!(cache.budget(), None);
    let arena = ExprArena::new();
    for (id, vars) in distinct_ids(&arena, 200) {
        cache.table_of_id(&arena, id, &vars).unwrap();
    }
    assert_eq!(cache.evictions(), 0);
    assert!(cache.len() >= 200);
}

#[test]
fn evicted_entries_recompute_identically() {
    // Thrash a tiny cache, then re-query the earliest keys: they were
    // evicted, and the recomputed tables must be byte-identical to the
    // originals.
    let cache = SigCache::with_budget(64);
    let arena = ExprArena::new();
    let ids = distinct_ids(&arena, 300);
    let originals: Vec<_> = ids
        .iter()
        .map(|(id, vars)| (*cache.table_of_id(&arena, *id, vars).unwrap()).clone())
        .collect();
    assert!(cache.evictions() > 0);
    for ((id, vars), original) in ids.iter().zip(&originals) {
        let again = cache.table_of_id(&arena, *id, vars).unwrap();
        assert_eq!(*again, *original);
    }
}

#[test]
fn simplification_is_byte_identical_under_eviction() {
    // The load-bearing invariant: a thrashing bounded cache, a roomy
    // bounded cache, and the unbounded default must all produce the
    // same simplified output for the same input.
    let inputs = [
        "(x ^ y) + 2*(x & y)",
        "(x | y) + (x & y)",
        "x - (x & ~y) - (x & y)",
        "(x & y) * 3 + (x ^ y) - (x | y)",
    ];
    let outputs: Vec<Vec<String>> = [
        Arc::new(SigCache::with_budget(64)),
        Arc::new(SigCache::with_budget(4096)),
        Arc::new(SigCache::new()),
    ]
    .into_iter()
    .map(|cache| {
        let s = Simplifier::with_cache(SimplifyConfig::default(), cache);
        inputs
            .iter()
            .map(|src| {
                let e: Expr = src.parse().unwrap();
                // Twice per input so the second pass exercises hits
                // (or re-misses after eviction) on every tier.
                let first = s.simplify(&e).to_string();
                assert_eq!(first, s.simplify(&e).to_string());
                first
            })
            .collect()
    })
    .collect();
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[1], outputs[2]);
}

#[test]
fn snapshot_roundtrip_is_canonical_and_warm_starts() {
    let vars = vec![Ident::new("x"), Ident::new("y")];
    let tables: Vec<TruthTable> = ["x & y", "x | ~y", "x ^ y", "~x & ~y"]
        .iter()
        .map(|src| TruthTable::of(&src.parse().unwrap(), &vars).unwrap())
        .collect();
    let cache = SigCache::with_budget(1024);
    for tt in &tables {
        cache.and_coefficients(tt);
        cache.or_coefficients(tt);
    }
    let snapshot = cache.snapshot_json();

    // Canonical: a restored cache snapshots to the same bytes.
    let restored = SigCache::with_budget(1024);
    let loaded = restored.load_snapshot(&snapshot).unwrap();
    assert!(loaded > 0);
    assert_eq!(restored.snapshot_json(), snapshot);
    // Loading counts no lookups.
    assert_eq!(restored.stats().lookups(), 0);

    // Warm start: the queries that were misses on the cold cache are
    // hits on the restored one.
    for tt in &tables {
        assert_eq!(cache.and_coefficients(tt), restored.and_coefficients(tt));
        assert_eq!(cache.or_coefficients(tt), restored.or_coefficients(tt));
    }
    let stats = restored.stats();
    assert_eq!(stats.misses, 0, "warm-started lookups must all hit");
    assert_eq!(stats.hits, 8);
}

#[test]
fn snapshot_into_smaller_budget_respects_the_smaller_budget() {
    let big = SigCache::new();
    for tt in distinct_tables(300) {
        big.and_coefficients(&tt);
    }
    let snapshot = big.snapshot_json();
    let small = SigCache::with_budget(64);
    small.load_snapshot(&snapshot).unwrap();
    assert!(small.len() <= 64, "load must go through eviction");
}

#[test]
fn snapshot_rejects_malformed_documents() {
    let cache = SigCache::new();
    for bad in [
        "",
        "[]",
        "{\"version\":2}",
        "{\"version\":1,\"and_coeffs\":7}",
        "{\"version\":1,\"and_coeffs\":[{\"num_vars\":1,\"blocks\":[\"0x2\"],\"coeffs\":null}]}",
        "{\"version\":1,\"or_coeffs\":[{\"num_vars\":1,\"blocks\":[\"2\"],\"coeffs\":null}]}",
    ] {
        assert!(cache.load_snapshot(bad).is_err(), "`{bad}` should not load");
    }
    assert!(cache.is_empty() || cache.len() <= 1);
}
