//! Exact deltas on the process-global synthesis counters. Lives in its
//! own test binary with a single test because any concurrently running
//! synthesis query would race the exact-count assertions.

use mba_expr::Expr;
use mba_synth::{synth_stats, Synthesizer};

#[test]
fn counters_track_gates_hits_and_pool_reuse() {
    // Gated queries do not count as attempts.
    let s = Synthesizer::default();
    let before = synth_stats();
    assert_eq!(s.synthesize(&"x".parse().unwrap()), None);
    assert_eq!(s.synthesize(&"17".parse().unwrap()), None);
    let nine: Expr = "v0&v1&v2&v3&v4&v5&v6&v7&v8".parse().unwrap();
    assert_eq!(s.synthesize(&nine), None);
    assert_eq!(synth_stats().since(&before).attempts, 0);

    // Counters move across a hit.
    let s = Synthesizer::default();
    let before = synth_stats();
    let target: Expr = "x + y + ((x*(x+1)) & 1)".parse().unwrap();
    assert!(s.synthesize(&target).is_some());
    let delta = synth_stats().since(&before);
    assert_eq!(delta.attempts, 1);
    assert_eq!(delta.hits, 1);
    assert!(delta.candidates > 0, "pool build must count candidates");

    // Pools are cached per variable set.
    let s = Synthesizer::default();
    let before = synth_stats();
    let a: Expr = "x + y + ((x*(x+1)) & 1)".parse().unwrap();
    let b: Expr = "x - y + ((y*(y+1)) & 1)".parse().unwrap();
    s.synthesize(&a);
    let after_first = synth_stats().since(&before);
    s.synthesize(&b);
    let after_second = synth_stats().since(&before);
    // Same {x, y} variable set: the second query reuses the pool,
    // so the candidate counter does not move again.
    assert_eq!(after_first.candidates, after_second.candidates);
    assert_eq!(after_second.attempts, 2);
}
