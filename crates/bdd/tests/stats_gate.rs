//! Exact deltas on the process-global BDD counters. Lives in its own
//! test binary with a single test because any concurrently running
//! canonicalization would race the exact-count assertion.

use mba_bdd::{bdd_stats, canonicalize, publish_bdd_metrics};
use mba_expr::Expr;

#[test]
fn counters_advance() {
    let before = bdd_stats();
    let e: Expr = "(x & y) | (y & z) | (z & x)".parse().unwrap();
    let _ = canonicalize(&e).unwrap();
    let delta = bdd_stats().since(&before);
    assert!(delta.nodes >= 1);
    assert_eq!(delta.canonicalizations, 1);

    let registry = mba_obs::MetricsRegistry::new();
    publish_bdd_metrics(&registry);
    let snap = registry.snapshot();
    assert!(snap.gauge("bdd.nodes") >= 1);
    assert!(snap.gauge("bdd.canonicalizations") >= 1);
}
