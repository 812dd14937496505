//! Guards the differential matrix against vacuity: the fast path must
//! actually *fire* when `use_simba` is on, and must not even be
//! *attempted* when it is off. Lives in its own test binary because the
//! counters are process-global and any concurrently running simplify
//! would race the zero-attempts assertion.

use mba_sig::simba;
use mba_solver::{Simplifier, SimplifyConfig};

const LINEAR_CORPUS: [&str; 3] = ["x + y - 2*(x&y)", "2*(x|y) - (x^y)", "(x|y) + (x&y)"];

#[test]
fn fast_path_fires_when_on_and_is_silent_when_off() {
    let before = simba::simba_stats();
    let on = Simplifier::new();
    for src in LINEAR_CORPUS {
        on.simplify(&src.parse().unwrap());
    }
    let mid = simba::simba_stats();
    let on_delta = mid.since(&before);
    assert!(
        on_delta.hits > 0,
        "fast path never fired on linear corpus: {on_delta:?}"
    );
    assert_eq!(
        on_delta.fallbacks, 0,
        "true linear input must not fall back: {on_delta:?}"
    );

    let off = Simplifier::with_config(SimplifyConfig {
        use_simba: false,
        ..SimplifyConfig::default()
    });
    for src in LINEAR_CORPUS {
        off.simplify(&src.parse().unwrap());
    }
    let off_delta = simba::simba_stats().since(&mid);
    assert_eq!(
        off_delta.attempts, 0,
        "fast path attempted despite use_simba = false: {off_delta:?}"
    );
}
