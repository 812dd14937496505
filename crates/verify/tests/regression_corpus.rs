//! Replays the checked-in regression corpus (`crates/verify/corpus/`)
//! as a normal `cargo test`: every reproducer — seed entries and any
//! shrunk discrepancy `mba_fuzz --write-corpus` ever appended — goes
//! through all four simplify paths (cached, uncached, batch, and
//! fast-path-off) and the full oracle stack, and no invariant may
//! break.

use mba_solver::{Simplifier, SimplifyConfig};
use mba_verify::corpus::{default_corpus_dir, load_dir};
use mba_verify::{EquivalenceOracle, OracleConfig, OracleStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn corpus_replays_clean() {
    let entries = load_dir(&default_corpus_dir()).expect("corpus dir must load");
    assert!(!entries.is_empty(), "corpus must never be empty");

    let cached = Simplifier::new();
    let uncached = Simplifier::with_config(SimplifyConfig {
        use_cache: false,
        ..SimplifyConfig::default()
    });
    // The SiMBA fast path is an optimisation, not a semantics change:
    // disabling it must yield byte-identical output on every entry.
    let nosimba = Simplifier::with_config(SimplifyConfig {
        use_simba: false,
        ..SimplifyConfig::default()
    });
    // Replays are few, so afford the miter a larger budget than the
    // fuzzer's default.
    let oracle = EquivalenceOracle::new(OracleConfig {
        miter_conflicts: 50_000,
        ..OracleConfig::default()
    });
    let mut stats = OracleStats::default();

    let exprs: Vec<_> = entries.iter().map(|(_, r)| r.expr.clone()).collect();
    let batch = cached.simplify_batch_with_jobs(&exprs, 2);

    for (i, (path, rep)) in entries.iter().enumerate() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let cached_out = cached.simplify_detailed(&rep.expr).output;
        let uncached_out = uncached.simplify_detailed(&rep.expr).output;
        assert_eq!(
            cached_out, batch[i].output,
            "{name}: cached and batch paths diverge"
        );
        assert_eq!(
            cached_out, uncached_out,
            "{name}: cached and uncached paths diverge"
        );
        assert_eq!(
            cached_out,
            nosimba.simplify_detailed(&rep.expr).output,
            "{name}: fast-path-off output diverges"
        );
        let mut rng = StdRng::seed_from_u64(i as u64);
        let verdict = oracle.check(&rep.expr, &cached_out, &mut rng, &mut stats);
        assert!(
            verdict.is_ok(),
            "{name}: `{}` simplifies unsoundly to `{cached_out}`: {verdict:?}",
            rep.expr
        );
    }
    // The seed entries are small; the oracle should be *proving* them,
    // not shrugging. Guards against silently de-fanging the corpus by
    // shrinking budgets.
    assert!(
        stats.proofs() >= entries.len() as u64 / 2,
        "too few corpus proofs: {stats:?}"
    );
}

#[test]
fn figure1_seed_entry_simplifies_to_xy() {
    // The flagship corpus entry must keep its known minimal form.
    let entries = load_dir(&default_corpus_dir()).unwrap();
    let fig1 = entries
        .iter()
        .find(|(p, _)| p.file_name().unwrap() == "seed-figure1.txt")
        .expect("figure-1 seed entry present");
    assert_eq!(Simplifier::new().simplify(&fig1.1.expr).to_string(), "x*y");
}
