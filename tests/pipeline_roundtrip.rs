//! Cross-crate round trips: obfuscate → simplify → prove. The full
//! tool chain must compose losslessly for every MBA category.

use std::time::Duration;

use mba::expr::{Expr, Valuation};
use mba::gen::{Corpus, CorpusConfig, ObfuscationKind, Obfuscator};
use mba::smt::{CheckOutcome, SmtSolver, SolverProfile};
use mba::solver::Simplifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn obfuscate_then_simplify_recovers_ground_truth() {
    let obfuscator = Obfuscator::new();
    let simplifier = Simplifier::new();
    let mut rng = StdRng::seed_from_u64(0xE2E);

    for target_src in ["x + y", "x - y", "x ^ y", "x*y", "x + 2*y - z"] {
        let target: Expr = target_src.parse().unwrap();
        for kind in [
            ObfuscationKind::Linear,
            ObfuscationKind::Polynomial,
            ObfuscationKind::NonPolynomial,
        ] {
            let obfuscated = obfuscator.obfuscate(&target, kind, &mut rng);
            let recovered = simplifier.simplify(&obfuscated);
            assert_eq!(
                simplifier.proves_equivalent(&recovered, &target),
                Some(true),
                "{kind} round trip of `{target_src}` returned `{recovered}`"
            );
        }
    }
}

#[test]
fn simplified_corpus_is_solver_friendly() {
    // A miniature Table 6: every simplified sample must be decided
    // within a tight budget by every profile.
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 11,
        per_category: 8,
    });
    let simplifier = Simplifier::new();
    for profile in SolverProfile::all() {
        let solver = SmtSolver::new(profile.clone());
        let mut solved = 0;
        for sample in corpus.samples() {
            let simplified = simplifier.simplify(&sample.obfuscated);
            let r = solver.check_equivalence(
                &simplified,
                &sample.ground_truth,
                16,
                Some(Duration::from_secs(2)),
            );
            if r.outcome == CheckOutcome::Equivalent {
                solved += 1;
            }
            assert!(
                !matches!(r.outcome, CheckOutcome::NotEquivalent(_)),
                "unsound simplification of {sample}"
            );
        }
        assert!(
            solved * 100 >= corpus.len() * 90,
            "{}: only {solved}/{} simplified samples solved",
            profile.name,
            corpus.len()
        );
    }
}

#[test]
fn counterexamples_from_broken_identities_are_genuine() {
    // Corrupt each ground truth by +1 and insist on a verified witness.
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 23,
        per_category: 3,
    });
    let solver = SmtSolver::new(SolverProfile::boolector_style());
    let simplifier = Simplifier::new();
    for sample in corpus.samples() {
        let simplified = simplifier.simplify(&sample.obfuscated);
        let corrupted = sample.ground_truth.clone() + Expr::one();
        let r = solver.check_equivalence(&simplified, &corrupted, 16, Some(Duration::from_secs(5)));
        let CheckOutcome::NotEquivalent(cex) = r.outcome else {
            panic!("corrupted identity not refuted for {sample}");
        };
        let v = cex.to_valuation();
        assert_ne!(
            simplified.eval(&v, 16),
            corrupted.eval(&v, 16),
            "witness {cex} does not separate the sides"
        );
    }
}

#[test]
fn corpus_text_roundtrip_preserves_solvability() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 5,
        per_category: 4,
    });
    let text = corpus.to_text();
    let reloaded = mba::gen::Corpus::from_text(&text).expect("parses");
    let mut rng = StdRng::seed_from_u64(1);
    for (a, b) in corpus.samples().iter().zip(reloaded.samples()) {
        assert_eq!(a.obfuscated, b.obfuscated);
        // Reloaded samples still verify.
        let vars = b.obfuscated.vars();
        let v: Valuation = vars.iter().map(|n| (n.clone(), rng.gen())).collect();
        assert_eq!(b.obfuscated.eval(&v, 64), b.ground_truth.eval(&v, 64));
    }
}

#[test]
fn simplifier_is_reusable_and_thread_safe() {
    // One Simplifier shared across threads over one corpus: the lookup
    // table is behind a lock and results stay deterministic.
    let corpus = Corpus::generate(&CorpusConfig {
        seed: 7,
        per_category: 5,
    });
    let simplifier = Simplifier::new();
    let sequential: Vec<Expr> = corpus
        .samples()
        .iter()
        .map(|s| simplifier.simplify(&s.obfuscated))
        .collect();

    let fresh = Simplifier::new();
    let parallel: Vec<Expr> = std::thread::scope(|scope| {
        let handles: Vec<_> = corpus
            .samples()
            .iter()
            .map(|s| {
                let fresh = &fresh;
                scope.spawn(move || fresh.simplify(&s.obfuscated))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(sequential, parallel);
}
