//! Oracle self-checks (ISSUE satellite): every time the SAT miter
//! reports `NotEquivalent`, the counterexample's
//! [`Counterexample::to_valuation`] re-evaluation must actually witness
//! the difference — on *both* the `mba-smt` API surface and through the
//! `mba-verify` oracle stack (which panics on a bogus witness rather
//! than propagate it).

use mba_expr::Expr;
use mba_smt::{CheckOutcome, MiterBudget, SmtSolver, SolverProfile};
use mba_verify::{EquivalenceOracle, OracleConfig, OracleStats, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Inequivalent pairs spanning the failure modes the fuzzer meets:
/// off-by-one, dropped terms, wrong operator, sign errors, and
/// bit-pattern-dependent differences.
fn inequivalent_pairs() -> Vec<(Expr, Expr)> {
    [
        ("x + y", "x + y + 1"),
        ("x * y", "x * y + x"),
        ("x | y", "x ^ y"),
        ("x + y", "x | y"),
        ("x - y", "y - x"),
        ("~x", "-x"),
        ("x & (y | z)", "(x & y) | z"),
        ("2*x", "x"),
        ("x", "0"),
        ("(x ^ y) + 2*(x & y)", "x + y + 1"),
    ]
    .into_iter()
    .map(|(l, r)| (l.parse().unwrap(), r.parse().unwrap()))
    .collect()
}

#[test]
fn every_sat_miter_witness_reevaluates_to_a_difference() {
    let solver = SmtSolver::new(SolverProfile::boolector_style());
    let mut checked = 0;
    for width in [4, 8, 16] {
        for (lhs, rhs) in inequivalent_pairs() {
            let result =
                solver.check_equivalence_budgeted(&lhs, &rhs, width, &MiterBudget::unlimited());
            let CheckOutcome::NotEquivalent(cex) = result.outcome else {
                panic!("`{lhs}` vs `{rhs}` at width {width}: expected NotEquivalent");
            };
            let v = cex.to_valuation();
            assert_ne!(
                lhs.eval(&v, width),
                rhs.eval(&v, width),
                "witness {cex} does not reproduce for `{lhs}` vs `{rhs}` at width {width}"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 30);
}

#[test]
fn oracle_miter_mismatches_carry_validated_witnesses() {
    // Disable the cheaper tiers so every refutation is forced through
    // the SAT miter and its witness-validation assertion.
    let config = OracleConfig {
        widths: vec![],
        random_valuations: 0,
        ..OracleConfig::default()
    };
    let oracle = EquivalenceOracle::new(config);
    let mut stats = OracleStats::default();
    let mut rng = StdRng::seed_from_u64(7);
    let mut miter_hits = 0;
    for (lhs, rhs) in inequivalent_pairs() {
        match oracle.check(&lhs, &rhs, &mut rng, &mut stats) {
            Verdict::Mismatch(m) => {
                assert_ne!(m.lhs_value, m.rhs_value);
                assert_eq!(
                    lhs.eval(&m.valuation, m.width),
                    m.lhs_value,
                    "recorded lhs value must match re-evaluation"
                );
                assert_eq!(rhs.eval(&m.valuation, m.width), m.rhs_value);
                if m.tier == mba_verify::OracleTier::Miter {
                    miter_hits += 1;
                }
            }
            v => panic!("`{lhs}` vs `{rhs}`: expected mismatch, got {v:?}"),
        }
    }
    assert!(stats.miter_mismatches > 0);
    assert!(
        miter_hits > 0,
        "at least the mixed pairs must reach the miter"
    );
}

#[test]
fn random_inequivalent_perturbations_are_always_witnessed() {
    // Randomized sweep: perturb a random expression by +c (c != 0 mod
    // 2^w for the checked widths) and demand a validated witness.
    let oracle = EquivalenceOracle::new(OracleConfig::default());
    let mut rng = StdRng::seed_from_u64(99);
    let mut stats = OracleStats::default();
    let config = mba_gen::RandomExprConfig::default();
    for i in 0..40 {
        let e = mba_gen::random_expr(&mut rng, &config);
        let c = 1 + (rng.gen::<u8>() as i128 % 7);
        let perturbed = Expr::binary(mba_expr::BinOp::Add, e.clone(), Expr::Const(c));
        let mut case_rng = StdRng::seed_from_u64(i);
        match oracle.check(&e, &perturbed, &mut case_rng, &mut stats) {
            Verdict::Mismatch(m) => assert_ne!(m.lhs_value, m.rhs_value),
            v => panic!("`{e}` vs `{perturbed}`: expected mismatch, got {v:?}"),
        }
    }
}
