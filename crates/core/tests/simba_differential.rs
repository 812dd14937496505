//! Pipeline-level differential: the `use_simba` flag selects a *route*,
//! never a *result*. Over seeded corpora from every `mba-gen` source —
//! obfuscated linear/semi-linear/poly targets and free-form random ASTs
//! (including the mask-steered semi-linear distribution) — simplifying
//! with the fast path on and off must produce byte-identical output at
//! every supported width. This is the executable form of the fast-path
//! contract in DESIGN.md: the corner route feeds the *same* coefficient
//! expansion as the truth-table route, so disagreement anywhere is a
//! recovery bug, not a style difference.

use mba_expr::{BinOp, Expr, UnOp};
use mba_gen::random::{random_expr, RandomExprConfig};
use mba_gen::{ObfuscationKind, Obfuscator};
use mba_solver::{Simplifier, SimplifyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTHS: [u32; 4] = [8, 16, 32, 64];

fn pair(width: u32) -> (Simplifier, Simplifier) {
    let on = Simplifier::with_config(SimplifyConfig {
        width,
        ..SimplifyConfig::default()
    });
    let off = Simplifier::with_config(SimplifyConfig {
        width,
        use_simba: false,
        ..SimplifyConfig::default()
    });
    (on, off)
}

fn assert_identical(cases: &[Expr], label: &str) {
    for width in WIDTHS {
        let (on, off) = pair(width);
        for e in cases {
            let a = on.simplify_detailed(e).output;
            let b = off.simplify_detailed(e).output;
            assert_eq!(
                a, b,
                "{label}: width {width}: fast path on/off diverge on `{e}`"
            );
        }
    }
}

#[test]
fn obfuscated_corpora_are_route_independent() {
    let mut rng = StdRng::seed_from_u64(42);
    let ob = Obfuscator::new();
    let targets: Vec<Expr> = ["x", "x + y", "x & y", "x ^ y", "2*x - y", "x + y + z"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut cases = Vec::new();
    for kind in [
        ObfuscationKind::Linear,
        ObfuscationKind::SemiLinear,
        ObfuscationKind::Polynomial,
        ObfuscationKind::NonPolynomial,
    ] {
        for t in &targets {
            for _ in 0..4 {
                cases.push(ob.obfuscate(t, kind, &mut rng));
            }
        }
    }
    assert_identical(&cases, "obfuscated");
}

#[test]
fn random_ast_corpus_is_route_independent() {
    let config = RandomExprConfig::default();
    let mut rng = StdRng::seed_from_u64(42);
    let cases: Vec<Expr> = (0..150).map(|_| random_expr(&mut rng, &config)).collect();
    assert_identical(&cases, "random-ast");
}

#[test]
fn negated_literal_constants_are_route_independent() {
    // Regression: fuzz seed 42, iteration 4609. The generated AST holds
    // `-0` — arithmetic negation of a literal — which `is_pure_bitwise`
    // folds to a bit-uniform constant but the truth-table route's
    // skeleton used to abstract into an opaque temporary, blinding it
    // to the absorption `(-1^x|0)&(~x|…) ≡ ~x` the corner route sees.
    // The printed form can't pin this (the parser folds `-CONST`), so
    // build the offending AST directly.
    let x = || Expr::Var("x".into());
    let factor = Expr::binary(
        BinOp::And,
        Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Xor, Expr::Const(-1), x()),
            Expr::unary(UnOp::Neg, Expr::Const(0)),
        ),
        Expr::binary(
            BinOp::Or,
            Expr::unary(UnOp::Not, x()),
            Expr::binary(BinOp::And, Expr::Var("z".into()), Expr::Var("y".into())),
        ),
    );
    let cases = [
        Expr::binary(BinOp::Or, factor.clone(), Expr::Const(-4)),
        factor,
        // The double-negation spelling of −1 must fold the same way.
        Expr::binary(
            BinOp::Xor,
            Expr::unary(UnOp::Neg, Expr::unary(UnOp::Neg, Expr::Const(-1))),
            x(),
        ),
    ];
    assert_identical(&cases, "negated-literal");
}

#[test]
fn mask_steered_corpus_is_route_independent() {
    // The mask-steered stream concentrates on bitwise-with-constant
    // shapes — exactly the semi-linear tier's jurisdiction, where a
    // route-dependent bug would most plausibly hide.
    let config = RandomExprConfig {
        mask_const_prob: 0.5,
        ..RandomExprConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(42);
    let cases: Vec<Expr> = (0..150).map(|_| random_expr(&mut rng, &config)).collect();
    assert_identical(&cases, "mask-steered");
}
