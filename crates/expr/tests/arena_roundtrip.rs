//! The `parse → intern → extract → print → parse` fixpoint: an
//! expression that enters the arena leaves it printing — and reparsing —
//! to exactly what it was. Interning must not perturb the wire format:
//! corpus files, goldens, and the serve protocol all speak printed
//! expressions, so a single folded or reordered node here would corrupt
//! them silently. Negated-literal chains (`-0`, `- -1`) get dedicated
//! coverage: the PR 6 regression showed they are where a "harmless"
//! normalization is most tempting and most wrong.

use mba_expr::{BinOp, Expr, ExprArena, UnOp};
use proptest::prelude::*;

/// Runs one expression through the full cycle and asserts the fixpoint.
#[track_caller]
fn assert_fixpoint(e: &Expr) {
    let arena = ExprArena::new();
    let back = arena.extract(arena.intern(e));
    assert_eq!(&back, e, "intern/extract changed the tree");
    let printed = back.to_string();
    assert_eq!(printed, e.to_string(), "printing diverged after interning");
    let reparsed: Expr = printed.parse().expect("printed form must parse");
    assert_eq!(
        reparsed.to_string(),
        printed,
        "reparse of `{printed}` is not a print fixpoint"
    );
    // The reparsed tree interns to a structurally equal node whenever
    // the parse is lossless (the parser folds `-CONST`, so compare via
    // a second print rather than tree equality).
    let id2 = arena.intern(&reparsed);
    assert_eq!(arena.extract(id2).to_string(), printed);
}

#[test]
fn parsed_corpus_is_a_fixpoint() {
    for src in [
        "x",
        "-5",
        "2*(x|y) - (~x&y) - (x&~y)",
        "(x^y) + 2*(x|~y) + 2",
        "(x&~y)*(~x&y) + (x&y)*(x|y)",
        "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
        "~(x - 1)",
        "(x & 240) + (x & ~240)",
        "(x | 5) + (x & 5)",
        "x & -4",
        "-x - 1",
        "(a&b&c&d&e&f) + (a|b)",
    ] {
        let e: Expr = src.parse().unwrap();
        assert_fixpoint(&e);
    }
}

#[test]
fn negated_literal_chains_survive_interning_unfolded() {
    // These trees cannot be written in source (the parser folds
    // `-CONST`), so build them directly — exactly the shapes the PR 6
    // negated-literal regression pinned. The arena must store and
    // return them *as trees*, even though its metadata folds their
    // literal value for the pure-bitwise predicate.
    let neg = |e| Expr::unary(UnOp::Neg, e);
    let cases = [
        neg(Expr::Const(0)),           // -0
        neg(Expr::Const(-1)),          // - -1
        neg(neg(Expr::Const(-1))),     // - - -1
        neg(neg(neg(Expr::Const(7)))), // deep chain, non-uniform
        Expr::binary(BinOp::Xor, neg(neg(Expr::Const(-1))), Expr::var("x")),
        Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Xor, Expr::Const(-1), Expr::var("x")),
            neg(Expr::Const(0)),
        ),
    ];
    let arena = ExprArena::new();
    for e in &cases {
        let back = arena.extract(arena.intern(e));
        assert_eq!(&back, e, "interning folded a negated-literal chain");
        // The printed form reparses to the *parser-normal* tree (the
        // parser folds `-CONST` chains); interning must not change
        // which tree that is.
        let printed = back.to_string();
        let reparsed: Expr = printed.parse().expect("must parse");
        let normalized = fold_negated_consts(e);
        assert_eq!(
            reparsed, normalized,
            "`{printed}` reparses away from the parser-normal form"
        );
    }
}

/// The parser's `-CONST` folding, applied bottom-up — the normalization
/// under which print → parse is an exact tree fixpoint (same as
/// `proptest_roundtrip.rs` uses).
fn fold_negated_consts(e: &Expr) -> Expr {
    mba_expr::visit::transform_bottom_up(e, &mut |n| match n {
        Expr::Unary(UnOp::Neg, inner) => match *inner {
            Expr::Const(c) => Expr::Const(-c),
            other => Expr::unary(UnOp::Neg, other),
        },
        other => other,
    })
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-64i128..=64).prop_map(Expr::Const),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Expr::var),
    ];
    leaf.prop_recursive(6, 64, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                inner.clone(),
                prop_oneof![
                    Just(BinOp::Add),
                    Just(BinOp::Sub),
                    Just(BinOp::Mul),
                    Just(BinOp::And),
                    Just(BinOp::Or),
                    Just(BinOp::Xor),
                ]
            )
                .prop_map(|(a, b, op)| Expr::binary(op, a, b)),
            (inner, prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)])
                .prop_map(|(e, op)| Expr::unary(op, e)),
        ]
    })
}

proptest! {
    /// The full `parse → intern → extract → print → parse` cycle is a
    /// fixpoint on arbitrary trees. The generated tree is first pushed
    /// through the parser (whose `-CONST` folding defines the normal
    /// form wire formats carry); from there, interning must preserve
    /// the tree, the print, and the reparse exactly. Intern/extract
    /// identity on the *raw* (unfolded) tree is asserted too.
    #[test]
    fn random_trees_are_a_fixpoint(e in arb_expr()) {
        let arena = ExprArena::new();
        prop_assert_eq!(arena.extract(arena.intern(&e)), e.clone());
        let parsed: Expr = e.to_string().parse().expect("printed form must parse");
        let back = arena.extract(arena.intern(&parsed));
        prop_assert_eq!(&back, &parsed);
        let printed = back.to_string();
        let reparsed: Expr = printed.parse().expect("printed form must parse");
        prop_assert_eq!(
            reparsed,
            parsed,
            "`{}` is not a parse fixpoint",
            printed
        );
    }
}
