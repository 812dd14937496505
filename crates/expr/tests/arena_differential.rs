//! Arena-vs-tree differential properties: everything the hash-consed
//! [`ExprArena`] precomputes or compiles must agree, bit for bit, with
//! the `Box`-tree implementation it shadows. These hold the arena's core
//! contract — interning is lossless, id equality *is* structural
//! equality, per-node metadata replicates the tree predicates, and the
//! id-compiled evaluation tape is byte-identical to the tree-compiled
//! one (so every downstream consumer — truth tables, corner signatures,
//! coefficient recovery — inherits agreement for free).

use mba_expr::metrics::alternation;
use mba_expr::{BinOp, EvalProgram, Expr, ExprArena, UnOp, Valuation};
use proptest::prelude::*;

/// Strategy generating arbitrary MBA expressions over {x, y, z}.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-64i128..=64).prop_map(Expr::Const),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Expr::var),
    ];
    leaf.prop_recursive(6, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop())
                .prop_map(|(a, b, op)| Expr::binary(op, a, b)),
            (inner, arb_unop()).prop_map(|(e, op)| Expr::unary(op, e)),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)]
}

proptest! {
    /// Interning then extracting returns a structurally identical tree —
    /// hash-consing shares storage, never meaning.
    #[test]
    fn intern_extract_roundtrip(e in arb_expr()) {
        let arena = ExprArena::new();
        let id = arena.intern(&e);
        prop_assert_eq!(arena.extract(id), e);
    }

    /// Structural equality of trees is id equality in a shared arena —
    /// both directions, which is what makes O(1) equality sound.
    #[test]
    fn structural_equality_is_id_equality(a in arb_expr(), b in arb_expr()) {
        let arena = ExprArena::new();
        let (ia, ib) = (arena.intern(&a), arena.intern(&b));
        prop_assert_eq!(a == b, ia == ib, "trees {} / {}", a, b);
    }

    /// Every piece of per-node metadata the arena precomputes at intern
    /// time agrees with the corresponding tree-walking predicate,
    /// including the negated-literal chain folding (`-0`, `- -1`) that
    /// `is_pure_bitwise` depends on.
    #[test]
    fn metadata_agrees_with_tree_predicates(e in arb_expr()) {
        let arena = ExprArena::new();
        let id = arena.intern(&e);
        prop_assert_eq!(arena.node_count(id), e.node_count());
        prop_assert_eq!(arena.alternation(id), alternation(&arena.extract(id)));
        prop_assert_eq!(arena.is_pure_bitwise(id), e.is_pure_bitwise());
        prop_assert_eq!(
            arena.is_bitwise_with_consts(id),
            e.is_bitwise_with_consts()
        );
        prop_assert_eq!(arena.as_literal(id), e.as_literal());
        let tree_vars: Vec<_> = e.vars().into_iter().collect();
        prop_assert_eq!(arena.vars(id), tree_vars);
    }

    /// The id-level MBA classifier agrees with the tree classifier on
    /// every shape — linear, semi-linear, polynomial, non-polynomial.
    #[test]
    fn classification_agrees(e in arb_expr()) {
        let arena = ExprArena::new();
        prop_assert_eq!(arena.classify(arena.intern(&e)), e.mba_class());
    }

    /// Compiling straight from node ids emits the *same tape* as
    /// compiling the tree — and therefore evaluates identically at
    /// every width. Byte-identity of every downstream signature
    /// artifact reduces to this property.
    #[test]
    fn arena_tape_matches_tree_tape_and_eval(
        e in arb_expr(),
        x in any::<u64>(),
        y in any::<u64>(),
        z in any::<u64>(),
        w in 1u32..=64,
    ) {
        let arena = ExprArena::new();
        let id = arena.intern(&e);
        let tree = EvalProgram::compile(&e);
        let from_ids = EvalProgram::compile_arena(&arena, id);
        prop_assert_eq!(&from_ids, &tree, "tapes differ for `{}`", e);
        let v = Valuation::new().with("x", x).with("y", y).with("z", z);
        let got = from_ids
            .eval_valuations(std::slice::from_ref(&v), w)
            .expect("x/y/z bound")[0];
        prop_assert_eq!(got, e.eval(&v, w), "`{}` at width {}", e, w);
    }

    /// Re-interning the same tree into the same arena is a pure lookup:
    /// the id is stable and the node store does not grow.
    #[test]
    fn repeat_interning_is_stable_and_allocation_free(e in arb_expr()) {
        let arena = ExprArena::new();
        let first = arena.intern(&e);
        let len = arena.len();
        let hits = arena.stats().interned_hits;
        let second = arena.intern(&e);
        prop_assert_eq!(first, second);
        prop_assert_eq!(arena.len(), len);
        prop_assert!(arena.stats().interned_hits > hits);
    }
}
