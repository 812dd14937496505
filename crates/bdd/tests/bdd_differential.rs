//! Differential matrix for the ROBDD engine against the truth-table
//! oracle, in the variable range where both exist (t ≤ 8):
//!
//! * BDD-canonical equality ⇔ `TruthTable` equality for random
//!   pure-bitwise pairs — canonicity means edge equality is exactly
//!   semantic equality, never weaker, never stronger;
//! * extraction round-trip: `Expr` → BDD → `Expr` is semantics-
//!   preserving, re-verified both by exact truth tables and by
//!   `eval_checked` at widths 1/8/64.

use mba_bdd::{canonicalize, BddManager};
use mba_expr::{Expr, Ident, Valuation};
use mba_sig::TruthTable;
use proptest::prelude::*;

fn varset(t: usize) -> Vec<Ident> {
    ["x", "y", "z", "w", "a", "b", "c", "d"][..t]
        .iter()
        .map(Ident::new)
        .collect()
}

/// Random pure-bitwise expressions over the first `t` variables of
/// [`varset`] (same shape as the sig-crate batch_truth strategy).
fn arb_bitwise(t: usize) -> impl Strategy<Value = Expr> {
    let names: Vec<&'static str> = ["x", "y", "z", "w", "a", "b", "c", "d"][..t].to_vec();
    let leaf = prop_oneof![
        (0..names.len()).prop_map(move |i| Expr::var(names[i])),
        Just(Expr::zero()),
        Just(Expr::minus_one()),
    ];
    leaf.prop_recursive(5, 40, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a & b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a | b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a ^ b),
            inner.prop_map(|e| !e),
        ]
    })
}

/// Deterministic per-seed valuation binding every variable in `vars`.
fn probe_valuation(vars: &[Ident], seed: u64) -> Valuation {
    let mut v = Valuation::new();
    for (i, name) in vars.iter().enumerate() {
        let bits = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64 + 1)
            .wrapping_mul(0xff51_afd7_ed55_8ccd);
        v = v.with(name.clone(), bits);
    }
    v
}

fn bdd_equal_iff_table_equal(a: &Expr, b: &Expr, t: usize) {
    let vars = varset(t);
    let mut mgr = BddManager::new();
    let ea = mgr.build(a, &vars).unwrap();
    let eb = mgr.build(b, &vars).unwrap();
    let ta = TruthTable::of(a, &vars).unwrap();
    let tb = TruthTable::of(b, &vars).unwrap();
    assert_eq!(
        ea == eb,
        ta == tb,
        "BDD and truth table disagree: {a} vs {b}"
    );
    // The complement edge of one side must agree with the complemented
    // table too — exercises the complement-flag canonical form.
    let not_b = TruthTable::of(&!b.clone(), &vars).unwrap();
    assert_eq!(
        ea == eb.complement(),
        ta == not_b,
        "complement: {a} vs ~({b})"
    );
}

fn roundtrip_exact(e: &Expr, t: usize) {
    let vars = varset(t);
    let out = canonicalize(e).expect("pure-bitwise input must canonicalize");
    assert!(out.is_pure_bitwise(), "{e} -> {out}");
    // Exact: the rendered form has the identical truth table.
    assert_eq!(
        TruthTable::of(e, &vars).unwrap(),
        TruthTable::of(&out, &vars).unwrap(),
        "{e} -> {out}"
    );
    // And agrees under strict evaluation at narrow, byte, and full width.
    for width in [1u32, 8, 64] {
        for seed in 0..8u64 {
            let v = probe_valuation(&vars, seed);
            assert_eq!(
                e.eval_checked(&v, width).unwrap(),
                out.eval_checked(&v, width).unwrap(),
                "{e} -> {out} at width {width}"
            );
        }
    }
}

proptest! {
    #[test]
    fn bdd_equality_iff_table_equality_t3(a in arb_bitwise(3), b in arb_bitwise(3)) {
        bdd_equal_iff_table_equal(&a, &b, 3);
    }

    #[test]
    fn bdd_equality_iff_table_equality_t6(a in arb_bitwise(6), b in arb_bitwise(6)) {
        bdd_equal_iff_table_equal(&a, &b, 6);
    }

    #[test]
    fn bdd_equality_iff_table_equality_t8(a in arb_bitwise(8), b in arb_bitwise(8)) {
        bdd_equal_iff_table_equal(&a, &b, 8);
    }

    /// An expression always equals itself rewritten through an
    /// equivalence-preserving xor trick — forces the equal branch of the
    /// ⇔ to be exercised often, not just on coincidences.
    #[test]
    fn bdd_proves_constructed_equivalences(a in arb_bitwise(6), b in arb_bitwise(6)) {
        let vars = varset(6);
        // a ⊕ b ⊕ b ≡ a.
        let rewritten = a.clone() ^ b.clone() ^ b;
        let mut mgr = BddManager::new();
        let lhs = mgr.build(&a, &vars).unwrap();
        let rhs = mgr.build(&rewritten, &vars).unwrap();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn roundtrip_is_exact_t4(e in arb_bitwise(4)) {
        roundtrip_exact(&e, 4);
    }

    #[test]
    fn roundtrip_is_exact_t8(e in arb_bitwise(8)) {
        roundtrip_exact(&e, 8);
    }

    /// A mismatching pair yields a witness valuation from the BDD of the
    /// xor, and the witness really separates the two expressions.
    #[test]
    fn xor_witness_separates(a in arb_bitwise(5), b in arb_bitwise(5)) {
        let vars = varset(5);
        let mut mgr = BddManager::new();
        let ea = mgr.build(&a, &vars).unwrap();
        let eb = mgr.build(&b, &vars).unwrap();
        let diff = mgr.xor(ea, eb).unwrap();
        match mgr.satisfying_valuation(diff, &vars) {
            None => {
                prop_assert_eq!(ea, eb);
            }
            Some(model) => {
                prop_assert_ne!(ea, eb);
                let mut v = Valuation::new();
                for (name, bit) in &model {
                    v = v.with(name.clone(), if *bit { u64::MAX } else { 0 });
                }
                prop_assert_ne!(
                    a.eval_checked(&v, 8).unwrap(),
                    b.eval_checked(&v, 8).unwrap()
                );
            }
        }
    }
}

/// Canonicalization is stable: rendering the rendered form again is a
/// fixpoint (the extraction is itself canonical for a fixed diagram and
/// variable order).
#[test]
fn canonical_render_is_a_fixpoint() {
    for src in [
        "(x & ~y) | (~x & y)",
        "~(x | y) ^ (z & x)",
        "(x | y) & (y | z) & (z | x)",
        "x ^ y ^ z ^ w",
    ] {
        let e: Expr = src.parse().unwrap();
        let once = canonicalize(&e).unwrap();
        let twice = canonicalize(&once).unwrap();
        assert_eq!(once.to_string(), twice.to_string(), "{src}");
    }
}
