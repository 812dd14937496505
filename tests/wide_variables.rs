//! The block-storage truth-table extension: simplification beyond the
//! paper prototype's variable limit (up to 12 variables).

use mba::expr::{Expr, Ident, Valuation};
use mba::sig::{SignatureVector, TruthTable};
use mba::solver::Simplifier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn var_names(n: usize) -> Vec<Ident> {
    (0..n).map(|i| Ident::new(format!("v{i}"))).collect()
}

#[test]
fn eight_variable_linear_mba_normalizes() {
    // Σ over 8 variables with a cancelling pair of wide OR-terms.
    let vars = var_names(8);
    let wide_or = vars
        .iter()
        .skip(1)
        .fold(Expr::var(vars[0].clone()), |acc, v| {
            acc | Expr::var(v.clone())
        });
    let e = wide_or.clone() + Expr::var("v3") - wide_or;
    let out = Simplifier::new().simplify(&e);
    assert_eq!(out.to_string(), "v3");
}

#[test]
fn ten_variable_signature_roundtrip() {
    let vars = var_names(10);
    // A linear MBA mixing three wide bitwise terms.
    let conj = vars
        .iter()
        .take(10)
        .skip(1)
        .fold(Expr::var(vars[0].clone()), |acc, v| {
            acc & Expr::var(v.clone())
        });
    let xor = Expr::var("v0") ^ Expr::var("v9");
    let e = Expr::constant(3) * conj.clone() - xor.clone() + Expr::constant(5);
    let sig = SignatureVector::of_linear(&e, &vars).expect("10-var signature");
    assert_eq!(sig.components().len(), 1024);
    let normalized = sig.to_normalized_expr(&vars);

    // Semantic check on random points.
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..16 {
        let v: Valuation = vars.iter().map(|n| (n.clone(), rng.gen())).collect();
        for w in [8u32, 64] {
            assert_eq!(e.eval(&v, w), normalized.eval(&v, w));
        }
    }
}

#[test]
fn thirteen_variables_stay_opaque_but_sound() {
    // Past MAX_VARS the simplifier must keep the subtree opaque rather
    // than mis-normalize.
    let vars = var_names(13);
    let wide = vars
        .iter()
        .skip(1)
        .fold(Expr::var(vars[0].clone()), |acc, v| {
            acc | Expr::var(v.clone())
        });
    let e = wide.clone() + Expr::constant(0);
    let out = Simplifier::new().simplify(&e);
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..8 {
        let v: Valuation = vars.iter().map(|n| (n.clone(), rng.gen())).collect();
        assert_eq!(e.eval(&v, 64), out.eval(&v, 64));
    }
}

#[test]
fn wide_truth_table_agrees_with_direct_evaluation() {
    let vars = var_names(9);
    let e = (Expr::var("v0") & Expr::var("v5")) ^ (Expr::var("v8") | Expr::var("v2"));
    let tt = TruthTable::of(&e, &vars).expect("9-var table");
    assert_eq!(tt.num_rows(), 512);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..64 {
        let row: usize = rng.gen_range(0..512);
        let mut v = Valuation::new();
        for (j, name) in vars.iter().enumerate() {
            v.set(name.clone(), ((row >> (8 - j)) & 1) as u64);
        }
        assert_eq!(tt.row(row), e.eval(&v, 1) == 1, "row {row}");
    }
}
