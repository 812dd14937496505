//! End-to-end checks of the paper's concrete, citable claims — every
//! worked example from §1–§4 must reproduce exactly.

use mba::expr::{metrics::alternation, Expr, Ident, Valuation};
use mba::linalg::Matrix;
use mba::sig::{table, SignatureVector};
use mba::smt::{CheckOutcome, SmtSolver, SolverProfile};
use mba::solver::Simplifier;

#[test]
fn figure_1_identity_is_simplified_and_proven() {
    // Z3 cannot decide this in an hour (paper Figure 1); after
    // MBA-Solver it is trivial.
    let hard: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
    let simplified = Simplifier::new().simplify(&hard);
    assert_eq!(simplified.to_string(), "x*y");

    for profile in SolverProfile::all() {
        let solver = SmtSolver::new(profile.clone());
        let r = solver.check_equivalence(&simplified, &"x*y".parse().unwrap(), 16, None);
        assert_eq!(r.outcome, CheckOutcome::Equivalent, "{}", profile.name);
        assert!(r.solved_by_rewriting, "{} needed search", profile.name);
    }
}

#[test]
fn example_1_nullspace_construction() {
    // §2.1 Example 1: the kernel of the truth-table matrix yields
    // x − y = (x⊕y) + 2(x∨¬y) + 2.
    let m = Matrix::from_i128_rows(&[
        vec![0, 0, 0, 1, 1],
        vec![0, 1, 1, 0, 1],
        vec![1, 0, 1, 1, 1],
        vec![1, 1, 0, 1, 1],
    ]);
    let kernel = m.integer_kernel();
    assert_eq!(kernel.len(), 1);

    // The derived identity holds on the two's-complement ring.
    let lhs: Expr = "x - y".parse().unwrap();
    let rhs: Expr = "(x ^ y) + 2*(x | ~y) + 2".parse().unwrap();
    for (x, y) in [(0u64, 0u64), (200, 13), (u64::MAX, 77)] {
        let v = Valuation::new().with("x", x).with("y", y);
        for w in [8, 32, 64] {
            assert_eq!(lhs.eval(&v, w), rhs.eval(&v, w));
        }
    }
    // And MBA-Solver inverts it.
    assert_eq!(Simplifier::new().simplify(&rhs).to_string(), "x-y");
}

#[test]
fn example_2_signature_vector_is_0112() {
    let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
    let vars: Vec<Ident> = e.vars().into_iter().collect();
    let sig = SignatureVector::of_linear(&e, &vars).unwrap();
    assert_eq!(sig.components(), [0, 1, 1, 2]);
    // §4.2: the minterm decomposition gives (¬x∧y) + (x∧¬y) + 2(x∧y),
    // which shares the signature.
    let e2: Expr = "(~x&y) + (x&~y) + 2*(x&y)".parse().unwrap();
    let sig2 = SignatureVector::of_linear(&e2, &vars).unwrap();
    assert_eq!(sig, sig2);
    // §4.3: the normalized basis yields x + y.
    assert_eq!(sig.to_normalized_expr(&vars).to_string(), "x+y");
}

#[test]
fn table_5_rows_are_generated_verbatim() {
    let rows = table::two_variable_table();
    let find = |sig: [i128; 4]| {
        rows.iter()
            .find(|r| r.signature.components() == sig)
            .map(|r| r.expression.to_string())
            .expect("row present")
    };
    assert_eq!(find([0, 0, 1, 0]), "x-(x&y)");
    assert_eq!(find([0, 1, 0, 0]), "y-(x&y)");
    assert_eq!(find([0, 1, 1, 1]), "x+y-(x&y)");
    assert_eq!(find([1, 0, 0, 1]), "-x-y+2*(x&y)-1");
    assert_eq!(find([1, 1, 1, 0]), "-(x&y)-1");
}

#[test]
fn section_4_5_common_subexpression_walkthrough() {
    // ((x∧¬y − ¬x∧y) ∨ z) + ((x∧¬y − ¬x∧y) ∧ z) = x − y + z.
    let e: Expr = "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)"
        .parse()
        .unwrap();
    let out = Simplifier::new().simplify(&e);
    assert_eq!(out.to_string(), "x-y+z");
    // Alternation drops from mixed to zero — the paper's whole point.
    assert!(alternation(&e) >= 2);
    assert_eq!(alternation(&out), 0);
}

#[test]
fn final_step_recovers_xor_from_section_4_5() {
    // x + y − 2(x∧y) → x⊕y (alternation 1 → 0).
    let e: Expr = "x + y - 2*(x&y)".parse().unwrap();
    let out = Simplifier::new().simplify(&e);
    assert_eq!(out.to_string(), "x^y");
}

#[test]
fn discussion_not_x_minus_1_is_handled() {
    // §6.1 reports the prototype failing on ¬(x−1) = −x; the opaque
    // abstraction pipeline gets it right.
    let e: Expr = "~(x - 1)".parse().unwrap();
    assert_eq!(Simplifier::new().simplify(&e).to_string(), "-x");
}

#[test]
fn background_hakmem_identities_prove_at_all_profiles() {
    // Equations (2) and (3): x∨y = (x∧¬y)+y and x⊕y = (x∨y)−(x∧y).
    for (lhs, rhs) in [("x | y", "(x & ~y) + y"), ("x ^ y", "(x | y) - (x & y)")] {
        for profile in SolverProfile::all() {
            let solver = SmtSolver::new(profile.clone());
            let r =
                solver.check_equivalence(&lhs.parse().unwrap(), &rhs.parse().unwrap(), 16, None);
            assert_eq!(
                r.outcome,
                CheckOutcome::Equivalent,
                "{lhs} == {rhs} with {}",
                profile.name
            );
        }
    }
}
