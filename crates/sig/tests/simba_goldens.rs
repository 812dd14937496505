//! Golden pins for the SiMBA-style fast route.
//!
//! The corner-recovery examples are the worked examples of the SiMBA
//! paper (arXiv 2209.06335): evaluate a linear MBA on the 2^t
//! valuations drawing each variable from {0, −1}, negate and reduce,
//! and the resulting corner signature Möbius-inverts straight into the
//! ∧-basis coefficients. The semi-linear identities are drawn from the
//! equivalence classes of arXiv 2406.10016 (bitwise operands extended
//! with constants): each must classify as `SemiLinear` and hold at
//! every power-of-two width — they are the shapes the pipeline's
//! group-mask tier re-fuses.

use mba_expr::{classify::classify, Expr, Ident, MbaClass, Valuation};
use mba_sig::{simba, SignatureVector};

fn vars_of(e: &Expr) -> Vec<Ident> {
    e.vars().into_iter().collect()
}

#[test]
fn corner_signature_golden_running_example() {
    // The paper's running example: e = 2*(x|y) − (~x∧y) − (x∧~y).
    // Corners in MSB-first order (x is the high selector bit):
    //   (0,0) → 0, (0,−1) → 1, (−1,0) → 1, (−1,−1) → 2.
    let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
    let vars = vars_of(&e);
    assert_eq!(
        simba::corner_signature(&e, &vars, 64).unwrap(),
        vec![0, 1, 1, 2]
    );
    // Möbius inversion of [0,1,1,2] is [0,1,1,0]: coefficient 1 on x,
    // 1 on y, 0 on x∧y and on the −1 column — i.e. x + y.
    assert_eq!(
        simba::simplify_linear(&e, &vars, 64).unwrap().to_string(),
        "x+y"
    );
}

#[test]
fn corner_signature_golden_three_variables() {
    // e = x + y + z + 1 over corners (x,y,z) ∈ {0,−1}³, x the MSB
    // selector: s_r = −e(corner_r), so the all-zero corner gives −1 and
    // the all-ones corner gives −(−3+1) = 2.
    let e: Expr = "x + y + z + 1".parse().unwrap();
    let vars = vars_of(&e);
    assert_eq!(
        simba::corner_signature(&e, &vars, 64).unwrap(),
        vec![-1, 0, 0, 1, 0, 1, 1, 2]
    );
}

#[test]
fn corner_signature_golden_constant_offset() {
    // e = x + 4: s = [−e(0), −e(−1)] = [−4, −3].
    let e: Expr = "x + 4".parse().unwrap();
    let vars = vars_of(&e);
    assert_eq!(
        simba::corner_signature(&e, &vars, 64).unwrap(),
        vec![-4, -3]
    );
}

#[test]
fn corner_signature_golden_wraps_at_narrow_width() {
    // e = 200·x at width 8: 200·255 ≡ 56 (mod 256), so the all-ones
    // corner reads −56 after symmetric reduction — corner recovery is
    // exact mod 2^w, not over ℤ.
    let e: Expr = "200*x".parse().unwrap();
    let vars = vars_of(&e);
    assert_eq!(simba::corner_signature(&e, &vars, 8).unwrap(), vec![0, -56]);
    // And the recovered combination stays byte-identical to the exact
    // route after the same reduction: 200 ≡ −56 (mod 256).
    assert_eq!(
        simba::simplify_linear(&e, &vars, 8).unwrap().to_string(),
        "-56*x"
    );
}

#[test]
fn corner_recovery_matches_exact_route_on_paper_examples() {
    for src in [
        "2*(x|y) - (~x&y) - (x&~y)",
        "x + y - 2*(x&y)",
        "(x|y) + (x&y)",
        "x + y + z + 1",
        "3*(x^y) + 2*(x&y) - (x|y)",
    ] {
        let e: Expr = src.parse().unwrap();
        let vars = vars_of(&e);
        let fast = simba::simplify_linear(&e, &vars, 64).unwrap();
        let exact = SignatureVector::of_linear(&e, &vars)
            .unwrap()
            .to_normalized_expr(&vars);
        assert_eq!(fast.to_string(), exact.to_string(), "diverged on `{src}`");
    }
}

/// The ≥5 semi-linear identity goldens: lhs ≡ rhs at widths 8/16/32/64,
/// and every lhs sits in the `SemiLinear` class (linear skeleton whose
/// bitwise factors carry constants), i.e. outside the pure-linear
/// fragment the corner route handles but inside the group-mask tier's.
#[test]
fn semi_linear_identity_goldens() {
    let identities: [(&str, &str); 6] = [
        // Mask-split re-fusion: complementary masks of one variable.
        ("(x & 240) + (x & ~240)", "x"),
        // |/& exchange with a shared constant operand.
        ("(x | 5) + (x & 5)", "x + 5"),
        // Xor-wrap involution.
        ("(x ^ 85) ^ 85", "x"),
        // Or-with-constant unfolded against subtraction.
        ("(x | 3) - 3", "x & ~3"),
        // Complement closure under a constant mask.
        ("(x & 12) + ~(x & 12)", "-1"),
        // Three-way mask partition of the full width.
        ("(x & 3) + (x & 12) + (x & ~15)", "x"),
    ];
    for (lhs_src, rhs_src) in identities {
        let lhs: Expr = lhs_src.parse().unwrap();
        let rhs: Expr = rhs_src.parse().unwrap();
        assert_eq!(
            classify(&lhs),
            MbaClass::SemiLinear,
            "`{lhs_src}` must classify semi-linear"
        );
        for w in [8u32, 16, 32, 64] {
            for x in [0u64, 1, 2, 3, 12, 85, 170, 240, 255, 0xdead_beef, u64::MAX] {
                let v = Valuation::new().with("x", x);
                assert_eq!(
                    lhs.eval(&v, w),
                    rhs.eval(&v, w),
                    "`{lhs_src}` != `{rhs_src}` at width {w}, x={x}"
                );
            }
        }
    }
}

/// Semi-linear shapes are exactly the ones the pure-linear corner route
/// must *not* claim: `of_linear` rejects them, so the pipeline's
/// trichotomy (linear / semi-linear / truth-table) is well-posed.
#[test]
fn semi_linear_goldens_are_outside_the_linear_fragment() {
    for src in [
        "(x & 240) + (x & ~240)",
        "(x | 5) + (x & 5)",
        "(x ^ 85) ^ 85",
        "(x & 12) + ~(x & 12)",
        "(x & 3) + (x & 12) + (x & ~15)",
    ] {
        let e: Expr = src.parse().unwrap();
        let vars = vars_of(&e);
        assert!(
            SignatureVector::of_linear(&e, &vars).is_err(),
            "`{src}` unexpectedly fits Definition 1's linear fragment"
        );
    }
}
