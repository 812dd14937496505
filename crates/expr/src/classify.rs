//! Classification of MBA expressions into the paper's three categories
//! (§2.1, Definitions 1 and 2, Figure 2) plus the term decomposition
//! helpers the classifier and the simplifier share.

use std::fmt;

use crate::ast::{BinOp, Expr, UnOp};

/// The category of an MBA expression.
///
/// Following the paper's terminology, [`MbaClass::Polynomial`] means
/// *non-linear* polynomial MBA ("poly MBA"); linear expressions are
/// reported as [`MbaClass::Linear`] even though they satisfy Definition 2
/// as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MbaClass {
    /// `Σ aᵢ·eᵢ` with each `eᵢ` a pure bitwise expression (Definition 1).
    Linear,
    /// `Σ aᵢ·eᵢ` of degree ≤ 1 where every factor is bitwise-with-
    /// constants ([`crate::Expr::is_bitwise_with_consts`]) and at least
    /// one factor carries a non-uniform constant, e.g. `x & 3`. This is
    /// the *semi-linear* extension of the trichotomy (Skees, arXiv
    /// 2406.10016): linear MBA plus constant operands inside the
    /// bitwise layer.
    SemiLinear,
    /// `Σ aᵢ·Π eᵢⱼ` with every factor pure bitwise and at least one term
    /// of degree ≥ 2 (Definition 2, excluding the linear case).
    Polynomial,
    /// Anything else, e.g. a bitwise operator applied to an arithmetic
    /// sub-expression such as `(x − y) ∨ z`.
    NonPolynomial,
}

impl fmt::Display for MbaClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MbaClass::Linear => "linear",
            MbaClass::SemiLinear => "semi-linear",
            MbaClass::Polynomial => "poly",
            MbaClass::NonPolynomial => "non-poly",
        })
    }
}

/// A term of a sum: a sign/constant multiplier and the factor expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumTerm<'a> {
    /// Accumulated sign, `1` or `-1`.
    pub sign: i128,
    /// The addend, guaranteed not to be `Add`, `Sub` or arithmetic `Neg`.
    pub expr: &'a Expr,
}

/// Flattens nested `+`, `-` and unary `-` into a list of signed addends.
///
/// ```
/// use mba_expr::{classify::flatten_sum, Expr};
/// let e: Expr = "x - (y + z)".parse().unwrap();
/// let terms = flatten_sum(&e);
/// let signs: Vec<i128> = terms.iter().map(|t| t.sign).collect();
/// assert_eq!(signs, [1, -1, -1]);
/// ```
pub fn flatten_sum(e: &Expr) -> Vec<SumTerm<'_>> {
    let mut out = Vec::new();
    collect_sum(e, 1, &mut out);
    out
}

fn collect_sum<'a>(e: &'a Expr, sign: i128, out: &mut Vec<SumTerm<'a>>) {
    match e {
        Expr::Binary(BinOp::Add, a, b) => {
            collect_sum(a, sign, out);
            collect_sum(b, sign, out);
        }
        Expr::Binary(BinOp::Sub, a, b) => {
            collect_sum(a, sign, out);
            collect_sum(b, -sign, out);
        }
        Expr::Unary(UnOp::Neg, inner) => collect_sum(inner, -sign, out),
        other => out.push(SumTerm { sign, expr: other }),
    }
}

/// A term decomposed as `coefficient × Π factors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermParts<'a> {
    /// The accumulated integer coefficient (product of all constant
    /// factors and the incoming sign).
    pub coefficient: i128,
    /// The non-constant factors, in source order.
    pub factors: Vec<&'a Expr>,
}

/// Decomposes a (non-sum) term into its constant coefficient and
/// non-constant factors by flattening `*` chains and folding unary minus
/// and constant factors into the coefficient.
///
/// ```
/// use mba_expr::{classify::decompose_term, Expr};
/// let e: Expr = "-2 * (x & y) * 3 * z".parse().unwrap();
/// let parts = decompose_term(&e, 1);
/// assert_eq!(parts.coefficient, -6);
/// assert_eq!(parts.factors.len(), 2);
/// ```
pub fn decompose_term(e: &Expr, sign: i128) -> TermParts<'_> {
    let mut parts = TermParts {
        coefficient: sign,
        factors: Vec::new(),
    };
    collect_factors(e, &mut parts);
    parts
}

fn collect_factors<'a>(e: &'a Expr, parts: &mut TermParts<'a>) {
    match e {
        Expr::Binary(BinOp::Mul, a, b) => {
            collect_factors(a, parts);
            collect_factors(b, parts);
        }
        Expr::Unary(UnOp::Neg, inner) => {
            parts.coefficient = parts.coefficient.wrapping_neg();
            collect_factors(inner, parts);
        }
        Expr::Const(c) => parts.coefficient = parts.coefficient.wrapping_mul(*c),
        other => parts.factors.push(other),
    }
}

/// Classifies an expression per Definitions 1 and 2.
///
/// ```
/// use mba_expr::{classify::classify, Expr, MbaClass};
/// assert_eq!(classify(&"x + 2*y + (x&y) - 3*(x^y) + 4".parse::<Expr>().unwrap()),
///            MbaClass::Linear);
/// assert_eq!(classify(&"x*y + 2*(x&y)".parse::<Expr>().unwrap()),
///            MbaClass::Polynomial);
/// assert_eq!(classify(&"(x - y) | z".parse::<Expr>().unwrap()),
///            MbaClass::NonPolynomial);
/// ```
pub fn classify(e: &Expr) -> MbaClass {
    let mut linear = true;
    let mut semi = false;
    for term in flatten_sum(e) {
        let parts = decompose_term(term.expr, term.sign);
        if parts.factors.len() > 1 {
            // Degree ≥ 2 terms must be all-pure: mixing non-uniform
            // constants into products is outside both Definition 2 and
            // the semi-linear extension, so it stays non-poly.
            if !parts.factors.iter().all(|f| f.is_pure_bitwise()) {
                return MbaClass::NonPolynomial;
            }
            linear = false;
        } else if let [factor] = parts.factors.as_slice() {
            if factor.is_pure_bitwise() {
                // Plain Definition 1 factor.
            } else if factor.is_bitwise_with_consts() {
                // A degree-1 bitwise factor with non-uniform constant
                // operands, e.g. `x & 3`: semi-linear, not non-poly.
                semi = true;
            } else {
                return MbaClass::NonPolynomial;
            }
        }
    }
    match (linear, semi) {
        (true, false) => MbaClass::Linear,
        (true, true) => MbaClass::SemiLinear,
        // A non-uniform constant factor next to a degree ≥ 2 term is
        // outside the semi-linear class; keep it conservative.
        (false, true) => MbaClass::NonPolynomial,
        (false, false) => MbaClass::Polynomial,
    }
}

impl Expr {
    /// Classifies the expression; see [`classify`].
    pub fn mba_class(&self) -> MbaClass {
        classify(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_of(src: &str) -> MbaClass {
        classify(&src.parse::<Expr>().unwrap())
    }

    #[test]
    fn paper_expression_1_is_linear() {
        assert_eq!(class_of("x + 2*y + (x&y) - 3*(x^y) + 4"), MbaClass::Linear);
    }

    #[test]
    fn paper_expression_4_is_polynomial() {
        assert_eq!(
            class_of("x*y + 2*(x&y) + 3*(x&~y)*(x|y) - 5"),
            MbaClass::Polynomial
        );
    }

    #[test]
    fn figure_1_rhs_is_polynomial() {
        assert_eq!(
            class_of("(x&~y)*(~x&y) + (x&y)*(x|y)"),
            MbaClass::Polynomial
        );
    }

    #[test]
    fn bitwise_over_arithmetic_is_non_poly() {
        assert_eq!(class_of("(x - y) | z"), MbaClass::NonPolynomial);
        assert_eq!(class_of("~(x + 1)"), MbaClass::NonPolynomial);
        assert_eq!(
            class_of("((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)"),
            MbaClass::NonPolynomial
        );
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(class_of("42"), MbaClass::Linear);
        assert_eq!(class_of("x"), MbaClass::Linear);
        assert_eq!(class_of("~(x ^ y)"), MbaClass::Linear);
        assert_eq!(class_of("x*y"), MbaClass::Polynomial);
        assert_eq!(class_of("-x"), MbaClass::Linear);
    }

    #[test]
    fn neg_folds_into_coefficient() {
        assert_eq!(class_of("-(3*(x&y))"), MbaClass::Linear);
        let e: Expr = "-(3*(x&y))".parse().unwrap();
        let terms = flatten_sum(&e);
        assert_eq!(terms.len(), 1);
        let parts = decompose_term(terms[0].expr, terms[0].sign);
        assert_eq!(parts.coefficient, -3);
    }

    #[test]
    fn nested_neg_in_factor_position() {
        // -x * y: the unary minus folds into the coefficient.
        let e: Expr = "-x * y".parse().unwrap();
        let terms = flatten_sum(&e);
        let parts = decompose_term(terms[0].expr, terms[0].sign);
        assert_eq!(parts.coefficient, -1);
        assert_eq!(parts.factors.len(), 2);
    }

    #[test]
    fn flatten_handles_deep_mixes() {
        let e: Expr = "a - (b - (c - d))".parse().unwrap();
        let signs: Vec<i128> = flatten_sum(&e).iter().map(|t| t.sign).collect();
        assert_eq!(signs, [1, -1, 1, -1]);
    }

    #[test]
    fn display_names() {
        assert_eq!(MbaClass::Linear.to_string(), "linear");
        assert_eq!(MbaClass::SemiLinear.to_string(), "semi-linear");
        assert_eq!(MbaClass::Polynomial.to_string(), "poly");
        assert_eq!(MbaClass::NonPolynomial.to_string(), "non-poly");
    }

    /// Regression: these constant-offset bitwise shapes used to be
    /// misclassified as non-poly; they are semi-linear (linear MBA with
    /// non-uniform constants inside the bitwise layer).
    #[test]
    fn constant_offset_bitwise_terms_are_semi_linear() {
        assert_eq!(class_of("x & 3"), MbaClass::SemiLinear);
        assert_eq!(class_of("(x | 5) - y"), MbaClass::SemiLinear);
        assert_eq!(class_of("2*(x ^ 7) + (x & y)"), MbaClass::SemiLinear);
        assert_eq!(class_of("(x & 240) + (x & ~240)"), MbaClass::SemiLinear);
        assert_eq!(class_of("~(x & 12) + 4*y"), MbaClass::SemiLinear);
        assert_eq!(class_of("(x ^ 85) | (y & 10)"), MbaClass::SemiLinear);
    }

    /// The reclassification must not leak: arithmetic under a bitwise
    /// operator and constants inside degree ≥ 2 products stay non-poly,
    /// and pure shapes keep their old class.
    #[test]
    fn semi_linear_reclassification_is_conservative() {
        assert_eq!(class_of("~(x + 1)"), MbaClass::NonPolynomial);
        assert_eq!(class_of("(x - y) | 3"), MbaClass::NonPolynomial);
        assert_eq!(class_of("(x & 3) * y"), MbaClass::NonPolynomial);
        assert_eq!(class_of("(x & 3) + x*y"), MbaClass::NonPolynomial);
        assert_eq!(class_of("x & -1"), MbaClass::Linear);
        assert_eq!(class_of("x & 0"), MbaClass::Linear);
        assert_eq!(class_of("x*y + 2*(x&y)"), MbaClass::Polynomial);
    }
}
