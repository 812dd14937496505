//! The five complexity metrics of the paper's §3.1 study.

use std::fmt;

use crate::ast::{Expr, OpDomain};
use crate::classify::{classify, decompose_term, flatten_sum, MbaClass};

/// Complexity measurements for one MBA expression (paper §3.1).
///
/// ```
/// use mba_expr::{Expr, Metrics};
/// let e: Expr = "x + 2*y + (x&y) - 3*(x^y) + 4".parse().unwrap();
/// let m = Metrics::of(&e);
/// assert_eq!(m.num_vars, 2);
/// assert_eq!(m.num_terms, 5);
/// assert_eq!(m.max_coefficient, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// MBA type: linear, poly, or non-poly.
    pub class: MbaClass,
    /// Number of distinct variables.
    pub num_vars: usize,
    /// Number of operators that connect arithmetic and bitwise computation
    /// (the paper's dominant difficulty factor, Figure 3).
    pub alternation: usize,
    /// Length of the canonical printed form, in bytes.
    pub length: usize,
    /// Number of top-level terms after flattening `+`/`-`.
    pub num_terms: usize,
    /// Largest absolute coefficient over all terms.
    pub max_coefficient: u128,
}

impl Metrics {
    /// Measures `e`.
    pub fn of(e: &Expr) -> Self {
        Metrics {
            class: classify(e),
            num_vars: e.vars().len(),
            alternation: alternation(e),
            length: e.to_string().len(),
            num_terms: flatten_sum(e).len(),
            max_coefficient: max_coefficient(e),
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} MBA: vars={} alternation={} length={} terms={} max|coef|={}",
            self.class,
            self.num_vars,
            self.alternation,
            self.length,
            self.num_terms,
            self.max_coefficient
        )
    }
}

/// Counts the *MBA alternation*: the number of operator nodes with at
/// least one operand rooted in the opposite domain (§3.1, metric 3).
///
/// Leaves are domain-neutral, so `x + y` and `x & y` both have
/// alternation 0, while `(x ∧ y) + 2·z` has alternation 1 (the `+`).
///
/// ```
/// use mba_expr::{metrics::alternation, Expr};
/// assert_eq!(alternation(&"(x & y) + 2*z".parse::<Expr>().unwrap()), 1);
/// assert_eq!(alternation(&"x + y * z".parse::<Expr>().unwrap()), 0);
/// ```
pub fn alternation(e: &Expr) -> usize {
    match e {
        Expr::Const(_) | Expr::Var(_) => 0,
        Expr::Unary(op, inner) => {
            let connects = matches!(inner.top_domain(), Some(d) if d != op.domain());
            usize::from(connects) + alternation(inner)
        }
        Expr::Binary(op, a, b) => {
            let connects = [a, b]
                .iter()
                .any(|c| matches!(c.top_domain(), Some(d) if d != op.domain()));
            usize::from(connects) + alternation(a) + alternation(b)
        }
    }
}

/// Largest absolute coefficient across the expression's terms. Constant
/// terms count as their own coefficient; terms without an explicit
/// constant factor count as 1.
pub fn max_coefficient(e: &Expr) -> u128 {
    flatten_sum(e)
        .iter()
        .map(|t| decompose_term(t.expr, t.sign).coefficient.unsigned_abs())
        .max()
        .unwrap_or(0)
}

/// Returns true if the subtree contains at least one operator from each
/// domain — a cheap "is this actually mixed?" predicate used by the
/// corpus generator.
pub fn is_mixed(e: &Expr) -> bool {
    fn scan(e: &Expr, seen_arith: &mut bool, seen_bit: &mut bool) {
        match e.top_domain() {
            Some(OpDomain::Arithmetic) => *seen_arith = true,
            Some(OpDomain::Bitwise) => *seen_bit = true,
            None => {}
        }
        match e {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Unary(_, inner) => scan(inner, seen_arith, seen_bit),
            Expr::Binary(_, a, b) => {
                scan(a, seen_arith, seen_bit);
                scan(b, seen_arith, seen_bit);
            }
        }
    }
    let (mut a, mut b) = (false, false);
    scan(e, &mut a, &mut b);
    a && b
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alt(src: &str) -> usize {
        alternation(&src.parse::<Expr>().unwrap())
    }

    #[test]
    fn pure_expressions_have_zero_alternation() {
        assert_eq!(alt("x + y*z - 3"), 0);
        assert_eq!(alt("~(x & y) ^ (x | z)"), 0);
        assert_eq!(alt("x"), 0);
    }

    #[test]
    fn paper_example_alternation() {
        // (x ∧ y) + 2z: the + connects a bitwise operand (§3.1).
        assert_eq!(alt("(x & y) + 2*z"), 1);
    }

    #[test]
    fn each_connecting_operator_counts_once() {
        // Sum of three bitwise terms: two + operators, each connecting.
        assert_eq!(alt("(x&y) + (x|y) + (x^y)"), 2);
        // Multiplying by a coefficient: each `*` connects, while the `+`
        // joins two arithmetic products and does not.
        assert_eq!(alt("2*(x&y) + 3*(x|y)"), 2);
    }

    #[test]
    fn unary_alternation() {
        assert_eq!(alt("~(x + y)"), 1);
        assert_eq!(alt("-(x & y)"), 1);
        assert_eq!(alt("~x"), 0);
    }

    #[test]
    fn simplification_example_reduces_alternation() {
        // §4.3: 2(x∨y) − (¬x∧y) − (x∧¬y) has alternation 3; x+y has 0.
        assert_eq!(alt("2*(x|y) - (~x&y) - (x&~y)"), 3);
        assert_eq!(alt("x + y"), 0);
        // §4.5: x + y − 2(x∧y) has alternation 1; x⊕y has 0.
        assert_eq!(alt("x + y - 2*(x&y)"), 1);
        assert_eq!(alt("x ^ y"), 0);
    }

    #[test]
    fn max_coefficient_cases() {
        assert_eq!(max_coefficient(&"x + 2*y - 35*(x&y)".parse().unwrap()), 35);
        assert_eq!(max_coefficient(&"x - y".parse().unwrap()), 1);
        assert_eq!(max_coefficient(&"7".parse().unwrap()), 7);
        assert_eq!(max_coefficient(&"x + 4".parse().unwrap()), 4);
    }

    #[test]
    fn metrics_of_full_expression() {
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        let m = Metrics::of(&e);
        assert_eq!(m.class, MbaClass::Linear);
        assert_eq!(m.num_vars, 2);
        assert_eq!(m.alternation, 3);
        assert_eq!(m.num_terms, 3);
        assert_eq!(m.max_coefficient, 2);
        assert_eq!(m.length, "2*(x|y)-(~x&y)-(x&~y)".len());
    }

    #[test]
    fn is_mixed_predicate() {
        assert!(is_mixed(&"(x&y)+1".parse().unwrap()));
        assert!(!is_mixed(&"x+y".parse().unwrap()));
        assert!(!is_mixed(&"x&y".parse().unwrap()));
    }
}
