//! Exact multivariate polynomial arithmetic over expression atoms —
//! the "ArithReduce" step of Algorithm 1.
//!
//! Atoms are opaque expressions (variables, normalized `∧`-terms, or
//! abstracted subtrees); a monomial is a multiset of atoms (multiplication
//! of bitwise expressions is *not* idempotent on words: `(x∧y)² ≠ x∧y`),
//! and coefficients live in the two's-complement ring `Z/2^w` with
//! symmetric representatives.

use std::collections::BTreeMap;
use std::fmt;

use mba_expr::{BinOp, Expr};
use mba_sig::linear_combination;

/// A monomial: atoms in sorted order, with multiplicity.
pub type Monomial = Vec<Expr>;

/// A polynomial with `i128` coefficients (reduced symmetrically modulo
/// `2^width`) over expression atoms.
///
/// ```
/// use mba_solver::Poly;
/// use mba_expr::Expr;
/// let x = Poly::atom(Expr::var("x"), 64);
/// let y = Poly::atom(Expr::var("y"), 64);
/// // (x + y)·(x − y) = x² − y²
/// let p = x.clone().add(&y).mul(&x.sub(&y)).unwrap();
/// assert_eq!(p.to_expr().to_string(), "x*x-y*y");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    width: u32,
    terms: BTreeMap<Monomial, i128>,
}

/// Default cap on distinct monomials during multiplication; prevents
/// exponential blow-up on adversarial inputs (the simplifier then bails
/// out and keeps the original expression).
pub const DEFAULT_MONOMIAL_CAP: usize = 4096;

/// Reduces `v` to the symmetric representative modulo `2^width`
/// (in `[-2^(width-1), 2^(width-1))`).
fn reduce(v: i128, width: u32) -> i128 {
    debug_assert!((1..=64).contains(&width));
    let modulus = 1i128 << width;
    let half = modulus >> 1;
    let mut r = v.rem_euclid(modulus);
    if r >= half {
        r -= modulus;
    }
    r
}

impl Poly {
    /// The zero polynomial.
    pub fn zero(width: u32) -> Poly {
        Poly {
            width,
            terms: BTreeMap::new(),
        }
    }

    /// A constant polynomial.
    pub fn constant(c: i128, width: u32) -> Poly {
        let mut p = Poly::zero(width);
        p.add_term(Vec::new(), c);
        p
    }

    /// The polynomial consisting of a single atom with coefficient 1.
    pub fn atom(e: Expr, width: u32) -> Poly {
        let mut p = Poly::zero(width);
        p.add_term(vec![e], 1);
        p
    }

    /// Bit width governing coefficient reduction.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Whether the polynomial is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of (non-zero) monomials.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The total degree (0 for constants and the zero polynomial).
    pub fn degree(&self) -> usize {
        self.terms.keys().map(Vec::len).max().unwrap_or(0)
    }

    /// The coefficient of a monomial (0 when absent). Atoms must be given
    /// in sorted order.
    pub fn coefficient(&self, monomial: &[Expr]) -> i128 {
        self.terms.get(monomial).copied().unwrap_or(0)
    }

    /// Iterates over `(monomial, coefficient)` pairs in monomial order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, i128)> {
        self.terms.iter().map(|(m, &c)| (m, c))
    }

    /// Adds `coef · monomial` in place; `monomial` is sorted internally
    /// and zero results are pruned.
    pub fn add_term(&mut self, mut monomial: Monomial, coef: i128) {
        use std::collections::btree_map::Entry;
        monomial.sort();
        let c = reduce(coef, self.width);
        match self.terms.entry(monomial) {
            Entry::Occupied(mut slot) => {
                let v = reduce(slot.get().wrapping_add(c), self.width);
                if v == 0 {
                    slot.remove();
                } else {
                    *slot.get_mut() = v;
                }
            }
            Entry::Vacant(slot) => {
                if c != 0 {
                    slot.insert(c);
                }
            }
        }
    }

    /// `self + other`.
    ///
    /// # Panics
    ///
    /// Panics when the widths differ.
    #[must_use]
    pub fn add(&self, other: &Poly) -> Poly {
        assert_eq!(self.width, other.width, "width mismatch");
        let mut out = self.clone();
        for (m, c) in other.iter() {
            out.add_term(m.clone(), c);
        }
        out
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics when the widths differ.
    #[must_use]
    pub fn sub(&self, other: &Poly) -> Poly {
        self.add(&other.neg())
    }

    /// `-self`.
    #[must_use]
    pub fn neg(&self) -> Poly {
        let mut out = Poly::zero(self.width);
        for (m, c) in self.iter() {
            out.add_term(m.clone(), c.wrapping_neg());
        }
        out
    }

    /// `self · other`, or `None` when the product would exceed
    /// [`DEFAULT_MONOMIAL_CAP`] distinct monomials.
    ///
    /// # Panics
    ///
    /// Panics when the widths differ.
    pub fn mul(&self, other: &Poly) -> Option<Poly> {
        self.mul_capped(other, DEFAULT_MONOMIAL_CAP)
    }

    /// `self · other` with an explicit monomial cap.
    ///
    /// # Panics
    ///
    /// Panics when the widths differ.
    pub fn mul_capped(&self, other: &Poly, cap: usize) -> Option<Poly> {
        assert_eq!(self.width, other.width, "width mismatch");
        let mut out = Poly::zero(self.width);
        for (ma, ca) in self.iter() {
            for (mb, cb) in other.iter() {
                let mut m = ma.clone();
                m.extend(mb.iter().cloned());
                out.add_term(m, ca.wrapping_mul(cb));
                if out.terms.len() > cap {
                    return None;
                }
            }
        }
        Some(out)
    }

    /// Scales every coefficient.
    #[must_use]
    pub fn scale(&self, factor: i128) -> Poly {
        let mut out = Poly::zero(self.width);
        for (m, c) in self.iter() {
            out.add_term(m.clone(), c.wrapping_mul(factor));
        }
        out
    }

    /// Renders the polynomial back into an expression: monomials in
    /// descending degree, ties broken by atom order, constant last.
    ///
    /// The zero polynomial renders as `0`.
    pub fn to_expr(&self) -> Expr {
        let mut monomials: Vec<(&Monomial, i128)> = self.iter().collect();
        monomials.sort_by(|(ma, _), (mb, _)| mb.len().cmp(&ma.len()).then_with(|| ma.cmp(mb)));
        let terms: Vec<(i128, Expr)> = monomials
            .into_iter()
            .map(|(m, c)| (c, product_of(m)))
            .collect();
        linear_combination(&terms)
    }
}

/// The product expression of a monomial; the empty monomial is `1`.
fn product_of(monomial: &[Expr]) -> Expr {
    let mut iter = monomial.iter();
    let Some(first) = iter.next() else {
        return Expr::one();
    };
    iter.fold(first.clone(), |acc, e| {
        Expr::binary(BinOp::Mul, acc, e.clone())
    })
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn atom(name: &str) -> Poly {
        Poly::atom(Expr::var(name), 64)
    }

    #[test]
    fn zero_and_constants() {
        assert!(Poly::zero(64).is_zero());
        assert_eq!(Poly::constant(0, 64), Poly::zero(64));
        assert_eq!(Poly::constant(7, 64).to_expr(), Expr::Const(7));
        assert_eq!(Poly::zero(64).to_expr(), Expr::Const(0));
    }

    #[test]
    fn addition_collects_like_terms() {
        let p = atom("x").add(&atom("x"));
        assert_eq!(p.to_expr().to_string(), "2*x");
        let q = p.sub(&atom("x").scale(2));
        assert!(q.is_zero());
    }

    #[test]
    fn multiplication_expands() {
        let x = atom("x");
        let y = atom("y");
        // (x + y)² = x² + 2xy + y²
        let p = x.add(&y);
        let sq = p.mul(&p).unwrap();
        assert_eq!(sq.num_terms(), 3);
        assert_eq!(sq.coefficient(&[Expr::var("x"), Expr::var("x")]), 1);
        assert_eq!(sq.coefficient(&[Expr::var("x"), Expr::var("y")]), 2);
        assert_eq!(sq.coefficient(&[Expr::var("y"), Expr::var("y")]), 1);
        assert_eq!(sq.degree(), 2);
    }

    #[test]
    fn figure_1_cancellation() {
        // (x − a)(y − a) + a(x + y − a) = xy where a stands for x∧y.
        let (x, y, a) = (atom("x"), atom("y"), atom("a"));
        let p = x
            .sub(&a)
            .mul(&y.sub(&a))
            .unwrap()
            .add(&a.mul(&x.add(&y).sub(&a)).unwrap());
        assert_eq!(p.to_expr().to_string(), "x*y");
    }

    #[test]
    fn monomials_are_multisets_not_sets() {
        let a = atom("a");
        let sq = a.mul(&a).unwrap();
        assert_eq!(sq.to_expr().to_string(), "a*a");
        assert_eq!(sq.degree(), 2);
        // a·a ≠ a: they are distinct monomials.
        assert!(!sq.sub(&a).is_zero());
    }

    #[test]
    fn coefficients_reduce_symmetrically() {
        // Width 8: 200 ≡ -56 (mod 256).
        let p = Poly::constant(200, 8);
        assert_eq!(p.coefficient(&[]), -56);
        // 128 maps to -128 (symmetric range is [-128, 128)).
        assert_eq!(Poly::constant(128, 8).coefficient(&[]), -128);
        // Width-8 multiplication wraps: 16 * 16 = 256 ≡ 0.
        let q = Poly::constant(16, 8).mul(&Poly::constant(16, 8)).unwrap();
        assert!(q.is_zero());
    }

    #[test]
    fn mul_cap_triggers_bailout() {
        // (a0 + ... + a9)² has 55 distinct monomials; a cap of 40 must
        // bail while a loose cap succeeds.
        let sum = (0..10).fold(Poly::zero(64), |acc, i| acc.add(&atom(&format!("a{i}"))));
        assert!(sum.mul_capped(&sum, 40).is_none());
        assert_eq!(sum.mul_capped(&sum, 100).unwrap().num_terms(), 55);
    }

    #[test]
    fn rendering_order_is_degree_major() {
        let p = Poly::constant(3, 64)
            .add(&atom("x"))
            .add(&atom("x").mul(&atom("y")).unwrap());
        assert_eq!(p.to_expr().to_string(), "x*y+x+3");
    }

    #[test]
    fn rendered_expression_evaluates_like_the_polynomial() {
        let x = atom("x");
        let y = atom("y");
        let p = x
            .mul(&y)
            .unwrap()
            .sub(&y.scale(3))
            .add(&Poly::constant(9, 64));
        let e = p.to_expr();
        let v = Valuation::new().with("x", 11).with("y", 5);
        assert_eq!(e.eval(&v, 64), (11 * 5 - 3 * 5 + 9) as u64);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let _ = Poly::constant(1, 8).add(&Poly::constant(1, 16));
    }
}
