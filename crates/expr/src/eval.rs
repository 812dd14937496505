//! Evaluation of MBA expressions over `w`-bit two's-complement bit-vectors.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{BinOp, Expr, Ident, UnOp};

/// Error returned by the strict evaluation entry points
/// ([`Expr::eval_checked`], [`crate::EvalProgram::bind`]) when an
/// expression mentions a variable the valuation does not bind.
///
/// The lenient [`Expr::eval`] reads unbound variables as 0, which is
/// the right default for constant folding (`pipeline.rs` evaluates
/// variable-free skeletons under an empty valuation) but silently makes
/// two *inequivalent* expressions agree when a variable is mistyped or
/// renamed — exactly the failure mode an equivalence oracle must not
/// have. Strict callers get this error instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnboundVariableError {
    name: Ident,
}

impl UnboundVariableError {
    /// The variable that was not bound.
    pub fn name(&self) -> &Ident {
        &self.name
    }
}

impl fmt::Display for UnboundVariableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unbound variable `{}`", self.name)
    }
}

impl std::error::Error for UnboundVariableError {}

/// Masks `value` to the low `width` bits.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 64.
///
/// ```
/// use mba_expr::mask;
/// assert_eq!(mask(0x1ff, 8), 0xff);
/// assert_eq!(mask(u64::MAX, 64), u64::MAX);
/// ```
pub fn mask(value: u64, width: u32) -> u64 {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    if width == 64 {
        value
    } else {
        value & ((1u64 << width) - 1)
    }
}

/// Reduces a (possibly negative) constant into the `w`-bit ring `Z/2^w`.
pub(crate) fn const_to_bits(c: i128, width: u32) -> u64 {
    mask(c as u64, width)
}

/// A variable assignment: a map from identifiers to `u64` values.
///
/// Values are masked to the evaluation width on use, so a valuation built
/// at one width can be reused at another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    values: BTreeMap<Ident, u64>,
}

impl Valuation {
    /// Creates an empty valuation (all variables default to 0).
    pub fn new() -> Self {
        Valuation::default()
    }

    /// Builder-style insertion.
    ///
    /// ```
    /// use mba_expr::{Expr, Valuation};
    /// let v = Valuation::new().with("x", 3).with("y", 5);
    /// let e: Expr = "x*y".parse().unwrap();
    /// assert_eq!(e.eval(&v, 64), 15);
    /// ```
    #[must_use]
    pub fn with(mut self, name: impl Into<Ident>, value: u64) -> Self {
        self.values.insert(name.into(), value);
        self
    }

    /// Inserts a binding, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<Ident>, value: u64) -> Option<u64> {
        self.values.insert(name.into(), value)
    }

    /// Looks up a variable; unbound variables read as 0.
    pub fn get(&self, name: &Ident) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Strict lookup: unbound variables are an error instead of 0.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVariableError`] when `name` has no binding.
    pub fn get_checked(&self, name: &Ident) -> Result<u64, UnboundVariableError> {
        self.values
            .get(name)
            .copied()
            .ok_or_else(|| UnboundVariableError { name: name.clone() })
    }

    /// Iterates over the bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ident, u64)> {
        self.values.iter().map(|(k, &v)| (k, v))
    }
}

impl FromIterator<(Ident, u64)> for Valuation {
    fn from_iter<I: IntoIterator<Item = (Ident, u64)>>(iter: I) -> Self {
        Valuation {
            values: iter.into_iter().collect(),
        }
    }
}

impl Extend<(Ident, u64)> for Valuation {
    fn extend<I: IntoIterator<Item = (Ident, u64)>>(&mut self, iter: I) {
        self.values.extend(iter);
    }
}

impl Expr {
    /// Evaluates the expression at `width` bits under `valuation`.
    ///
    /// All arithmetic wraps modulo `2^width` (the integer modular ring of
    /// §2.1); unbound variables read as 0. The result is masked to
    /// `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    ///
    /// ```
    /// use mba_expr::{Expr, Valuation};
    /// // Equation (2) from the paper: x|y == (x & ~y) + y.
    /// let lhs: Expr = "x | y".parse().unwrap();
    /// let rhs: Expr = "(x & ~y) + y".parse().unwrap();
    /// let v = Valuation::new().with("x", 0xbeef).with("y", 0x1234);
    /// assert_eq!(lhs.eval(&v, 16), rhs.eval(&v, 16));
    /// ```
    pub fn eval(&self, valuation: &Valuation, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        mask(self.eval_wrapping(valuation, width), width)
    }

    /// Strict evaluation: like [`Expr::eval`], but an unbound variable
    /// is an error instead of silently reading 0.
    ///
    /// Use this wherever two expressions are *compared* by evaluation
    /// (equivalence oracles, differential tests): under the lenient
    /// default, a mistyped or renamed variable collapses to 0 on both
    /// sides and inequivalent expressions can agree on every sample.
    ///
    /// # Errors
    ///
    /// Returns [`UnboundVariableError`] naming the first unbound
    /// variable encountered (post-order).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    ///
    /// ```
    /// use mba_expr::{Expr, Valuation};
    /// let e: Expr = "x + y".parse().unwrap();
    /// let v = Valuation::new().with("x", 1);
    /// assert_eq!(e.eval(&v, 8), 1); // lenient: y reads 0
    /// assert!(e.eval_checked(&v, 8).is_err()); // strict: y is unbound
    /// ```
    pub fn eval_checked(
        &self,
        valuation: &Valuation,
        width: u32,
    ) -> Result<u64, UnboundVariableError> {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        Ok(mask(self.eval_wrapping_checked(valuation, width)?, width))
    }

    fn eval_wrapping_checked(
        &self,
        valuation: &Valuation,
        width: u32,
    ) -> Result<u64, UnboundVariableError> {
        Ok(match self {
            Expr::Const(c) => const_to_bits(*c, width),
            Expr::Var(v) => valuation.get_checked(v)?,
            Expr::Unary(op, e) => {
                let x = e.eval_wrapping_checked(valuation, width)?;
                match op {
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::Not => !x,
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval_wrapping_checked(valuation, width)?;
                let y = b.eval_wrapping_checked(valuation, width)?;
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                }
            }
        })
    }

    /// Evaluation without the final mask; intermediate ops wrap on u64 and
    /// are masked once at the top (correct because +, -, *, &, |, ^, ~ all
    /// commute with truncation).
    fn eval_wrapping(&self, valuation: &Valuation, width: u32) -> u64 {
        match self {
            Expr::Const(c) => const_to_bits(*c, width),
            Expr::Var(v) => valuation.get(v),
            Expr::Unary(op, e) => {
                let x = e.eval_wrapping(valuation, width);
                match op {
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::Not => !x,
                }
            }
            Expr::Binary(op, a, b) => {
                let x = a.eval_wrapping(valuation, width);
                let y = b.eval_wrapping(valuation, width);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(&str, u64)]) -> Valuation {
        pairs.iter().map(|&(n, x)| (Ident::new(n), x)).collect()
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        mask(1, 0);
    }

    #[test]
    fn constants_wrap_to_width() {
        let e = Expr::Const(-1);
        assert_eq!(e.eval(&Valuation::new(), 8), 0xff);
        assert_eq!(e.eval(&Valuation::new(), 64), u64::MAX);
        assert_eq!(Expr::Const(256).eval(&Valuation::new(), 8), 0);
    }

    #[test]
    fn unbound_variables_read_zero() {
        let e: Expr = "x + 1".parse().unwrap();
        assert_eq!(e.eval(&Valuation::new(), 32), 1);
    }

    #[test]
    fn checked_eval_rejects_unbound_variables() {
        let e: Expr = "x + y".parse().unwrap();
        let err = e.eval_checked(&v(&[("x", 3)]), 32).unwrap_err();
        assert_eq!(err.name().as_str(), "y");
        assert!(err.to_string().contains("unbound variable `y`"));
        // Fully bound valuations agree with the lenient evaluator.
        let full = v(&[("x", 3), ("y", 9)]);
        assert_eq!(e.eval_checked(&full, 32).unwrap(), e.eval(&full, 32));
    }

    #[test]
    fn checked_lookup() {
        let val = v(&[("x", 5)]);
        assert_eq!(val.get_checked(&Ident::new("x")), Ok(5));
        assert!(val.get_checked(&Ident::new("z")).is_err());
    }

    #[test]
    fn arithmetic_wraps() {
        let e: Expr = "x + y".parse().unwrap();
        assert_eq!(e.eval(&v(&[("x", 0xff), ("y", 1)]), 8), 0);
        let e: Expr = "x * y".parse().unwrap();
        assert_eq!(e.eval(&v(&[("x", 16), ("y", 16)]), 8), 0);
        let e: Expr = "x - y".parse().unwrap();
        assert_eq!(e.eval(&v(&[("x", 0), ("y", 1)]), 8), 0xff);
    }

    #[test]
    fn hakmem_identities_hold() {
        // x|y == (x & ~y) + y   and   x^y == (x|y) - (x&y)
        let cases = [
            ("x | y", "(x & ~y) + y"),
            ("x ^ y", "(x | y) - (x & y)"),
            ("x + y", "(x | y) + (~x | y) - ~x"),
            ("x + y", "(x ^ y) + 2*y - 2*(~x & y)"),
            ("x - y", "(x ^ y) + 2*(x | ~y) + 2"),
        ];
        for (lhs, rhs) in cases {
            let l: Expr = lhs.parse().unwrap();
            let r: Expr = rhs.parse().unwrap();
            for (x, y) in [(0, 0), (1, 0xffff_ffff), (12345, 67890), (u64::MAX, 7)] {
                let val = v(&[("x", x), ("y", y)]);
                for w in [1, 8, 32, 64] {
                    assert_eq!(l.eval(&val, w), r.eval(&val, w), "{lhs} vs {rhs} at w={w}");
                }
            }
        }
    }

    #[test]
    fn figure1_identity_holds_at_64_bits() {
        let lhs: Expr = "x*y".parse().unwrap();
        let rhs: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        for (x, y) in [(3, 5), (0xdead_beef, 0x1234_5678), (u64::MAX, u64::MAX)] {
            let val = v(&[("x", x), ("y", y)]);
            assert_eq!(lhs.eval(&val, 64), rhs.eval(&val, 64));
        }
    }

    #[test]
    fn valuation_accessors() {
        let mut val = Valuation::new();
        assert_eq!(val.set("x", 5), None);
        assert_eq!(val.set("x", 7), Some(5));
        assert_eq!(val.get(&Ident::new("x")), 7);
        assert_eq!(val.iter().count(), 1);
        val.extend([(Ident::new("y"), 1)]);
        assert_eq!(val.iter().count(), 2);
    }
}
