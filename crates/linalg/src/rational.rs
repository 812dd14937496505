//! Normalized `i128` rationals.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number with `i128` numerator and denominator.
///
/// Invariants: the denominator is positive and `gcd(|num|, den) == 1`.
/// Arithmetic panics on overflow (the matrices this crate handles are
/// small truth tables with entries in `{-1, 0, 1}`, far from the `i128`
/// range).
///
/// ```
/// use mba_linalg::Rational;
/// let half = Rational::new(1, 2);
/// let third = Rational::new(2, 6);
/// assert_eq!(half + third, Rational::new(5, 6));
/// assert_eq!((half * third).to_string(), "1/6");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the absolute values.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl Rational {
    /// The rational zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Self {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The numerator (after normalization).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Whether the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns the value as an integer if the denominator is 1.
    pub fn to_integer(&self) -> Option<i128> {
        self.is_integer().then_some(self.num)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl From<i128> for Rational {
    fn from(n: i128) -> Self {
        Rational { num: n, den: 1 }
    }
}

impl From<i64> for Rational {
    fn from(n: i64) -> Self {
        Rational::from(n as i128)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        // Reduce before multiplying to keep intermediates small.
        let g = gcd(self.den, rhs.den).max(1);
        let lhs_scale = rhs.den / g;
        let rhs_scale = self.den / g;
        Rational::new(
            self.num
                .checked_mul(lhs_scale)
                .and_then(|a| {
                    rhs.num
                        .checked_mul(rhs_scale)
                        .and_then(|b| a.checked_add(b))
                })
                .expect("rational addition overflow"),
            self.den
                .checked_mul(lhs_scale)
                .expect("rational addition overflow"),
        )
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        self + (-rhs)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        // Cross-reduce first: gcd(a.num, b.den) and gcd(b.num, a.den).
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        Rational::new(
            (self.num / g1)
                .checked_mul(rhs.num / g2)
                .expect("rational multiplication overflow"),
            (self.den / g2)
                .checked_mul(rhs.den / g1)
                .expect("rational multiplication overflow"),
        )
    }
}

impl Div for Rational {
    type Output = Rational;
    // a/b computed as a · b⁻¹ — the standard field division.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rational) -> Rational {
        self * rhs.recip()
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b  (denominators positive).
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, 5), Rational::ZERO);
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn zero_denominator_panics() {
        Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 2);
        let b = Rational::new(1, 3);
        assert_eq!(a + b, Rational::new(5, 6));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 6));
        assert_eq!(a / b, Rational::new(3, 2));
        assert_eq!(-a, Rational::new(-1, 2));
    }

    #[test]
    fn integer_conversion() {
        assert_eq!(Rational::new(6, 3).to_integer(), Some(2));
        assert_eq!(Rational::new(1, 2).to_integer(), None);
        assert!(Rational::from(7i128).is_integer());
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert_eq!(
            Rational::new(2, 4).cmp(&Rational::new(1, 2)),
            Ordering::Equal
        );
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
        assert_eq!(Rational::new(-2, 3).abs(), Rational::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "cannot invert zero")]
    fn recip_zero_panics() {
        Rational::ZERO.recip();
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 1).to_string(), "3");
        assert_eq!(Rational::new(-1, 2).to_string(), "-1/2");
    }
}
