//! Signature vectors (paper §4.1, Definition 3) and their normalized
//! reconstruction (§4.2–§4.3).

use std::fmt;

use mba_expr::classify::{decompose_term, flatten_sum};
use mba_expr::{Expr, Ident};
use mba_linalg::{Matrix, Rational};

use crate::basis::{self, linear_combination};
use crate::truth::{NotBitwiseError, TruthTable};

/// Error returned when a signature vector is requested for an expression
/// that is not a linear MBA over the given variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotLinearError {
    detail: String,
}

impl NotLinearError {
    pub(crate) fn new(detail: impl Into<String>) -> Self {
        NotLinearError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for NotLinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a linear MBA expression: {}", self.detail)
    }
}

impl std::error::Error for NotLinearError {}

impl From<NotBitwiseError> for NotLinearError {
    fn from(e: NotBitwiseError) -> Self {
        NotLinearError::new(e.to_string())
    }
}

/// The signature vector of a linear MBA expression: `s = M·v` where `M`
/// is the truth-table matrix of its bitwise terms and `v` the coefficient
/// vector (Definition 3).
///
/// By Theorem 1 the signature characterizes the expression's semantics:
/// two linear MBA expressions over the same variables are equivalent iff
/// their signatures are equal — which also makes the signature the cache
/// key for the §4.5 lookup table.
///
/// Components are indexed by variable assignment with the *first*
/// variable as the most significant bit, matching the row order of the
/// paper's tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SignatureVector {
    num_vars: usize,
    components: Vec<i128>,
}

impl SignatureVector {
    /// Computes the signature of a linear MBA expression over the ordered
    /// variables `vars`.
    ///
    /// Constant terms `c` are folded through the all-ones column as
    /// `(−c)·(−1)`, the encoding that makes identities hold on the
    /// two's-complement ring (§2.1).
    ///
    /// # Errors
    ///
    /// Fails if any term has more than one non-constant factor or a
    /// factor that is not pure bitwise (i.e. the expression is not linear
    /// per Definition 1), or if a variable falls outside `vars`.
    ///
    /// ```
    /// use mba_expr::{Expr, Ident};
    /// use mba_sig::SignatureVector;
    /// let e: Expr = "x - y".parse().unwrap();
    /// let vars = [Ident::new("x"), Ident::new("y")];
    /// let s = SignatureVector::of_linear(&e, &vars).unwrap();
    /// assert_eq!(s.components(), [0, -1, 1, 0]);
    /// ```
    pub fn of_linear(e: &Expr, vars: &[Ident]) -> Result<SignatureVector, NotLinearError> {
        let rows = 1usize << vars.len();
        let mut components = vec![0i128; rows];
        for term in flatten_sum(e) {
            let parts = decompose_term(term.expr, term.sign);
            match parts.factors.as_slice() {
                [] => {
                    // Constant c == (-c) * (-1): add -c on the all-ones
                    // column. Subtract rather than negate-then-add:
                    // `-c` itself overflows for `c == i128::MIN`, while
                    // `checked_sub` folds that case into the same
                    // overflow error as any other out-of-range sum.
                    for s in &mut components {
                        *s = s
                            .checked_sub(parts.coefficient)
                            .ok_or_else(|| NotLinearError::new("signature overflow"))?;
                    }
                }
                [factor] => {
                    let tt = TruthTable::of(factor, vars)?;
                    for (r, s) in components.iter_mut().enumerate() {
                        if tt.row(r) {
                            *s = s
                                .checked_add(parts.coefficient)
                                .ok_or_else(|| NotLinearError::new("signature overflow"))?;
                        }
                    }
                }
                _ => {
                    return Err(NotLinearError::new(format!(
                        "term `{}` has degree {}",
                        term.expr,
                        parts.factors.len()
                    )));
                }
            }
        }
        Ok(SignatureVector {
            num_vars: vars.len(),
            components,
        })
    }

    /// The signature of a single pure bitwise expression (coefficient 1):
    /// its truth-table column.
    ///
    /// # Errors
    ///
    /// Fails when `e` has no truth table over `vars`.
    pub fn of_bitwise(e: &Expr, vars: &[Ident]) -> Result<SignatureVector, NotLinearError> {
        let tt = TruthTable::of(e, vars)?;
        Ok(SignatureVector::from_truth_table(&tt))
    }

    /// The 0/1 signature of a truth-table column.
    pub fn from_truth_table(tt: &TruthTable) -> SignatureVector {
        SignatureVector {
            num_vars: tt.num_vars(),
            components: tt.column(),
        }
    }

    /// Builds a signature from raw components.
    ///
    /// # Panics
    ///
    /// Panics if `components.len()` is not `2^num_vars`.
    pub fn from_components(num_vars: usize, components: Vec<i128>) -> SignatureVector {
        assert_eq!(
            components.len(),
            1usize << num_vars,
            "signature must have 2^t components"
        );
        SignatureVector {
            num_vars,
            components,
        }
    }

    /// Number of variables `t`.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The components, row 0 (all variables false) first.
    pub fn components(&self) -> &[i128] {
        &self.components
    }

    /// Coefficients in the normalized basis
    /// `{−1} ∪ {∧S : ∅ ≠ S ⊆ vars}` (the generalization of Table 4),
    /// obtained by exact Möbius inversion over the subset lattice.
    ///
    /// The result is indexed by subset mask `S` over *row-index bit
    /// positions* (bit `p` of `S` ↔ the variable occupying bit `p` of the
    /// row index); index 0 is the coefficient of the all-ones column,
    /// i.e. of the constant `−1`.
    ///
    /// The normalized basis matrix is the subset zeta matrix, which is
    /// unimodular — so the coefficients are always integers and the
    /// inversion never fails, unlike a general linear solve.
    pub fn normalized_coefficients(&self) -> Vec<i128> {
        let mut c = self.components.clone();
        for p in 0..self.num_vars {
            let bit = 1usize << p;
            for s in 0..c.len() {
                if s & bit != 0 {
                    c[s] -= c[s ^ bit];
                }
            }
        }
        c
    }

    /// Renders the signature as a normalized MBA expression over `vars`:
    /// a linear combination of `x_i`, `∧`-terms, and a constant — the
    /// §4.3 reduction that leaves at most one bitwise operator kind and
    /// therefore minimal MBA alternation.
    ///
    /// # Panics
    ///
    /// Panics if `vars.len() != self.num_vars()`.
    ///
    /// ```
    /// use mba_expr::Ident;
    /// use mba_sig::SignatureVector;
    /// let vars = [Ident::new("x"), Ident::new("y")];
    /// let s = SignatureVector::from_components(2, vec![0, 1, 1, 2]);
    /// assert_eq!(s.to_normalized_expr(&vars).to_string(), "x+y");
    /// ```
    pub fn to_normalized_expr(&self, vars: &[Ident]) -> Expr {
        assert_eq!(vars.len(), self.num_vars, "variable count mismatch");
        let coeffs = self.normalized_coefficients();
        let t = self.num_vars;
        // Order: singleton subsets in variable order, then larger subsets
        // (by size, then variable order), then the constant term.
        let mut subsets: Vec<usize> = (1..coeffs.len()).collect();
        subsets.sort_by_key(|&s| (s.count_ones(), subset_sort_key(s, t)));
        let mut terms: Vec<(i128, Expr)> = Vec::new();
        for s in subsets {
            terms.push((coeffs[s], and_of_subset(s, vars)));
        }
        terms.push((coeffs[0], Expr::minus_one()));
        linear_combination(&terms)
    }

    /// If the signature is a scalar multiple `c · column(f)` of a single
    /// boolean function's truth column, returns `(c, f)`. This is the
    /// entry point of the final-step optimization (§4.5): such a
    /// signature folds back to `c · <bitwise expression for f>`.
    ///
    /// A zero signature returns `(0, the constant-false table)`.
    pub fn as_scaled_truth_table(&self) -> Option<(i128, TruthTable)> {
        if self.num_vars > TruthTable::PACKED_MAX_VARS {
            return None;
        }
        let c = self
            .components
            .iter()
            .copied()
            .find(|&v| v != 0)
            .unwrap_or(0);
        let mut bits = 0u64;
        for (r, &v) in self.components.iter().enumerate() {
            if v == c && c != 0 {
                bits |= 1 << r;
            } else if v != 0 {
                return None;
            }
        }
        Some((c, TruthTable::from_bits(self.num_vars, bits)))
    }

    /// Expresses the signature in an arbitrary basis of bitwise
    /// expressions, returning integer coefficients if an integer solution
    /// exists. Used for alternative normalized bases such as the paper's
    /// Table 9 `{x, y, x∨y, −1}` (§7).
    ///
    /// # Errors
    ///
    /// Fails when some basis element has no truth table over `vars`.
    pub fn solve_in_basis(
        &self,
        basis: &[Expr],
        vars: &[Ident],
    ) -> Result<Option<Vec<i128>>, NotLinearError> {
        let mut columns = Vec::with_capacity(basis.len());
        for b in basis {
            if *b == Expr::Const(-1) {
                columns.push(vec![1i128; 1 << vars.len()]);
            } else {
                columns.push(TruthTable::of(b, vars)?.column());
            }
        }
        let m = Matrix::from_i128_columns(&columns);
        let rationals: Vec<Rational> = self.components.iter().map(|&v| Rational::from(v)).collect();
        let Some(solution) = m.solve(&rationals) else {
            return Ok(None);
        };
        Ok(solution.iter().map(Rational::to_integer).collect())
    }
}

impl fmt::Display for SignatureVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.components.iter().map(i128::to_string).collect();
        write!(f, "({})", parts.join(","))
    }
}

/// Sort key ordering subsets by the positions of their variables in
/// declaration order (row-index bit `t-1` is the first variable).
pub(crate) fn subset_sort_key(s: usize, t: usize) -> Vec<usize> {
    (0..t).filter(|j| s & (1 << (t - 1 - j)) != 0).collect()
}

/// The conjunction of the variables selected by row-index bit mask `s`.
pub(crate) fn and_of_subset(s: usize, vars: &[Ident]) -> Expr {
    let t = vars.len();
    let selected: Vec<&Ident> = (0..t)
        .filter(|j| s & (1 << (t - 1 - j)) != 0)
        .map(|j| &vars[j])
        .collect();
    basis::and_chain(&selected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars2() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y")]
    }

    fn sig(src: &str) -> SignatureVector {
        SignatureVector::of_linear(&src.parse().unwrap(), &vars2()).unwrap()
    }

    #[test]
    fn example_2_signature() {
        // §4.1 Example 2: E = 2(x∨y) − (¬x∧y) − (x∧¬y), s = (0,1,1,2).
        assert_eq!(sig("2*(x|y) - (~x&y) - (x&~y)").components(), [0, 1, 1, 2]);
    }

    #[test]
    fn example_2_normalization_gives_x_plus_y() {
        let e = sig("2*(x|y) - (~x&y) - (x&~y)").to_normalized_expr(&vars2());
        assert_eq!(e.to_string(), "x+y");
    }

    #[test]
    fn equivalent_forms_share_signatures() {
        // §4.2: E' = (¬x∧y) + (x∧¬y) + 2(x∧y) has the same signature.
        assert_eq!(
            sig("2*(x|y) - (~x&y) - (x&~y)"),
            sig("(~x&y) + (x&~y) + 2*(x&y)")
        );
        assert_eq!(sig("x + y"), sig("2*(x|y) - (x^y)"));
    }

    #[test]
    fn constant_terms_use_minus_one_encoding() {
        // 4 == -4 * (-1): every component shifts by -4.
        assert_eq!(sig("4").components(), [-4, -4, -4, -4]);
        assert_eq!(sig("x + 4").components(), [-4, -4, -3, -3]);
    }

    #[test]
    fn section_4_4_sub_expressions() {
        // §4.4: x∧¬y → x − (x∧y), ¬x∧y → y − (x∧y), x∨y → x + y − (x∧y).
        let v = vars2();
        let cases = [
            ("x & ~y", "x-(x&y)"),
            ("~x & y", "y-(x&y)"),
            ("x | y", "x+y-(x&y)"),
        ];
        for (input, expected) in cases {
            let s = SignatureVector::of_bitwise(&input.parse().unwrap(), &v).unwrap();
            assert_eq!(s.to_normalized_expr(&v).to_string(), expected, "{input}");
        }
    }

    #[test]
    fn moebius_coefficients_match_paper_solution() {
        // §4.3 solves (0,1,1,2) = C1(0,0,1,1)+C2(0,1,0,1)+C3(0,0,0,1)+C4(1,1,1,1)
        // with C = (1, 1, 0, 0).
        let s = SignatureVector::from_components(2, vec![0, 1, 1, 2]);
        let c = s.normalized_coefficients();
        // Index: 0 = constant, 0b10 = x (high bit), 0b01 = y, 0b11 = x∧y.
        assert_eq!(c[0], 0);
        assert_eq!(c[0b10], 1);
        assert_eq!(c[0b01], 1);
        assert_eq!(c[0b11], 0);
    }

    #[test]
    fn three_variable_normalization() {
        let vars = vec![Ident::new("x"), Ident::new("y"), Ident::new("z")];
        let e: Expr = "(x&y&z) + (x|y) - (x|y) + z".parse().unwrap();
        let s = SignatureVector::of_linear(&e, &vars).unwrap();
        assert_eq!(s.to_normalized_expr(&vars).to_string(), "z+(x&y&z)");
    }

    #[test]
    fn i128_min_constant_is_an_overflow_error_not_a_panic() {
        // Regression: the constant-term case computed `-coefficient`,
        // which panics in debug (wraps in release) for `i128::MIN`
        // before the checked add could catch it.
        let err = SignatureVector::of_linear(&Expr::constant(i128::MIN), &vars2()).unwrap_err();
        assert!(err.to_string().contains("signature overflow"), "{err}");
        // Same coefficient reached through a product.
        let e = Expr::binary(
            mba_expr::BinOp::Mul,
            Expr::constant(i128::MIN),
            "x & y".parse().unwrap(),
        );
        // A bitwise factor with an i128::MIN coefficient overflows the
        // signature on the rows where the factor is 1... adding
        // i128::MIN to 0 is in range, so this one must *succeed*.
        let s = SignatureVector::of_linear(&e, &vars2()).unwrap();
        assert_eq!(s.components(), [0, 0, 0, i128::MIN]);
        // But the sum `i128::MIN + i128::MIN` must overflow cleanly.
        let double = Expr::binary(mba_expr::BinOp::Add, e.clone(), e);
        let err = SignatureVector::of_linear(&double, &vars2()).unwrap_err();
        assert!(err.to_string().contains("signature overflow"), "{err}");
    }

    #[test]
    fn rejects_nonlinear() {
        let e: Expr = "(x&y)*(x|y)".parse().unwrap();
        let err = SignatureVector::of_linear(&e, &vars2()).unwrap_err();
        assert!(err.to_string().contains("degree"));
    }

    #[test]
    fn rejects_non_bitwise_factor() {
        let e: Expr = "2*(x+y)".parse().unwrap();
        assert!(SignatureVector::of_linear(&e, &vars2()).is_err());
    }

    #[test]
    fn scaled_truth_table_detection() {
        // x + y − 2(x∧y) has signature (0,1,1,0) = 1 · column(x⊕y).
        let s = sig("x + y - 2*(x&y)");
        let (c, tt) = s.as_scaled_truth_table().unwrap();
        assert_eq!(c, 1);
        assert_eq!(tt.column(), [0, 1, 1, 0]);

        // 3·(x∧y) scales by 3.
        let s = sig("3*(x&y)");
        let (c, tt) = s.as_scaled_truth_table().unwrap();
        assert_eq!(c, 3);
        assert_eq!(tt.column(), [0, 0, 0, 1]);

        // x + y is not a scaled column (component 2 breaks it).
        assert!(sig("x + y").as_scaled_truth_table().is_none());

        // Zero signature.
        let (c, tt) = sig("x - x").as_scaled_truth_table().unwrap();
        assert_eq!(c, 0);
        assert_eq!(tt.column(), [0, 0, 0, 0]);
    }

    #[test]
    fn solve_in_or_basis() {
        // §7 Table 9 basis {x, y, x∨y, −1}: x∧y = x + y − (x∨y).
        let v = vars2();
        let basis: Vec<Expr> = ["x", "y", "x|y", "-1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let s = SignatureVector::of_bitwise(&"x&y".parse().unwrap(), &v).unwrap();
        let coeffs = s.solve_in_basis(&basis, &v).unwrap().unwrap();
        assert_eq!(coeffs, vec![1, 1, -1, 0]);
    }

    #[test]
    fn roundtrip_signature_of_normalized_expr() {
        // Normalizing then re-taking the signature is the identity.
        let v = vars2();
        for src in ["x + y", "3*(x|y) - (x^y)", "x - y - 1", "~x & ~y"] {
            let s = SignatureVector::of_linear(&src.parse().unwrap(), &v).unwrap();
            let normalized = s.to_normalized_expr(&v);
            let s2 = SignatureVector::of_linear(&normalized, &v).unwrap();
            assert_eq!(s, s2, "roundtrip failed for {src}");
        }
    }

    #[test]
    fn display_format() {
        assert_eq!(sig("x+y").to_string(), "(0,1,1,2)");
    }
}
