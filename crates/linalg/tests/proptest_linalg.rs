//! Property-based tests for exact elimination: solutions solve, kernels
//! annihilate, and rank obeys its bounds.

use mba_linalg::{Matrix, Rational};
use proptest::prelude::*;

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=5, 1usize..=5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(proptest::collection::vec(-4i128..=4, cols), rows)
            .prop_map(|rows| Matrix::from_i128_rows(&rows))
    })
}

proptest! {
    /// Every kernel basis vector is annihilated by the matrix.
    #[test]
    fn kernel_vectors_are_in_nullspace(m in arb_matrix()) {
        for v in m.kernel() {
            let out = m.mul_vec(&v);
            prop_assert!(out.iter().all(Rational::is_zero));
        }
    }

    /// Integer kernel vectors are integer, primitive, and annihilated.
    #[test]
    fn integer_kernel_is_primitive_nullspace(m in arb_matrix()) {
        for v in m.integer_kernel() {
            let rv: Vec<Rational> = v.iter().map(|&x| Rational::from(x)).collect();
            prop_assert!(m.mul_vec(&rv).iter().all(Rational::is_zero));
            let g = v.iter().fold(0i128, |acc, &x| {
                let (mut a, mut b) = (acc.abs(), x.abs());
                while b != 0 { (a, b) = (b, a % b); }
                a
            });
            prop_assert_eq!(g, 1, "kernel vector {:?} not primitive", v);
        }
    }

    /// rank + kernel dimension == number of columns (rank–nullity).
    #[test]
    fn rank_nullity(m in arb_matrix()) {
        prop_assert_eq!(m.rank() + m.kernel().len(), m.cols());
    }

    /// If solve returns x, then A·x == b.
    #[test]
    fn solutions_satisfy_the_system(
        m in arb_matrix(),
        coeffs in proptest::collection::vec(-4i128..=4, 5),
    ) {
        // Construct a consistent b = A·x0 so solve must succeed.
        let x0: Vec<Rational> = coeffs.iter().take(m.cols())
            .map(|&c| Rational::from(c)).collect();
        if x0.len() < m.cols() { return Ok(()); }
        let b = m.mul_vec(&x0);
        let x = m.solve(&b).expect("consistent system must solve");
        prop_assert_eq!(m.mul_vec(&x), b);
    }
}
