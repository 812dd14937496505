//! Linear MBA identity construction — the Zhou et al. method of §2.1
//! (Example 1) plus signature-preserving linear obfuscation.

use mba_expr::{Expr, Ident};
use mba_linalg::Matrix;
use mba_sig::{linear_combination, SignatureVector, TruthTable};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::bitwise::random_bitwise_set;

/// Builds a linear MBA expression that is identically zero, by solving
/// `M·C = 0` on the truth-table matrix of randomly chosen bitwise
/// expressions (plus the all-ones `−1` column) and using a random
/// nullspace vector as coefficients — exactly Example 1's construction.
///
/// Returns `None` when the random columns happen to be linearly
/// independent (no nontrivial kernel); callers retry with more terms.
///
/// # Panics
///
/// Panics if `vars` is empty or holds more than
/// [`TruthTable::MAX_VARS`] variables.
pub fn zero_identity(
    rng: &mut impl Rng,
    vars: &[Ident],
    num_bitwise_terms: usize,
    depth: usize,
) -> Option<Expr> {
    assert!(
        (1..=TruthTable::MAX_VARS).contains(&vars.len()),
        "variable count out of range"
    );
    let exprs = random_bitwise_set(rng, vars, depth, num_bitwise_terms);
    let mut columns: Vec<Vec<i128>> = Vec::with_capacity(exprs.len() + 1);
    for e in &exprs {
        columns.push(
            TruthTable::of(e, vars)
                .expect("bitwise by construction")
                .column(),
        );
    }
    // The −1 column (all ones) keeps constants expressible.
    columns.push(vec![1; 1 << vars.len()]);
    let kernel = Matrix::from_i128_columns(&columns).integer_kernel();
    if kernel.is_empty() {
        return None;
    }
    // Random element of the kernel lattice: a small random combination
    // of basis vectors (never the zero vector).
    let mut coeffs = vec![0i128; columns.len()];
    for basis_vec in &kernel {
        let scale = *[-2i128, -1, 1, 2, 3].choose(rng).expect("non-empty");
        if rng.gen_bool(0.7) {
            for (c, b) in coeffs.iter_mut().zip(basis_vec) {
                *c += scale * b;
            }
        }
    }
    if coeffs.iter().all(|&c| c == 0) {
        coeffs.clone_from(&kernel[0]);
    }
    let mut terms: Vec<(i128, Expr)> = exprs
        .into_iter()
        .zip(coeffs.iter().copied())
        .map(|(e, c)| (c, e))
        .collect();
    terms.push((*coeffs.last().expect("non-empty"), Expr::minus_one()));
    terms.shuffle(rng);
    Some(linear_combination(&terms))
}

/// Produces a complex linear MBA equivalent to `target` (which must be a
/// linear MBA over at most [`TruthTable::MAX_VARS`] variables).
///
/// Construction: draw `extra_terms` random bitwise expressions with
/// random coefficients, subtract their combined signature from the
/// target's, and express the residue in the normalized `∧`-basis — the
/// sum then has exactly the target's signature, hence is equivalent by
/// Theorem 1.
///
/// Returns `None` when `target` is not linear over its variables.
pub fn obfuscate_linear(
    rng: &mut impl Rng,
    target: &Expr,
    extra_terms: usize,
    depth: usize,
) -> Option<Expr> {
    let vars: Vec<Ident> = target.vars().into_iter().collect();
    if vars.is_empty() || vars.len() > TruthTable::MAX_VARS {
        return None;
    }
    let target_sig = SignatureVector::of_linear(target, &vars).ok()?;

    let decoys = random_bitwise_set(rng, &vars, depth, extra_terms);
    let mut terms: Vec<(i128, Expr)> = Vec::new();
    let mut decoy_sig = vec![0i128; 1 << vars.len()];
    for e in decoys {
        let coef = loop {
            let c = rng.gen_range(-9i128..=9);
            if c != 0 {
                break c;
            }
        };
        let col = TruthTable::of(&e, &vars).expect("bitwise").column();
        for (s, v) in decoy_sig.iter_mut().zip(&col) {
            *s += coef * v;
        }
        terms.push((coef, e));
    }

    // Residue = target − decoys, expressed in the normalized basis.
    let residue: Vec<i128> = target_sig
        .components()
        .iter()
        .zip(&decoy_sig)
        .map(|(t, d)| t - d)
        .collect();
    let residue_sig = SignatureVector::from_components(vars.len(), residue);
    let coeffs = residue_sig.normalized_coefficients();
    for (s, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if s == 0 {
            terms.push((-c, Expr::one()));
        } else {
            terms.push((c, and_of_subset(s, &vars)));
        }
    }

    terms.shuffle(rng);
    Some(linear_combination(&terms))
}

/// Conjunction of the variables selected by row-index mask `s` (first
/// variable = most significant bit), matching the signature convention.
fn and_of_subset(s: usize, vars: &[Ident]) -> Expr {
    let t = vars.len();
    let mut selected = (0..t).filter(|j| s & (1 << (t - 1 - j)) != 0);
    let first = selected.next().expect("non-empty subset");
    selected.fold(Expr::var(vars[first].clone()), |acc, j| {
        acc & Expr::var(vars[j].clone())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn vars2() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y")]
    }

    fn random_valuation(rng: &mut StdRng) -> Valuation {
        Valuation::new()
            .with("x", rng.gen())
            .with("y", rng.gen())
            .with("z", rng.gen())
    }

    #[test]
    fn zero_identities_evaluate_to_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut produced = 0;
        for _ in 0..40 {
            if let Some(z) = zero_identity(&mut rng, &vars2(), 5, 2) {
                produced += 1;
                for _ in 0..8 {
                    let v = random_valuation(&mut rng);
                    for w in [8, 32, 64] {
                        assert_eq!(z.eval(&v, w), 0, "`{z}` not zero at width {w}");
                    }
                }
            }
        }
        // With 5 columns + (−1) over 4 rows the kernel is almost always
        // non-trivial.
        assert!(produced >= 35, "only {produced}/40 identities produced");
    }

    #[test]
    fn zero_identity_is_nontrivial() {
        let mut rng = StdRng::seed_from_u64(3);
        let z = zero_identity(&mut rng, &vars2(), 6, 2).expect("kernel exists");
        assert!(z != Expr::zero(), "degenerate zero identity");
        assert!(z.node_count() > 3);
    }

    #[test]
    fn linear_obfuscation_preserves_semantics() {
        let mut rng = StdRng::seed_from_u64(21);
        for target_src in ["x + y", "x - y", "x ^ y", "3*x - 2", "x & y"] {
            let target: Expr = target_src.parse().unwrap();
            let obf = obfuscate_linear(&mut rng, &target, 6, 2).expect("linear target");
            assert_ne!(obf, target, "obfuscation of {target_src} is trivial");
            for _ in 0..8 {
                let v = random_valuation(&mut rng);
                for w in [8, 32, 64] {
                    assert_eq!(
                        target.eval(&v, w),
                        obf.eval(&v, w),
                        "{target_src} -> {obf} differs at width {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn linear_obfuscation_stays_linear() {
        let mut rng = StdRng::seed_from_u64(77);
        let target: Expr = "x + y".parse().unwrap();
        for _ in 0..10 {
            let obf = obfuscate_linear(&mut rng, &target, 8, 2).unwrap();
            assert_eq!(obf.mba_class(), mba_expr::MbaClass::Linear);
        }
    }

    #[test]
    fn obfuscation_rejects_nonlinear_targets() {
        let mut rng = StdRng::seed_from_u64(5);
        let target: Expr = "x * y".parse().unwrap();
        assert!(obfuscate_linear(&mut rng, &target, 4, 2).is_none());
        let no_vars: Expr = "7".parse().unwrap();
        assert!(obfuscate_linear(&mut rng, &no_vars, 4, 2).is_none());
    }

    #[test]
    fn obfuscation_grows_complexity() {
        let mut rng = StdRng::seed_from_u64(9);
        let target: Expr = "x + y".parse().unwrap();
        let obf = obfuscate_linear(&mut rng, &target, 10, 2).unwrap();
        let m = mba_expr::Metrics::of(&obf);
        assert!(m.alternation >= 5, "alternation only {}", m.alternation);
        assert!(m.num_terms >= 8, "terms only {}", m.num_terms);
    }
}
