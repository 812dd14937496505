//! Structural random-AST generation for differential fuzzing.
//!
//! [`crate::bitwise`] generates *pure bitwise* trees (the `e_i` of
//! Definition 1); the obfuscators in [`crate::obfuscate`] generate
//! *identity-derived* MBA whose ground truth is known by construction.
//! The fuzzing harness (`mba-verify`) additionally needs arbitrary MBA
//! shapes — trees the obfuscation rules would never emit — so the
//! simplifier is exercised far from the corpus distribution. This module
//! provides that: a seeded, configurable generator over the full
//! `+ − × ∧ ∨ ⊕ ¬ −` grammar with a tunable linear/poly/non-poly mix.

use mba_expr::{BinOp, Expr, Ident, UnOp};
use rand::Rng;

/// Tuning knobs for [`random_expr`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomExprConfig {
    /// Maximum operator depth (0 yields a bare leaf).
    pub max_depth: usize,
    /// Number of distinct variables to draw from (`x0`, `x1`, ...; the
    /// first three are named `x`, `y`, `z` for readability).
    pub num_vars: usize,
    /// Constants are drawn from `-max_const ..= max_const`, with 0, 1,
    /// −1 and powers of two over-represented (the values MBA identities
    /// care about).
    pub max_const: i128,
    /// Probability that a leaf is a constant rather than a variable.
    pub const_leaf_prob: f64,
    /// Relative weight of arithmetic operators (`+ − ×`, unary `−`)
    /// versus bitwise ones (`∧ ∨ ⊕ ¬`). 0.0 = pure bitwise,
    /// 1.0 = pure arithmetic, 0.5 = an even MBA mix.
    pub arith_bias: f64,
    /// Relative weight of `×` among the arithmetic operators. Products
    /// drive polynomial blow-up, so fuzzing wants them present but not
    /// dominant.
    pub mul_weight: f64,
    /// Probability that a bitwise binary node takes a non-uniform mask
    /// constant (from [`crate::obfuscate::SEMI_LINEAR_MASKS`]) as its
    /// right operand, steering trees toward the semi-linear fragment.
    /// The default 0.0 draws nothing from the RNG, so existing seeded
    /// streams are bit-for-bit unchanged.
    pub mask_const_prob: f64,
}

impl Default for RandomExprConfig {
    fn default() -> Self {
        RandomExprConfig {
            max_depth: 4,
            num_vars: 3,
            max_const: 64,
            const_leaf_prob: 0.25,
            arith_bias: 0.5,
            mul_weight: 0.2,
            mask_const_prob: 0.0,
        }
    }
}

impl RandomExprConfig {
    /// The variable pool the generator draws from.
    pub fn variables(&self) -> Vec<Ident> {
        (0..self.num_vars.max(1)).map(var_name).collect()
    }
}

/// The canonical fuzzing variable names: `x`, `y`, `z`, then `x3`,
/// `x4`, ...
pub fn var_name(index: usize) -> Ident {
    match index {
        0 => Ident::new("x"),
        1 => Ident::new("y"),
        2 => Ident::new("z"),
        n => Ident::new(format!("x{n}")),
    }
}

/// Generates one random MBA expression according to `config`.
///
/// The generator is a pure function of the RNG stream: a fixed seed
/// yields a fixed expression, which the fuzzing harness relies on to
/// replay any iteration by index.
///
/// ```
/// use mba_gen::random::{random_expr, RandomExprConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let config = RandomExprConfig::default();
/// let a = random_expr(&mut StdRng::seed_from_u64(7), &config);
/// let b = random_expr(&mut StdRng::seed_from_u64(7), &config);
/// assert_eq!(a, b);
/// ```
pub fn random_expr(rng: &mut impl Rng, config: &RandomExprConfig) -> Expr {
    let vars = config.variables();
    gen_node(rng, config, &vars, config.max_depth)
}

fn gen_node(rng: &mut impl Rng, config: &RandomExprConfig, vars: &[Ident], depth: usize) -> Expr {
    if depth == 0 {
        return gen_leaf(rng, config, vars);
    }
    // A third of interior draws still bottom out early so generated
    // trees have varied, not uniformly maximal, depth.
    if rng.gen_bool(0.3) {
        return gen_leaf(rng, config, vars);
    }
    if rng.gen_bool(0.15) {
        let op = if rng.gen_bool(config.arith_bias) {
            UnOp::Neg
        } else {
            UnOp::Not
        };
        return Expr::unary(op, gen_node(rng, config, vars, depth - 1));
    }
    let op = gen_binop(rng, config);
    let left = gen_node(rng, config, vars, depth - 1);
    // The `> 0.0` guard keeps the RNG stream untouched at the default
    // setting, so seeded replays from older runs stay identical.
    if config.mask_const_prob > 0.0
        && matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
        && rng.gen_bool(config.mask_const_prob.clamp(0.0, 1.0))
    {
        let masks = crate::obfuscate::SEMI_LINEAR_MASKS;
        return Expr::binary(op, left, Expr::Const(masks[rng.gen_range(0..masks.len())]));
    }
    let right = gen_node(rng, config, vars, depth - 1);
    Expr::binary(op, left, right)
}

fn gen_binop(rng: &mut impl Rng, config: &RandomExprConfig) -> BinOp {
    if rng.gen_bool(config.arith_bias) {
        if rng.gen_bool(config.mul_weight) {
            BinOp::Mul
        } else if rng.gen_bool(0.5) {
            BinOp::Add
        } else {
            BinOp::Sub
        }
    } else {
        match rng.gen_range(0..3) {
            0 => BinOp::And,
            1 => BinOp::Or,
            _ => BinOp::Xor,
        }
    }
}

fn gen_leaf(rng: &mut impl Rng, config: &RandomExprConfig, vars: &[Ident]) -> Expr {
    if rng.gen_bool(config.const_leaf_prob) {
        Expr::Const(gen_const(rng, config.max_const))
    } else {
        Expr::var(vars[rng.gen_range(0..vars.len())].clone())
    }
}

/// Draws a constant with the corner values MBA identities hinge on
/// (0, ±1, ±2, powers of two) over-represented.
fn gen_const(rng: &mut impl Rng, max_const: i128) -> i128 {
    let max = max_const.max(1);
    match rng.gen_range(0..6) {
        0 => 0,
        1 => 1,
        2 => -1,
        3 => {
            // A power of two (possibly negated) within range.
            let max_shift = 127 - max.leading_zeros() as i128;
            let shift = rng.gen_range(0..=max_shift.max(0)) as u32;
            let p = 1i128 << shift;
            if rng.gen_bool(0.5) {
                p
            } else {
                -p
            }
        }
        _ => rng.gen_range(-max..=max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn respects_depth_bound() {
        let config = RandomExprConfig {
            max_depth: 3,
            ..RandomExprConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let e = random_expr(&mut rng, &config);
            assert!(e.depth() <= 4, "too deep: {e}");
        }
    }

    #[test]
    fn uses_only_configured_variables() {
        let config = RandomExprConfig {
            num_vars: 2,
            ..RandomExprConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(12);
        let allowed = config.variables();
        for _ in 0..200 {
            let e = random_expr(&mut rng, &config);
            for v in e.vars() {
                assert!(allowed.contains(&v), "stray variable {v} in {e}");
            }
        }
    }

    #[test]
    fn constants_stay_in_range() {
        let config = RandomExprConfig {
            max_const: 16,
            ..RandomExprConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let e = random_expr(&mut rng, &config);
            mba_expr::visit::for_each_preorder(&e, &mut |n| {
                if let Expr::Const(c) = n {
                    assert!((-16..=16).contains(c), "constant {c} out of range in {e}");
                }
            });
        }
    }

    #[test]
    fn zero_arith_bias_is_bitwise_or_constants() {
        let config = RandomExprConfig {
            arith_bias: 0.0,
            const_leaf_prob: 0.0,
            ..RandomExprConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..100 {
            let e = random_expr(&mut rng, &config);
            assert!(e.is_pure_bitwise(), "arithmetic leaked into {e}");
        }
    }

    #[test]
    fn deterministic_per_seed_and_printable() {
        let config = RandomExprConfig::default();
        let a = random_expr(&mut StdRng::seed_from_u64(99), &config);
        let b = random_expr(&mut StdRng::seed_from_u64(99), &config);
        assert_eq!(a, b);
        // Round-trips through the concrete syntax (modulo the parser's
        // folding of negated literals, which the generator never emits
        // directly above a constant only at the top).
        let printed = a.to_string();
        let reparsed: Expr = printed.parse().expect("printed form parses");
        let v = mba_expr::Valuation::new()
            .with("x", 0xdead)
            .with("y", 7)
            .with("z", 123);
        assert_eq!(a.eval(&v, 64), reparsed.eval(&v, 64));
    }

    #[test]
    fn mask_const_prob_zero_leaves_streams_unchanged() {
        // Explicitly setting the knob to its default must reproduce the
        // default stream bit-for-bit (the guard never draws from the
        // RNG), so older seeded corpora replay identically.
        let plain = RandomExprConfig::default();
        let explicit = RandomExprConfig {
            mask_const_prob: 0.0,
            ..RandomExprConfig::default()
        };
        for seed in [0u64, 7, 99, 12345] {
            assert_eq!(
                random_expr(&mut StdRng::seed_from_u64(seed), &plain),
                random_expr(&mut StdRng::seed_from_u64(seed), &explicit),
            );
        }
    }

    #[test]
    fn mask_const_prob_steers_toward_semi_linear_shapes() {
        let config = RandomExprConfig {
            arith_bias: 0.0,
            const_leaf_prob: 0.0,
            mask_const_prob: 0.9,
            ..RandomExprConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(21);
        let mut masked = 0;
        for _ in 0..100 {
            let e = random_expr(&mut rng, &config);
            mba_expr::visit::for_each_preorder(&e, &mut |n| {
                if let Expr::Binary(BinOp::And | BinOp::Or | BinOp::Xor, _, rhs) = n {
                    if matches!(**rhs, Expr::Const(c) if c != 0 && c != -1) {
                        masked += 1;
                    }
                }
            });
        }
        assert!(
            masked > 20,
            "only {masked} masked bitwise nodes in 100 trees"
        );
    }

    #[test]
    fn var_names_are_stable() {
        assert_eq!(var_name(0).as_str(), "x");
        assert_eq!(var_name(2).as_str(), "z");
        assert_eq!(var_name(5).as_str(), "x5");
    }
}
