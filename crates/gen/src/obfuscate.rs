//! The obfuscator for the paper's three MBA categories (Definitions
//! 1–2, Figure 2) plus the semi-linear extension (linear MBA with
//! constants inside the bitwise layer).

use mba_expr::classify::{decompose_term, flatten_sum};
use mba_expr::{BinOp, Expr, Ident, MbaClass, UnOp};
use rand::Rng;

use crate::identities::{obfuscate_linear, zero_identity};

/// Mask palette for semi-linear obfuscation. None of these is uniform
/// (all-zeros / all-ones) modulo any supported width ≥ 8, so wrapping a
/// factor with one always leaves the pure-bitwise fragment.
pub const SEMI_LINEAR_MASKS: &[i128] = &[3, 5, 6, 9, 10, 12, 0x0f, 0x33, 0x55, 0x66, 0x99, 0xcc];

/// Which MBA category the obfuscated output should land in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObfuscationKind {
    /// `Σ aᵢ·eᵢ` — Definition 1.
    Linear,
    /// Linear MBA with non-uniform constants inside the bitwise layer,
    /// e.g. `(x & 3)` terms — the semi-linear extension.
    SemiLinear,
    /// `Σ aᵢ·Π eᵢⱼ` with a degree ≥ 2 term — Definition 2.
    Polynomial,
    /// Bitwise over arithmetic — everything outside Definition 2.
    NonPolynomial,
    /// A *residual* for the synthesis tier: the ground truth plus
    /// parity opaque zeros `(q·(q+1)) ∧ 1` (a product of consecutive
    /// integers is even, so the low bit is identically zero). The
    /// bitwise-over-arithmetic wrapper lands outside
    /// Linear/SemiLinear, and the algebraic pipeline has no mod-2
    /// reasoning to cancel it — only enumerative synthesis recovers
    /// the ground truth.
    Residual,
}

impl std::fmt::Display for ObfuscationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObfuscationKind::Linear => "linear",
            ObfuscationKind::SemiLinear => "semi-linear",
            ObfuscationKind::Polynomial => "poly",
            ObfuscationKind::NonPolynomial => "non-poly",
            ObfuscationKind::Residual => "residual",
        })
    }
}

/// Tuning knobs for the obfuscator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObfuscatorConfig {
    /// Decoy bitwise terms added by linear obfuscation.
    pub linear_extra_terms: usize,
    /// Depth of random bitwise expressions.
    pub bitwise_depth: usize,
    /// Bitwise terms per zero identity in polynomial junk.
    pub zero_identity_terms: usize,
    /// Recursive rewriting rounds for non-poly obfuscation.
    pub rewrite_rounds: usize,
}

impl Default for ObfuscatorConfig {
    fn default() -> Self {
        ObfuscatorConfig {
            linear_extra_terms: 6,
            bitwise_depth: 2,
            zero_identity_terms: 5,
            rewrite_rounds: 3,
        }
    }
}

/// Obfuscates ground-truth expressions into the three MBA categories.
///
/// All transformations are semantic-preserving on `Z/2^w` for every `w`;
/// the corpus additionally verifies each sample by randomized evaluation.
#[derive(Debug, Clone, Default)]
pub struct Obfuscator {
    config: ObfuscatorConfig,
}

impl Obfuscator {
    /// An obfuscator with the default configuration.
    pub fn new() -> Obfuscator {
        Obfuscator::default()
    }

    /// An obfuscator with an explicit configuration.
    pub fn with_config(config: ObfuscatorConfig) -> Obfuscator {
        Obfuscator { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ObfuscatorConfig {
        &self.config
    }

    /// Obfuscates `target` into the requested category. When the target's
    /// shape cannot support the category (e.g. a `Linear` request for a
    /// non-linear target), the next applicable category is used; the
    /// *output* is what the caller should classify.
    pub fn obfuscate(&self, target: &Expr, kind: ObfuscationKind, rng: &mut impl Rng) -> Expr {
        match kind {
            ObfuscationKind::Linear => self
                .linear(target, rng)
                .unwrap_or_else(|| self.non_poly(target, rng)),
            ObfuscationKind::SemiLinear => self.semi_linear(target, rng),
            ObfuscationKind::Polynomial => self.poly(target, rng),
            ObfuscationKind::NonPolynomial => self.non_poly(target, rng),
            ObfuscationKind::Residual => self.residual(target, rng),
        }
    }

    /// Residual obfuscation: attach parity opaque zeros
    /// `z = (q·(q+1)) ∧ 1 ≡ 0` (with `q` drawn from small arithmetic
    /// forms over the target's own variables) via `+ z`, `⊕ z`, or
    /// `− z`. The `∧` over arithmetic forces `NonPolynomial`, and the
    /// ground truth is left syntactically intact underneath so an
    /// enumerative tier with a small node budget can recover it.
    fn residual(&self, target: &Expr, rng: &mut impl Rng) -> Expr {
        let vars: Vec<Ident> = target.vars().into_iter().collect();
        if vars.is_empty() {
            // Constant targets have no variables to seed the parity
            // trick with; fall back to the non-poly rewriter.
            return self.non_poly(target, rng);
        }
        let mut out = target.clone();
        for _ in 0..rng.gen_range(1..=2u32) {
            let q = parity_seed(&vars, rng);
            let z = Expr::binary(BinOp::And, q.clone() * (q + Expr::one()), Expr::one());
            out = match rng.gen_range(0..3u32) {
                0 => out + z,
                1 => out ^ z,
                _ => out - z,
            };
        }
        out
    }

    /// Semi-linear obfuscation: linear-obfuscate, then push non-uniform
    /// constants into the bitwise layer with two width-generic
    /// identities — the mask split `f = (f ∧ m) + (f ∧ ¬m)` and the xor
    /// wrap `f = (f ⊕ m) ⊕ m` — applied per term so the sum stays
    /// degree ≤ 1.
    fn semi_linear(&self, target: &Expr, rng: &mut impl Rng) -> Expr {
        let Some(base) = self.linear(target, rng) else {
            return self.non_poly(target, rng);
        };
        let mut terms: Vec<(i128, Expr)> = Vec::new();
        for t in flatten_sum(&base) {
            let parts = decompose_term(t.expr, t.sign);
            match parts.factors.as_slice() {
                [] => terms.push((parts.coefficient, Expr::one())),
                [f] if f.is_pure_bitwise() && rng.gen_bool(0.6) => {
                    let mask = SEMI_LINEAR_MASKS[rng.gen_range(0..SEMI_LINEAR_MASKS.len())];
                    if rng.gen_bool(0.5) {
                        // a·f = a·(f ∧ m) + a·(f ∧ ¬m). `¬m` is written
                        // as the unary complement of the constant so the
                        // identity holds at every width.
                        let not_mask = Expr::unary(UnOp::Not, Expr::constant(mask));
                        terms.push((
                            parts.coefficient,
                            Expr::binary(BinOp::And, (*f).clone(), Expr::constant(mask)),
                        ));
                        terms.push((
                            parts.coefficient,
                            Expr::binary(BinOp::And, (*f).clone(), not_mask),
                        ));
                    } else {
                        terms.push((
                            parts.coefficient,
                            Expr::binary(
                                BinOp::Xor,
                                Expr::binary(BinOp::Xor, (*f).clone(), Expr::constant(mask)),
                                Expr::constant(mask),
                            ),
                        ));
                    }
                }
                factors => {
                    let product = factors
                        .iter()
                        .map(|f| (*f).clone())
                        .reduce(|a, b| Expr::binary(BinOp::Mul, a, b))
                        .expect("non-constant term has a factor");
                    terms.push((parts.coefficient, product));
                }
            }
        }
        let mut out = mba_sig::linear_combination(&terms);
        // The random draws may have left every factor untouched; force
        // the class with a zero-sum mask split of a target variable.
        if out.mba_class() != MbaClass::SemiLinear {
            if let Some(v) = target.vars().into_iter().next() {
                let mask = SEMI_LINEAR_MASKS[rng.gen_range(0..SEMI_LINEAR_MASKS.len())];
                let var = Expr::var(v);
                let split = Expr::binary(
                    BinOp::Add,
                    Expr::binary(BinOp::And, var.clone(), Expr::constant(mask)),
                    Expr::binary(
                        BinOp::And,
                        var.clone(),
                        Expr::unary(UnOp::Not, Expr::constant(mask)),
                    ),
                );
                out = out + split - var;
            }
        }
        out
    }

    /// Linear obfuscation (signature-preserving decoys).
    fn linear(&self, target: &Expr, rng: &mut impl Rng) -> Option<Expr> {
        obfuscate_linear(
            rng,
            target,
            self.config.linear_extra_terms,
            self.config.bitwise_depth,
        )
    }

    /// Polynomial obfuscation: split every product through the
    /// Figure 1 identity, linear-obfuscate the remaining linear part,
    /// and add zero-identity × linear junk terms.
    fn poly(&self, target: &Expr, rng: &mut impl Rng) -> Expr {
        // 1. Rewrite products via a·b = (a∧b)(a∨b) + (a∧¬b)(¬a∧b).
        let split = split_products(target, rng);
        // 2. If what remains is linear, hide its signature too.
        let base = if split.mba_class() == MbaClass::Linear {
            self.linear(&split, rng).unwrap_or(split)
        } else {
            split
        };
        // 3. Add Z·L where Z ≡ 0: vanishes identically, looks like a
        //    degree-2 polynomial term.
        let vars: Vec<_> = target.vars().into_iter().collect();
        if vars.is_empty() || vars.len() > mba_sig::TruthTable::MAX_VARS {
            return base;
        }
        let mut out = base;
        for _ in 0..2 {
            if let Some(z) = zero_identity(
                rng,
                &vars,
                self.config.zero_identity_terms,
                self.config.bitwise_depth,
            ) {
                // Distribute Z over a bitwise mask so every junk term is a
                // product of pure-bitwise factors (keeping Definition 2).
                let mask = crate::bitwise::random_bitwise(rng, &vars, 1);
                let junk_terms: Vec<(i128, Expr)> = mba_expr::classify::flatten_sum(&z)
                    .iter()
                    .map(|t| {
                        let parts = mba_expr::classify::decompose_term(t.expr, t.sign);
                        let factor = match parts.factors.as_slice() {
                            [] => mask.clone(),
                            [f] => Expr::binary(BinOp::Mul, (*f).clone(), mask.clone()),
                            _ => unreachable!("zero identities are linear"),
                        };
                        (parts.coefficient, factor)
                    })
                    .collect();
                out = out + mba_sig::linear_combination(&junk_terms);
            }
        }
        out
    }

    /// Non-polynomial obfuscation: recursively apply
    /// arithmetic-to-bitwise rewrite rules at random positions, creating
    /// bitwise operators over arithmetic operands.
    fn non_poly(&self, target: &Expr, rng: &mut impl Rng) -> Expr {
        // Seed with a linear obfuscation when possible so the arithmetic
        // operands the rules wrap are themselves MBA.
        let mut current = self.linear(target, rng).unwrap_or_else(|| target.clone());
        for _ in 0..self.config.rewrite_rounds {
            current = rewrite_random_node(&current, rng);
        }
        // Guarantee the non-poly class: wrap the whole expression once
        // if the random rounds failed to escape Definition 2.
        if current.mba_class() != MbaClass::NonPolynomial {
            current = apply_rule(&current, usize::MAX, rng).0;
            if current.mba_class() != MbaClass::NonPolynomial {
                // e = ¬(−e − 1) always leaves Definition 2 when e has any
                // arithmetic.
                current = Expr::unary(UnOp::Not, Expr::binary(BinOp::Sub, -current, Expr::one()));
            }
        }
        current
    }
}

/// A small arithmetic expression over `vars` to seed a parity opaque
/// zero. Any integer value works (`q` and `q+1` are consecutive, so
/// their product is even), but arithmetic forms keep the zero opaque
/// to the signature-based bitwise normalization.
fn parity_seed(vars: &[Ident], rng: &mut impl Rng) -> Expr {
    let v = Expr::var(vars[rng.gen_range(0..vars.len())].clone());
    match rng.gen_range(0..4u32) {
        0 => v,
        1 => {
            let w = Expr::var(vars[rng.gen_range(0..vars.len())].clone());
            v + w
        }
        2 => {
            let w = Expr::var(vars[rng.gen_range(0..vars.len())].clone());
            v * w
        }
        _ => v + Expr::constant(rng.gen_range(1..=7i128)),
    }
}

/// Rewrites `a·b` nodes through the Figure 1 identity
/// `a·b = (a∧b)·(a∨b) + (a∧¬b)·(¬a∧b)` with probability 1/2 per node.
fn split_products(e: &Expr, rng: &mut impl Rng) -> Expr {
    mba_expr::visit::transform_bottom_up(e, &mut |node| match node {
        Expr::Binary(BinOp::Mul, a, b)
            if a.is_pure_bitwise() && b.is_pure_bitwise() && rng.gen_bool(0.8) =>
        {
            let (a, b) = (*a, *b);
            (a.clone() & b.clone()) * (a.clone() | b.clone()) + (a.clone() & !b.clone()) * (!a & b)
        }
        other => other,
    })
}

/// The arithmetic-to-bitwise rewrite rules (all unconditional MBA
/// identities, so substituting arbitrary subexpressions is sound).
fn apply_rule(e: &Expr, position: usize, rng: &mut impl Rng) -> (Expr, bool) {
    let mut seen = 0usize;
    let mut applied = false;
    let out = mba_expr::visit::transform_bottom_up(e, &mut |node| {
        let eligible = matches!(node, Expr::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul, ..));
        if !eligible || applied {
            return node;
        }
        let here = seen == position || position == usize::MAX;
        seen += 1;
        if !here {
            return node;
        }
        applied = true;
        match node {
            Expr::Binary(BinOp::Add, a, b) => {
                let (a, b) = (*a, *b);
                if rng.gen_bool(0.5) {
                    // a + b = (a|b) + (a&b)
                    (a.clone() | b.clone()) + (a & b)
                } else {
                    // a + b = (a^b) + 2(a&b)
                    (a.clone() ^ b.clone()) + Expr::constant(2) * (a & b)
                }
            }
            Expr::Binary(BinOp::Sub, a, b) => {
                let (a, b) = (*a, *b);
                // a − b = (a^b) − 2(¬a & b)
                (a.clone() ^ b.clone()) - Expr::constant(2) * (!a & b)
            }
            Expr::Binary(BinOp::Mul, a, b) => {
                let (a, b) = (*a, *b);
                // a·b = (a&b)(a|b) + (a&¬b)(¬a&b)
                (a.clone() & b.clone()) * (a.clone() | b.clone())
                    + (a.clone() & !b.clone()) * (!a & b)
            }
            other => other,
        }
    });
    (out, applied)
}

/// Applies one rewrite rule at a uniformly random eligible node; returns
/// the input unchanged when no node is eligible.
fn rewrite_random_node(e: &Expr, rng: &mut impl Rng) -> Expr {
    let mut eligible = 0usize;
    mba_expr::visit::for_each_preorder(e, &mut |n| {
        if matches!(n, Expr::Binary(BinOp::Add | BinOp::Sub | BinOp::Mul, ..)) {
            eligible += 1;
        }
    });
    if eligible == 0 {
        return e.clone();
    }
    let position = rng.gen_range(0..eligible);
    apply_rule(e, position, rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::{Metrics, Valuation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_equiv(target: &Expr, obf: &Expr, rng: &mut StdRng) {
        for _ in 0..10 {
            let v = Valuation::new()
                .with("x", rng.gen())
                .with("y", rng.gen())
                .with("z", rng.gen())
                .with("w", rng.gen());
            for width in [8u32, 32, 64] {
                assert_eq!(
                    target.eval(&v, width),
                    obf.eval(&v, width),
                    "`{target}` != `{obf}` at width {width}"
                );
            }
        }
    }

    #[test]
    fn linear_kind_produces_linear_equivalents() {
        let mut rng = StdRng::seed_from_u64(101);
        let ob = Obfuscator::new();
        for src in ["x+y", "x-y", "x^y", "x", "x+y+z"] {
            let target: Expr = src.parse().unwrap();
            let obf = ob.obfuscate(&target, ObfuscationKind::Linear, &mut rng);
            assert_eq!(obf.mba_class(), MbaClass::Linear, "{src} -> {obf}");
            check_equiv(&target, &obf, &mut rng);
        }
    }

    #[test]
    fn semi_linear_kind_produces_semi_linear_equivalents() {
        let mut rng = StdRng::seed_from_u64(505);
        let ob = Obfuscator::new();
        for src in ["x+y", "x-y", "x^y", "x", "x+y+z", "2*x + y"] {
            let target: Expr = src.parse().unwrap();
            let obf = ob.obfuscate(&target, ObfuscationKind::SemiLinear, &mut rng);
            assert_eq!(obf.mba_class(), MbaClass::SemiLinear, "{src} -> {obf}");
            check_equiv(&target, &obf, &mut rng);
        }
    }

    #[test]
    fn semi_linear_masks_are_non_uniform_at_all_widths() {
        for &m in SEMI_LINEAR_MASKS {
            for width in [8u32, 16, 32, 64] {
                let masked = mba_expr::mask(m as u64, width);
                assert_ne!(masked, 0, "mask {m} is all-zeros at width {width}");
                assert_ne!(
                    masked,
                    mba_expr::mask(u64::MAX, width),
                    "mask {m} is all-ones at width {width}"
                );
            }
        }
    }

    #[test]
    fn poly_kind_produces_poly_equivalents() {
        let mut rng = StdRng::seed_from_u64(202);
        let ob = Obfuscator::new();
        for src in ["x*y", "x+y", "x*y+z"] {
            let target: Expr = src.parse().unwrap();
            let obf = ob.obfuscate(&target, ObfuscationKind::Polynomial, &mut rng);
            assert_eq!(obf.mba_class(), MbaClass::Polynomial, "{src} -> {obf}");
            check_equiv(&target, &obf, &mut rng);
        }
    }

    #[test]
    fn nonpoly_kind_produces_nonpoly_equivalents() {
        let mut rng = StdRng::seed_from_u64(303);
        let ob = Obfuscator::new();
        for src in ["x+y", "x-y+z", "x*y", "2*x - y"] {
            let target: Expr = src.parse().unwrap();
            let obf = ob.obfuscate(&target, ObfuscationKind::NonPolynomial, &mut rng);
            assert_eq!(obf.mba_class(), MbaClass::NonPolynomial, "{src} -> {obf}");
            check_equiv(&target, &obf, &mut rng);
        }
    }

    #[test]
    fn residual_kind_lands_outside_linear_and_semi_linear() {
        let mut rng = StdRng::seed_from_u64(606);
        let ob = Obfuscator::new();
        for src in ["x+y", "x-y", "x&y", "x|y", "x^y", "2*x", "x+1", "x+y+z"] {
            let target: Expr = src.parse().unwrap();
            for round in 0..4 {
                let obf = ob.obfuscate(&target, ObfuscationKind::Residual, &mut rng);
                assert_eq!(
                    obf.mba_class(),
                    MbaClass::NonPolynomial,
                    "{src} round {round} -> {obf}"
                );
                check_equiv(&target, &obf, &mut rng);
                // The wrapper must stay small enough for a synthesis
                // tier with a modest node budget to beat.
                assert!(
                    obf.node_count() <= target.node_count() + 2 * 12,
                    "{src} -> {obf} grew too large"
                );
            }
        }
    }

    #[test]
    fn residual_on_constant_target_falls_back_soundly() {
        let mut rng = StdRng::seed_from_u64(607);
        let ob = Obfuscator::new();
        let target: Expr = "7".parse().unwrap();
        let obf = ob.obfuscate(&target, ObfuscationKind::Residual, &mut rng);
        check_equiv(&target, &obf, &mut rng);
    }

    #[test]
    fn residual_determinism_per_seed() {
        let ob = Obfuscator::new();
        let target: Expr = "x+y".parse().unwrap();
        let a = ob.obfuscate(
            &target,
            ObfuscationKind::Residual,
            &mut StdRng::seed_from_u64(9),
        );
        let b = ob.obfuscate(
            &target,
            ObfuscationKind::Residual,
            &mut StdRng::seed_from_u64(9),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn obfuscation_raises_alternation() {
        let mut rng = StdRng::seed_from_u64(404);
        let ob = Obfuscator::new();
        let target: Expr = "x+y".parse().unwrap();
        for kind in [
            ObfuscationKind::Linear,
            ObfuscationKind::Polynomial,
            ObfuscationKind::NonPolynomial,
        ] {
            let obf = ob.obfuscate(&target, kind, &mut rng);
            let m = Metrics::of(&obf);
            assert!(
                m.alternation >= 3,
                "{kind} obfuscation too shallow: {obf} (alternation {})",
                m.alternation
            );
        }
    }

    #[test]
    fn rewrite_rules_are_identities() {
        let mut rng = StdRng::seed_from_u64(7);
        for src in ["x + y", "x - y", "x * y", "(x*y) + (z - x)"] {
            let e: Expr = src.parse().unwrap();
            for _ in 0..10 {
                let rewritten = rewrite_random_node(&e, &mut rng);
                check_equiv(&e, &rewritten, &mut rng);
            }
        }
    }

    #[test]
    fn rewrite_skips_expressions_without_arithmetic() {
        let mut rng = StdRng::seed_from_u64(8);
        let e: Expr = "x & y".parse().unwrap();
        assert_eq!(rewrite_random_node(&e, &mut rng), e);
    }

    #[test]
    fn determinism_per_seed() {
        let ob = Obfuscator::new();
        let target: Expr = "x+y".parse().unwrap();
        let a = ob.obfuscate(
            &target,
            ObfuscationKind::NonPolynomial,
            &mut StdRng::seed_from_u64(1),
        );
        let b = ob.obfuscate(
            &target,
            ObfuscationKind::NonPolynomial,
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(a, b);
    }
}
