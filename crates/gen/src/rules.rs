//! The published MBA rewrite catalog (paper §2.1–§2.2).
//!
//! These are the identities the literature reuses everywhere — HAKMEM,
//! Hacker's Delight, Zhou et al., Eyrolles' thesis, and the paper's own
//! §2.2 list of `x + y` encodings. Each rule is an unconditional
//! identity over `Z/2^w` for every `w`, stated over the metavariables
//! `a`, `b`; substituting arbitrary expressions is therefore sound,
//! which is exactly how the non-poly obfuscator uses them.

use mba_expr::{Expr, Ident};

/// One catalog entry: `lhs == rhs` for all inputs, at every width.
#[derive(Debug, Clone)]
pub struct RewriteRule {
    /// Short name for diagnostics (e.g. `"add-via-or-and"`).
    pub name: &'static str,
    /// Where the identity is catalogued.
    pub source: &'static str,
    /// The simple side, over metavariables `a`, `b`.
    pub lhs: Expr,
    /// The obfuscated side.
    pub rhs: Expr,
}

impl RewriteRule {
    /// Instantiates the obfuscated side with concrete subexpressions.
    pub fn apply(&self, a: &Expr, b: &Expr) -> Expr {
        let ia = Ident::new("a");
        let ib = Ident::new("b");
        self.rhs.substitute(&ia, a).substitute(&ib, b)
    }
}

/// `(name, source, lhs, rhs)` catalog rows; parsed once by [`catalog`].
const ROWS: &[(&str, &str, &str, &str)] = &[
    // §2.2: the paper's four x + y encodings.
    (
        "add-via-or-notor",
        "paper §2.2",
        "a + b",
        "(a | b) + (~a | b) - ~a",
    ),
    (
        "add-via-or-andnot",
        "paper §2.2",
        "a + b",
        "(a | b) + b - (~a & b)",
    ),
    (
        "add-via-xor-2b",
        "paper §2.2",
        "a + b",
        "(a ^ b) + 2*b - 2*(~a & b)",
    ),
    (
        "add-via-minterms",
        "paper §2.2",
        "a + b",
        "b + (a & ~b) + (a & b)",
    ),
    // HAKMEM / Hacker's Delight classics (equations (2) and (3) and kin).
    ("or-via-andnot", "HAKMEM", "a | b", "(a & ~b) + b"),
    ("xor-via-or-and", "HAKMEM", "a ^ b", "(a | b) - (a & b)"),
    (
        "add-via-or-and",
        "Hacker's Delight",
        "a + b",
        "(a | b) + (a & b)",
    ),
    (
        "add-via-xor-and",
        "Hacker's Delight",
        "a + b",
        "(a ^ b) + 2*(a & b)",
    ),
    (
        "sub-via-xor",
        "Hacker's Delight",
        "a - b",
        "(a ^ b) - 2*(~a & b)",
    ),
    (
        "sub-via-example1",
        "paper §2.1 Example 1",
        "a - b",
        "(a ^ b) + 2*(a | ~b) + 2",
    ),
    ("and-via-or", "Table 9 basis", "a & b", "a + b - (a | b)"),
    ("or-via-and", "Table 4 basis", "a | b", "a + b - (a & b)"),
    ("xor-via-and", "Table 5", "a ^ b", "a + b - 2*(a & b)"),
    ("not-via-neg", "two's complement", "~a", "-a - 1"),
    ("neg-via-not", "two's complement", "-a", "~a + 1"),
    // Figure 1: the product split.
    (
        "mul-split",
        "paper Figure 1",
        "a * b",
        "(a & ~b)*(~a & b) + (a & b)*(a | b)",
    ),
];

/// The full catalog, parsed. Rules are width-generic identities.
///
/// ```
/// use mba_gen::rules::catalog;
/// use mba_expr::{Expr, Valuation};
///
/// let rule = catalog().into_iter().find(|r| r.name == "add-via-or-and").unwrap();
/// // Substitute whole expressions for the metavariables:
/// let obf = rule.apply(&"x*z".parse().unwrap(), &"y - 1".parse().unwrap());
/// let v = Valuation::new().with("x", 7).with("y", 9).with("z", 3);
/// let plain: Expr = "x*z + (y - 1)".parse().unwrap();
/// assert_eq!(obf.eval(&v, 64), plain.eval(&v, 64));
/// ```
pub fn catalog() -> Vec<RewriteRule> {
    ROWS.iter()
        .map(|&(name, source, lhs, rhs)| RewriteRule {
            name,
            source,
            lhs: lhs.parse().expect("catalog lhs parses"),
            rhs: rhs.parse().expect("catalog rhs parses"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::{MbaClass, Valuation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every catalog rule must be an identity at widths 1, 8, 17, 64 on
    /// random inputs.
    #[test]
    fn every_rule_is_a_width_generic_identity() {
        let mut rng = StdRng::seed_from_u64(0x0CA7_A106);
        for rule in catalog() {
            for _ in 0..32 {
                let v = Valuation::new().with("a", rng.gen()).with("b", rng.gen());
                for w in [1u32, 8, 17, 64] {
                    assert_eq!(
                        rule.lhs.eval(&v, w),
                        rule.rhs.eval(&v, w),
                        "rule `{}` ({}) fails at width {w}",
                        rule.name,
                        rule.source
                    );
                }
            }
        }
    }

    /// Substitution of compound expressions preserves the identity.
    #[test]
    fn rules_hold_under_substitution() {
        let mut rng = StdRng::seed_from_u64(7);
        let sub_a: Expr = "x*y - 3".parse().unwrap();
        let sub_b: Expr = "(x ^ z) + 1".parse().unwrap();
        for rule in catalog() {
            let instantiated = rule.apply(&sub_a, &sub_b);
            let ia = Ident::new("a");
            let ib = Ident::new("b");
            let plain = rule.lhs.substitute(&ia, &sub_a).substitute(&ib, &sub_b);
            for _ in 0..8 {
                let v = Valuation::new()
                    .with("x", rng.gen())
                    .with("y", rng.gen())
                    .with("z", rng.gen());
                assert_eq!(
                    plain.eval(&v, 64),
                    instantiated.eval(&v, 64),
                    "rule `{}` broke under substitution",
                    rule.name
                );
            }
        }
    }

    /// MBA-Solver inverts every rule: simplifying the obfuscated side
    /// recovers something provably equal to the simple side.
    #[test]
    fn mba_solver_inverts_the_whole_catalog() {
        let simplifier = mba_solver::Simplifier::new();
        for rule in catalog() {
            assert_eq!(
                simplifier.proves_equivalent(&rule.rhs, &rule.lhs),
                Some(true),
                "MBA-Solver cannot invert `{}` ({})",
                rule.name,
                rule.source
            );
        }
    }

    /// The obfuscated sides genuinely mix domains (except the pure
    /// complement rules).
    #[test]
    fn obfuscated_sides_are_mba() {
        for rule in catalog() {
            if matches!(rule.name, "not-via-neg" | "neg-via-not") {
                continue;
            }
            assert!(
                mba_expr::metrics::is_mixed(&rule.rhs),
                "rule `{}` rhs is not mixed: {}",
                rule.name,
                rule.rhs
            );
            // And classification is sensible.
            assert_ne!(
                rule.rhs.mba_class(),
                MbaClass::NonPolynomial,
                "{}",
                rule.name
            );
        }
    }

    #[test]
    fn catalog_is_substantial_and_named_uniquely() {
        let rules = catalog();
        assert!(rules.len() >= 16);
        let mut names: Vec<_> = rules.iter().map(|r| r.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len(), "duplicate rule names");
    }
}
