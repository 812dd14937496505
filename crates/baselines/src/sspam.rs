//! SSPAM-style pattern-matching simplification.
//!
//! A rule library of known MBA identities (Hacker's Delight plus the
//! rewrite set SSPAM ships) is matched bottom-up, modulo commutativity,
//! until a fixpoint. Every rule is an unconditional identity, so the
//! transformation is semantic-preserving — but the library is finite,
//! which bounds what it can undo.

use std::collections::HashMap;

use mba_expr::{BinOp, Expr, Ident, UnOp};

/// The SSPAM-like simplifier. Stateless apart from its rule library;
/// construct once and reuse.
#[derive(Debug)]
pub struct Sspam {
    rules: Vec<Rule>,
    max_rounds: usize,
}

#[derive(Debug)]
struct Rule {
    name: &'static str,
    pattern: Expr,
    replacement: Expr,
}

/// Pattern syntax: every identifier is a wildcard that matches any
/// subexpression; repeated identifiers must match structurally equal
/// subtrees. Constants match exactly.
const RULES: &[(&str, &str, &str)] = &[
    // Additive encodings of +.
    ("or-and-add", "(A | B) + (A & B)", "A + B"),
    ("xor-2and-add", "(A ^ B) + 2*(A & B)", "A + B"),
    ("andnot-add", "(A & ~B) + B", "A | B"),
    ("or-sub-and", "(A | B) - (A & B)", "A ^ B"),
    ("add-sub-2and", "A + B - 2*(A & B)", "A ^ B"),
    ("xor-2b-2andnot", "(A ^ B) + 2*B - 2*(~A & B)", "A + B"),
    ("or-b-andnot", "(A | B) + B - (~A & B)", "A + B"),
    ("or-notor-not", "(A | B) + (~A | B) - ~A", "A + B"),
    ("b-andnot-and", "B + (A & ~B) + (A & B)", "A + B"),
    ("xor-2ornot", "(A ^ B) + 2*(A | ~B) + 2", "A - B"),
    ("xor-sub-2andnot", "(A ^ B) - 2*(~A & B)", "A - B"),
    // Product encoding (the paper's Figure 1).
    ("mul-split", "(A & ~B)*(~A & B) + (A & B)*(A | B)", "A * B"),
    // Complement algebra.
    ("neg-not", "-A - 1", "~A"),
    ("not-to-neg", "~A + 1", "-A"),
    ("not-not", "~(~A)", "A"),
    // Absorption / units.
    ("and-self", "A & A", "A"),
    ("or-self", "A | A", "A"),
    ("xor-self", "A ^ A", "0"),
    ("sub-self", "A - A", "0"),
    ("and-absorb", "A & (A | B)", "A"),
    ("or-absorb", "A | (A & B)", "A"),
    ("sub-and", "A - (A & B)", "A & ~B"),
    ("add-zero", "A + 0", "A"),
    ("sub-zero", "A - 0", "A"),
    ("mul-one", "A * 1", "A"),
    ("mul-zero", "A * 0", "0"),
    ("and-zero", "A & 0", "0"),
    ("and-ones", "A & -1", "A"),
    ("or-zero", "A | 0", "A"),
    ("or-ones", "A | -1", "-1"),
    ("xor-zero", "A ^ 0", "A"),
];

impl Default for Sspam {
    fn default() -> Self {
        Sspam::new()
    }
}

impl Sspam {
    /// Builds the simplifier with the standard rule library.
    pub fn new() -> Sspam {
        let rules = RULES
            .iter()
            .map(|&(name, pat, rep)| Rule {
                name,
                pattern: pat.parse().expect("library pattern parses"),
                replacement: rep.parse().expect("library replacement parses"),
            })
            .collect();
        Sspam {
            rules,
            max_rounds: 16,
        }
    }

    /// Number of rules in the library.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Simplifies by rewriting bottom-up to a fixpoint (or the round
    /// cap). The result is always equivalent to the input; it is the
    /// input itself when nothing in the library matches.
    pub fn simplify(&self, e: &Expr) -> Expr {
        let mut current = e.clone();
        for _ in 0..self.max_rounds {
            let next =
                mba_expr::visit::transform_bottom_up(&current, &mut |node| self.rewrite_node(node));
            let next = fold_constants(&next);
            if next == current {
                break;
            }
            current = next;
        }
        current
    }

    /// Applies the first matching rule at this node, if any.
    fn rewrite_node(&self, node: Expr) -> Expr {
        for rule in &self.rules {
            let mut bindings = HashMap::new();
            if unify(&rule.pattern, &node, &mut bindings) {
                return instantiate(&rule.replacement, &bindings);
            }
        }
        node
    }

    /// The names of the library rules (for diagnostics and docs).
    pub fn rule_names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.rules.iter().map(|r| r.name)
    }
}

/// Structural unification with wildcard identifiers, modulo
/// commutativity of `+ × ∧ ∨ ⊕`.
fn unify(pattern: &Expr, expr: &Expr, bindings: &mut HashMap<Ident, Expr>) -> bool {
    match (pattern, expr) {
        (Expr::Var(name), _) => match bindings.get(name) {
            Some(bound) => bound == expr,
            None => {
                bindings.insert(name.clone(), expr.clone());
                true
            }
        },
        (Expr::Const(a), Expr::Const(b)) => a == b,
        (Expr::Unary(op_p, p), Expr::Unary(op_e, e)) if op_p == op_e => unify(p, e, bindings),
        (Expr::Binary(op_p, pa, pb), Expr::Binary(op_e, ea, eb)) if op_p == op_e => {
            let snapshot = bindings.clone();
            if unify(pa, ea, bindings) && unify(pb, eb, bindings) {
                return true;
            }
            *bindings = snapshot;
            if op_p.is_commutative() {
                let snapshot = bindings.clone();
                if unify(pa, eb, bindings) && unify(pb, ea, bindings) {
                    return true;
                }
                *bindings = snapshot;
            }
            false
        }
        _ => false,
    }
}

/// Substitutes bindings into a replacement template.
fn instantiate(template: &Expr, bindings: &HashMap<Ident, Expr>) -> Expr {
    match template {
        Expr::Const(_) => template.clone(),
        Expr::Var(name) => bindings
            .get(name)
            .cloned()
            .unwrap_or_else(|| template.clone()),
        Expr::Unary(op, inner) => Expr::unary(*op, instantiate(inner, bindings)),
        Expr::Binary(op, a, b) => {
            Expr::binary(*op, instantiate(a, bindings), instantiate(b, bindings))
        }
    }
}

/// Constant folding pass (SSPAM leans on SymPy for this part).
fn fold_constants(e: &Expr) -> Expr {
    mba_expr::visit::transform_bottom_up(e, &mut |node| match node {
        Expr::Unary(op, inner) => match (*inner, op) {
            (Expr::Const(c), UnOp::Neg) => Expr::Const(c.wrapping_neg()),
            (Expr::Const(c), UnOp::Not) => Expr::Const(!c),
            (inner, op) => Expr::unary(op, inner),
        },
        Expr::Binary(op, a, b) => match (*a, *b) {
            (Expr::Const(x), Expr::Const(y)) => Expr::Const(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
            }),
            (a, b) => Expr::binary(op, a, b),
        },
        leaf => leaf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn simplify(src: &str) -> String {
        Sspam::new().simplify(&src.parse().unwrap()).to_string()
    }

    #[test]
    fn library_rules_fire_on_exact_shapes() {
        assert_eq!(simplify("(x | y) + (x & y)"), "x+y");
        assert_eq!(simplify("(x ^ y) + 2*(x & y)"), "x+y");
        assert_eq!(simplify("(x | y) - (x & y)"), "x^y");
        assert_eq!(simplify("(x&~y)*(~x&y) + (x&y)*(x|y)"), "x*y");
    }

    #[test]
    fn commutativity_is_handled() {
        // Operands flipped relative to the library patterns.
        assert_eq!(simplify("(x & y) + (x | y)"), "x+y");
        assert_eq!(simplify("(y & x) + (y | x)"), "y+x");
        assert_eq!(simplify("2*(x & y) + (x ^ y)"), "x+y");
    }

    #[test]
    fn repeated_wildcards_require_equal_subtrees() {
        // (x|y) + (x&z) must NOT rewrite: B binds inconsistently.
        let src = "(x | y) + (x & z)";
        assert_eq!(simplify(src), src.parse::<Expr>().unwrap().to_string());
    }

    #[test]
    fn wildcards_match_whole_subexpressions() {
        // A = (a-b), B = c.
        assert_eq!(simplify("((a-b) | c) + ((a-b) & c)"), "a-b+c");
    }

    #[test]
    fn rewrites_cascade_to_fixpoint() {
        // Inner rule application exposes an outer one.
        let src = "((x | y) + (x & y)) - ((x | y) + (x & y))";
        assert_eq!(simplify(src), "0");
    }

    #[test]
    fn out_of_library_shapes_are_untouched() {
        // A randomized linear MBA (decoy coefficients) has no library
        // shape — SSPAM's fundamental limitation (Table 7).
        let src = "3*(x|~y) - 5*(~x&y) + 2*(x^y) + 7*(x&y) - 3";
        let before: Expr = src.parse().unwrap();
        let after = Sspam::new().simplify(&before);
        assert_eq!(after, before);
    }

    #[test]
    fn always_semantic_preserving() {
        let cases = [
            "(x | y) + (x & y)",
            "(x ^ y) + 2*y - 2*(~x & y)",
            "~(~(x + 1))",
            "(x - y) + 0 + (z * 1)",
            "3*(x|~y) - 5*(~x&y)",
            "x + y - 2*(x&y)",
            "-x - 1",
        ];
        let s = Sspam::new();
        for src in cases {
            let e: Expr = src.parse().unwrap();
            let out = s.simplify(&e);
            for (x, y, z) in [(0u64, 0u64, 0u64), (7, 9, 1), (u64::MAX, 5, 123)] {
                let v = Valuation::new().with("x", x).with("y", y).with("z", z);
                for w in [8u32, 64] {
                    assert_eq!(e.eval(&v, w), out.eval(&v, w), "{src} -> {out}");
                }
            }
        }
    }

    #[test]
    fn constant_folding_runs() {
        assert_eq!(simplify("x + (2 + 3) * 1"), "x+5");
        assert_eq!(simplify("~0 & x"), "x");
    }

    #[test]
    fn complement_rules() {
        assert_eq!(simplify("-x - 1"), "~x");
        assert_eq!(simplify("~x + 1"), "-x");
        assert_eq!(simplify("~(~x)"), "x");
    }

    #[test]
    fn library_is_nonempty_and_named() {
        let s = Sspam::new();
        assert!(s.num_rules() >= 25);
        assert!(s.rule_names().any(|n| n == "mul-split"));
    }
}
