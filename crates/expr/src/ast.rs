//! The MBA expression tree and its basic structural operations.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// An interned variable name.
///
/// Cloning an `Ident` is a reference-count bump; comparisons fall back to
/// string comparison so identifiers created independently still compare
/// equal by name.
///
/// ```
/// use mba_expr::Ident;
/// let a = Ident::new("x");
/// let b: Ident = "x".into();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ident(Arc<str>);

impl Ident {
    /// Creates an identifier from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Ident(Arc::from(name.as_ref()))
    }

    /// Returns the identifier's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Ident {
    fn from(s: &str) -> Self {
        Ident::new(s)
    }
}

impl From<String> for Ident {
    fn from(s: String) -> Self {
        Ident(Arc::from(s))
    }
}

impl AsRef<str> for Ident {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e` (two's complement).
    Neg,
    /// Bitwise complement `~e`.
    Not,
}

/// Binary operators. The set is exactly the paper's
/// `∧ ∨ ⊕ + − ×` (plus unary `¬`/`-` in [`UnOp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BinOp {
    /// Wrapping addition `+`.
    Add,
    /// Wrapping subtraction `-`.
    Sub,
    /// Wrapping multiplication `*`.
    Mul,
    /// Bitwise conjunction `&`.
    And,
    /// Bitwise disjunction `|`.
    Or,
    /// Bitwise exclusive or `^`.
    Xor,
}

impl BinOp {
    /// The operator's domain: arithmetic or bitwise.
    pub fn domain(self) -> OpDomain {
        match self {
            BinOp::Add | BinOp::Sub | BinOp::Mul => OpDomain::Arithmetic,
            BinOp::And | BinOp::Or | BinOp::Xor => OpDomain::Bitwise,
        }
    }

    /// The surface-syntax token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
        }
    }

    /// Whether `a op b == b op a` for all `a`, `b`.
    pub fn is_commutative(self) -> bool {
        !matches!(self, BinOp::Sub)
    }
}

impl UnOp {
    /// The operator's domain: arithmetic or bitwise.
    pub fn domain(self) -> OpDomain {
        match self {
            UnOp::Neg => OpDomain::Arithmetic,
            UnOp::Not => OpDomain::Bitwise,
        }
    }

    /// The surface-syntax token for the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
        }
    }
}

/// Whether an operator belongs to the arithmetic world (`+ − ×` and unary
/// minus) or the bitwise world (`∧ ∨ ⊕ ¬`). The paper's *MBA alternation*
/// metric counts operators whose operands come from the opposite domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpDomain {
    /// `+`, `-`, `*`, unary `-`.
    Arithmetic,
    /// `&`, `|`, `^`, `~`.
    Bitwise,
}

/// A Mixed-Bitwise-Arithmetic expression.
///
/// Semantics are over `w`-bit two's-complement bit-vectors (the integer
/// modular ring `Z/2^w`); see [`Expr::eval`]. Constants are stored as
/// `i128` and reduced modulo `2^w` at evaluation time, so the same tree can
/// be interpreted at any width — exactly the property MBA identities rely
/// on.
///
/// The tree can be built by parsing (`"x+2*y".parse()`), with the
/// constructor helpers ([`Expr::var`], [`Expr::constant`], ...), or with the
/// overloaded Rust operators:
///
/// ```
/// use mba_expr::Expr;
/// let (x, y) = (Expr::var("x"), Expr::var("y"));
/// let e = (x.clone() | y.clone()) + (!x | y.clone()) - !Expr::var("x");
/// assert_eq!(e.to_string(), "(x|y)+(~x|y)-~x");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Expr {
    /// An integer constant, interpreted modulo `2^w`.
    Const(i128),
    /// A free variable.
    Var(Ident),
    /// A unary operation.
    Unary(UnOp, Box<Expr>),
    /// A binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Creates a variable expression.
    pub fn var(name: impl Into<Ident>) -> Self {
        Expr::Var(name.into())
    }

    /// Creates a constant expression.
    pub fn constant(value: i128) -> Self {
        Expr::Const(value)
    }

    /// The constant zero.
    pub fn zero() -> Self {
        Expr::Const(0)
    }

    /// The constant one.
    pub fn one() -> Self {
        Expr::Const(1)
    }

    /// The all-ones constant `-1`, the bitwise tautology of §2.1.
    pub fn minus_one() -> Self {
        Expr::Const(-1)
    }

    /// Builds `op(lhs, rhs)`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Self {
        Expr::Binary(op, Box::new(lhs), Box::new(rhs))
    }

    /// Builds `op(e)`.
    pub fn unary(op: UnOp, e: Expr) -> Self {
        Expr::Unary(op, Box::new(e))
    }

    /// Returns the set of variables occurring in the expression, sorted by
    /// name.
    ///
    /// ```
    /// use mba_expr::Expr;
    /// let e: Expr = "y + (x & ~y)".parse().unwrap();
    /// let vars: Vec<_> = e.vars().into_iter().map(|v| v.to_string()).collect();
    /// assert_eq!(vars, ["x", "y"]);
    /// ```
    pub fn vars(&self) -> BTreeSet<Ident> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Ident>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                out.insert(v.clone());
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Number of AST nodes.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, e) => 1 + e.node_count(),
            Expr::Binary(_, a, b) => 1 + a.node_count() + b.node_count(),
        }
    }

    /// Tree depth (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, e) => 1 + e.depth(),
            Expr::Binary(_, a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// The domain of the expression's top operator, or `None` for leaves
    /// (variables and constants belong to both worlds).
    pub fn top_domain(&self) -> Option<OpDomain> {
        match self {
            Expr::Const(_) | Expr::Var(_) => None,
            Expr::Unary(op, _) => Some(op.domain()),
            Expr::Binary(op, ..) => Some(op.domain()),
        }
    }

    /// Whether the expression is *purely bitwise*: built only from
    /// variables and `& | ^ ~`. Pure bitwise expressions are the `e_i` of
    /// Definition 1, and the only expressions with well-defined truth
    /// tables.
    ///
    /// Constants `0` and `-1` are allowed (they are bit-uniform: every bit
    /// position holds the same boolean), other constants are not.
    pub fn is_pure_bitwise(&self) -> bool {
        match self {
            Expr::Const(c) => *c == 0 || *c == -1,
            Expr::Var(_) => true,
            Expr::Unary(UnOp::Not, e) => e.is_pure_bitwise(),
            // Arithmetic negation is not bitwise — except over a literal
            // chain that folds to a bit-uniform constant (0 or −1), so
            // the classification agrees with the parsed form of the
            // printout (the parser folds `-CONST`).
            Expr::Unary(UnOp::Neg, _) => {
                matches!(fold_negated_literal(self), Some(0) | Some(-1))
            }
            Expr::Binary(op, a, b) => {
                op.domain() == OpDomain::Bitwise && a.is_pure_bitwise() && b.is_pure_bitwise()
            }
        }
    }

    /// Whether the expression is *bitwise with constants*: built only
    /// from variables, arbitrary integer constants and `& | ^ ~`. These
    /// are the factors of the *semi-linear* class — per-bit boolean
    /// functions whose constant operands vary across bit positions.
    /// [`Expr::is_pure_bitwise`] is the special case where every
    /// constant is bit-uniform (`0` or `-1`).
    pub fn is_bitwise_with_consts(&self) -> bool {
        match self {
            Expr::Const(_) => true,
            Expr::Var(_) => true,
            Expr::Unary(UnOp::Not, e) => e.is_bitwise_with_consts(),
            // As in `is_pure_bitwise`, arithmetic negation only counts
            // over a literal chain, where it denotes a constant — here
            // of any value, not just the bit-uniform ones.
            Expr::Unary(UnOp::Neg, _) => fold_negated_literal(self).is_some(),
            Expr::Binary(op, a, b) => {
                op.domain() == OpDomain::Bitwise
                    && a.is_bitwise_with_consts()
                    && b.is_bitwise_with_consts()
            }
        }
    }

    /// Folds the expression to a literal constant if it is a `Const`
    /// under a (possibly empty) chain of unary minuses.
    pub fn as_literal(&self) -> Option<i128> {
        fold_negated_literal(self)
    }

    /// Substitutes every occurrence of variable `name` with `replacement`.
    pub fn substitute(&self, name: &Ident, replacement: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(v) => {
                if v == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Unary(op, e) => Expr::unary(*op, e.substitute(name, replacement)),
            Expr::Binary(op, a, b) => Expr::binary(
                *op,
                a.substitute(name, replacement),
                b.substitute(name, replacement),
            ),
        }
    }

    /// Replaces every subtree structurally equal to `target` with
    /// `replacement`. Returns the rewritten tree and the number of
    /// replacements performed.
    pub fn replace_subexpr(&self, target: &Expr, replacement: &Expr) -> (Expr, usize) {
        if self == target {
            return (replacement.clone(), 1);
        }
        match self {
            Expr::Const(_) | Expr::Var(_) => (self.clone(), 0),
            Expr::Unary(op, e) => {
                let (e2, n) = e.replace_subexpr(target, replacement);
                (Expr::unary(*op, e2), n)
            }
            Expr::Binary(op, a, b) => {
                let (a2, n1) = a.replace_subexpr(target, replacement);
                let (b2, n2) = b.replace_subexpr(target, replacement);
                (Expr::binary(*op, a2, b2), n1 + n2)
            }
        }
    }

    /// Returns the sub-expressions in post-order (children before parents;
    /// the expression itself is last).
    pub fn subexprs(&self) -> Vec<&Expr> {
        let mut out = Vec::with_capacity(self.node_count());
        self.collect_postorder(&mut out);
        out
    }

    fn collect_postorder<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::Const(_) | Expr::Var(_) => {}
            Expr::Unary(_, e) => e.collect_postorder(out),
            Expr::Binary(_, a, b) => {
                a.collect_postorder(out);
                b.collect_postorder(out);
            }
        }
        out.push(self);
    }
}

/// Folds a chain of unary minuses over a literal constant; `None` for
/// anything else.
fn fold_negated_literal(e: &Expr) -> Option<i128> {
    match e {
        Expr::Const(c) => Some(*c),
        Expr::Unary(UnOp::Neg, inner) => fold_negated_literal(inner).map(|c| -c),
        _ => None,
    }
}

impl Default for Expr {
    /// The zero expression.
    fn default() -> Self {
        Expr::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_equality_is_by_name() {
        assert_eq!(Ident::new("x"), Ident::from("x".to_string()));
        assert_ne!(Ident::new("x"), Ident::new("y"));
        assert_eq!(Ident::new("abc").as_str(), "abc");
    }

    #[test]
    fn vars_are_sorted_and_deduplicated() {
        let e: Expr = "z + x*z + (x & y)".parse().unwrap();
        let names: Vec<_> = e.vars().into_iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["x", "y", "z"]);
    }

    #[test]
    fn node_count_and_depth() {
        let e: Expr = "x + y*z".parse().unwrap();
        assert_eq!(e.node_count(), 5);
        assert_eq!(e.depth(), 3);
        assert_eq!(Expr::var("x").depth(), 1);
    }

    #[test]
    fn pure_bitwise_detection() {
        let yes: Expr = "~(x & y) ^ (x | ~y)".parse().unwrap();
        assert!(yes.is_pure_bitwise());
        let no: Expr = "x & (y + 1)".parse().unwrap();
        assert!(!no.is_pure_bitwise());
        let neg: Expr = "-(x & y)".parse().unwrap();
        assert!(!neg.is_pure_bitwise());
        // 0 and -1 are bit-uniform constants, other constants are not.
        assert!("x & -1".parse::<Expr>().unwrap().is_pure_bitwise());
        assert!("x & 0".parse::<Expr>().unwrap().is_pure_bitwise());
        assert!(!"x & 3".parse::<Expr>().unwrap().is_pure_bitwise());
    }

    #[test]
    fn substitute_replaces_all_occurrences() {
        let e: Expr = "x + x*y".parse().unwrap();
        let t: Expr = "a - b".parse().unwrap();
        let got = e.substitute(&Ident::new("x"), &t);
        assert_eq!(got.to_string(), "a-b+(a-b)*y");
    }

    #[test]
    fn replace_subexpr_counts() {
        let e: Expr = "(x & y) + (x & y)*z".parse().unwrap();
        let target: Expr = "x & y".parse().unwrap();
        let (out, n) = e.replace_subexpr(&target, &Expr::var("t"));
        assert_eq!(n, 2);
        assert_eq!(out.to_string(), "t+t*z");
    }

    #[test]
    fn subexprs_postorder_ends_with_root() {
        let e: Expr = "x + y".parse().unwrap();
        let subs = e.subexprs();
        assert_eq!(subs.len(), 3);
        assert_eq!(subs.last().copied(), Some(&e));
    }

    #[test]
    fn top_domain() {
        assert_eq!(
            "x+y".parse::<Expr>().unwrap().top_domain(),
            Some(OpDomain::Arithmetic)
        );
        assert_eq!(
            "~x".parse::<Expr>().unwrap().top_domain(),
            Some(OpDomain::Bitwise)
        );
        assert_eq!(Expr::var("x").top_domain(), None);
    }
}
