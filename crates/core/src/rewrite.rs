//! Structural peephole rewrites.
//!
//! When the polynomial pipeline's candidate is worse than the input
//! (e.g. a degree-2 product whose expansion does not cancel), Algorithm 1
//! still simplifies *sub*-expressions and keeps "intermediate results for
//! certain MBA sub-expressions" (§7). This module provides that partial
//! pass: children are simplified independently and cheap local identities
//! fold the rebuilt node.

use mba_expr::arena::Node;
use mba_expr::{BinOp, ExprArena, NodeId, UnOp};

/// Applies local algebraic identities to a node whose children are
/// already simplified and interned, and interns the result. Pure
/// peephole: never recurses. Structural equality of operands is id
/// equality.
pub(crate) fn peephole(arena: &ExprArena, node: Node) -> NodeId {
    match node {
        Node::Unary(op, inner) => fold_unary(arena, op, inner),
        Node::Binary(op, a, b) => fold_binary(arena, op, a, b),
        leaf => arena.mk_node(leaf),
    }
}

fn fold_unary(arena: &ExprArena, op: UnOp, inner: NodeId) -> NodeId {
    match (op, arena.node(inner)) {
        (UnOp::Neg, Node::Const(c)) => arena.mk_const(c.wrapping_neg()),
        (UnOp::Not, Node::Const(c)) => arena.mk_const(!c),
        // ¬¬e = e and −−e = e.
        (UnOp::Neg, Node::Unary(UnOp::Neg, e)) => e,
        (UnOp::Not, Node::Unary(UnOp::Not, e)) => e,
        _ => arena.mk_unary(op, inner),
    }
}

fn fold_binary(arena: &ExprArena, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
    use BinOp::*;
    let literal = |id| match arena.node(id) {
        Node::Const(c) => Some(c),
        _ => None,
    };
    match (op, literal(a), literal(b)) {
        // Constant folding.
        (_, Some(x), Some(y)) => arena.mk_const(match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            And => x & y,
            Or => x | y,
            Xor => x ^ y,
        }),
        // Additive / multiplicative units and annihilators.
        (Add, _, Some(0)) => a,
        (Add, Some(0), _) => b,
        (Sub, _, Some(0)) => a,
        (Sub, Some(0), _) => fold_unary(arena, UnOp::Neg, b),
        (Mul, _, Some(1)) => a,
        (Mul, Some(1), _) => b,
        (Mul, _, Some(0)) | (Mul, Some(0), _) => arena.mk_const(0),
        // Bitwise units and annihilators.
        (And, _, Some(-1)) => a,
        (And, Some(-1), _) => b,
        (And, _, Some(0)) | (And, Some(0), _) => arena.mk_const(0),
        (Or, _, Some(0)) => a,
        (Or, Some(0), _) => b,
        (Or, _, Some(-1)) | (Or, Some(-1), _) => arena.mk_const(-1),
        (Xor, _, Some(0)) => a,
        (Xor, Some(0), _) => b,
        // Idempotence / self-inverses on structurally equal operands.
        (And | Or, ..) if a == b => a,
        (Xor | Sub, ..) if a == b => arena.mk_const(0),
        _ => arena.mk_binary(op, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Expr;

    fn p(src: &str) -> Expr {
        src.parse().unwrap()
    }

    /// Interns `e` and folds its root node once.
    fn peephole_tree(e: Expr) -> Expr {
        let arena = ExprArena::new();
        let id = arena.intern(&e);
        arena.extract(peephole(&arena, arena.node(id)))
    }

    #[test]
    fn constant_folding() {
        assert_eq!(peephole_tree(p("3 + 4")), Expr::Const(7));
        assert_eq!(peephole_tree(p("3 & 5")), Expr::Const(1));
        assert_eq!(peephole_tree(p("2 * 8")), Expr::Const(16));
        assert_eq!(peephole_tree(p("~0")), Expr::Const(-1));
        assert_eq!(
            peephole_tree(Expr::unary(UnOp::Neg, Expr::Const(5))),
            Expr::Const(-5)
        );
    }

    #[test]
    fn units_fold() {
        assert_eq!(peephole_tree(p("x + 0")), p("x"));
        assert_eq!(peephole_tree(p("0 + x")), p("x"));
        assert_eq!(peephole_tree(p("x * 1")), p("x"));
        assert_eq!(peephole_tree(p("x * 0")), Expr::zero());
        assert_eq!(peephole_tree(p("x & -1")), p("x"));
        assert_eq!(peephole_tree(p("x | 0")), p("x"));
        assert_eq!(peephole_tree(p("x ^ 0")), p("x"));
        assert_eq!(peephole_tree(p("x | -1")), Expr::minus_one());
        assert_eq!(peephole_tree(p("x & 0")), Expr::zero());
    }

    #[test]
    fn zero_minus_becomes_negation() {
        assert_eq!(peephole_tree(p("0 - x")).to_string(), "-x");
        // And double negation cancels through.
        let e = Expr::binary(BinOp::Sub, Expr::zero(), p("-x"));
        assert_eq!(peephole_tree(e), p("x"));
    }

    #[test]
    fn idempotence_and_self_inverse() {
        assert_eq!(peephole_tree(p("(x*y) & (x*y)")).to_string(), "x*y");
        assert_eq!(peephole_tree(p("(x+1) | (x+1)")).to_string(), "x+1");
        assert_eq!(peephole_tree(p("(x*y) ^ (x*y)")), Expr::zero());
        assert_eq!(peephole_tree(p("(x*y) - (x*y)")), Expr::zero());
    }

    #[test]
    fn involutions() {
        assert_eq!(peephole_tree(p("~~x")), p("x"));
        let negneg = Expr::unary(UnOp::Neg, Expr::unary(UnOp::Neg, p("x")));
        assert_eq!(peephole_tree(negneg), p("x"));
    }

    #[test]
    fn non_matching_nodes_pass_through() {
        assert_eq!(peephole_tree(p("x + y")), p("x + y"));
        assert_eq!(peephole_tree(p("x & y")), p("x & y"));
        assert_eq!(peephole_tree(p("x")), p("x"));
    }
}
