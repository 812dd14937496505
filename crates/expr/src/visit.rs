//! Traversal and rewriting utilities shared by the simplifier and the
//! baseline tools.

use crate::ast::Expr;

/// Rebuilds the tree bottom-up, applying `f` to every node after its
/// children have been rewritten. `f` receives an owned node whose children
/// are already transformed and returns the replacement.
///
/// ```
/// use mba_expr::{visit::transform_bottom_up, Expr};
/// // Fold `e + 0` to `e` everywhere.
/// let e: Expr = "(x + 0) * (y + 0)".parse().unwrap();
/// let out = transform_bottom_up(&e, &mut |node| match node {
///     Expr::Binary(mba_expr::BinOp::Add, a, b) if *b == Expr::Const(0) => *a,
///     other => other,
/// });
/// assert_eq!(out.to_string(), "x*y");
/// ```
pub fn transform_bottom_up(e: &Expr, f: &mut impl FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Unary(op, inner) => Expr::unary(*op, transform_bottom_up(inner, f)),
        Expr::Binary(op, a, b) => {
            Expr::binary(*op, transform_bottom_up(a, f), transform_bottom_up(b, f))
        }
    };
    f(rebuilt)
}

/// Applies `f` to every node in pre-order (parents before children).
pub fn for_each_preorder<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Unary(_, inner) => for_each_preorder(inner, f),
        Expr::Binary(_, a, b) => {
            for_each_preorder(a, f);
            for_each_preorder(b, f);
        }
    }
}

/// Repeatedly applies `transform_bottom_up` until a fixpoint is reached or
/// `max_rounds` passes have run, whichever comes first. Returns the final
/// expression and the number of rounds performed.
pub fn rewrite_to_fixpoint(
    e: &Expr,
    max_rounds: usize,
    f: &mut impl FnMut(Expr) -> Expr,
) -> (Expr, usize) {
    let mut current = e.clone();
    for round in 0..max_rounds {
        let next = transform_bottom_up(&current, f);
        if next == current {
            return (current, round);
        }
        current = next;
    }
    (current, max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::BinOp;

    #[test]
    fn preorder_visits_all_nodes() {
        let e: Expr = "x + y*z".parse().unwrap();
        let mut count = 0;
        for_each_preorder(&e, &mut |_| count += 1);
        assert_eq!(count, e.node_count());
    }

    #[test]
    fn fixpoint_stops_when_stable() {
        let e: Expr = "((x + 0) + 0) + 0".parse().unwrap();
        let (out, rounds) = rewrite_to_fixpoint(&e, 10, &mut |node| match node {
            Expr::Binary(BinOp::Add, a, b) if *b == Expr::Const(0) => *a,
            other => other,
        });
        assert_eq!(out, Expr::var("x"));
        // One pass removes all three (bottom-up), one pass confirms.
        assert!(rounds <= 2, "rounds = {rounds}");
    }

    #[test]
    fn fixpoint_respects_round_cap() {
        // A rewrite that never stabilises: keep swapping operands.
        let e: Expr = "x + y".parse().unwrap();
        let (_, rounds) = rewrite_to_fixpoint(&e, 3, &mut |node| match node {
            Expr::Binary(BinOp::Add, a, b) => Expr::binary(BinOp::Add, *b, *a),
            other => other,
        });
        assert_eq!(rounds, 3);
    }
}
