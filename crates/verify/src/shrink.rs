//! Discrepancy shrinking.
//!
//! A raw fuzz discrepancy is typically a hundred-node obfuscated tree —
//! useless as a bug report. [`shrink`] greedily minimizes it against a
//! caller-supplied *failure predicate* (normally "the harness still
//! flags this expression"), trying in order:
//!
//! 1. **Subtree hoisting** — replace the whole expression by one of its
//!    proper subtrees, smallest first. This is the workhorse: a bug in
//!    one rewrite usually reproduces on the subtree that triggers it.
//! 2. **Operator skeletons** — for every operator appearing in the
//!    tree, try the minimal expression with that shape (`x ⋄ y`, `⋄ x`)
//!    over fresh variables. This jumps straight to 2–3-node
//!    reproducers when the bug is per-operator (e.g. an unsound `|`
//!    rewrite) even if no such literal subtree exists.
//! 3. **Leaf substitution** — replace an inner subtree by one of its
//!    own variables or by the constants `0`, `1`, `-1`.
//! 4. **Constant reduction** — pull every constant toward zero
//!    (halving, and the canonical `0 / 1 / -1`).
//!
//! Each accepted candidate strictly decreases the measure
//! `(node_count, Σ|constant|)`, so the loop terminates; the result is a
//! local minimum — every smaller candidate the strategies can reach
//! passes the predicate.

use mba_expr::{Expr, Ident};
use std::collections::BTreeSet;

/// Counters reported by [`shrink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidates tested against the predicate.
    pub attempts: u64,
    /// Candidates accepted (shrink steps taken).
    pub accepted: u64,
}

/// The shrink measure: lexicographic `(nodes, Σ|constant|)`.
fn measure(e: &Expr) -> (usize, u128) {
    let const_mass: u128 = e
        .subexprs()
        .iter()
        .map(|s| match s {
            Expr::Const(c) => c.unsigned_abs(),
            _ => 0,
        })
        .sum();
    (e.node_count(), const_mass)
}

/// Fresh canonical variable names for operator skeletons. Reusing the
/// generator's names keeps reproducers readable (`x | y`, not `v17 | v93`).
fn skeleton_vars() -> (Expr, Expr) {
    (Expr::Var(Ident::from("x")), Expr::Var(Ident::from("y")))
}

/// All shrink candidates for `e`, deduplicated, smallest measure first.
fn candidates(e: &Expr) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut push = |c: Expr, out: &mut Vec<Expr>| {
        if measure(&c) < measure(e) && seen.insert(c.to_string()) {
            out.push(c);
        }
    };

    // 1. Proper subtrees (postorder already yields children before
    //    parents; the final entry is `e` itself).
    for sub in e.subexprs() {
        if !std::ptr::eq(sub, e) {
            push(sub.clone(), &mut out);
        }
    }

    // 2. Operator skeletons.
    let (x, y) = skeleton_vars();
    for sub in e.subexprs() {
        match sub {
            Expr::Binary(op, ..) => {
                push(Expr::binary(*op, x.clone(), y.clone()), &mut out);
                push(Expr::binary(*op, x.clone(), x.clone()), &mut out);
            }
            Expr::Unary(op, _) => {
                push(Expr::unary(*op, x.clone()), &mut out);
                push(
                    Expr::unary(
                        *op,
                        Expr::binary(mba_expr::BinOp::And, x.clone(), y.clone()),
                    ),
                    &mut out,
                );
            }
            _ => {}
        }
    }

    // 3. Leaf substitution: rewrite each non-leaf position to a leaf.
    for target in e.subexprs() {
        if target.node_count() <= 1 {
            continue;
        }
        let mut leaves: Vec<Expr> = target.vars().into_iter().take(2).map(Expr::Var).collect();
        leaves.extend([Expr::Const(0), Expr::Const(1), Expr::Const(-1)]);
        for leaf in leaves {
            push(replace_subtree(e, target, &leaf), &mut out);
        }
    }

    // 4. Constant reduction.
    for sub in e.subexprs() {
        if let Expr::Const(c) = sub {
            for smaller in [c / 2, 0, 1, -1] {
                if smaller != *c {
                    push(replace_subtree(e, sub, &Expr::Const(smaller)), &mut out);
                }
            }
        }
    }

    out.sort_by_key(measure);
    out
}

/// Replaces every occurrence of `target` (by structural equality)
/// inside `e` with `replacement`.
fn replace_subtree(e: &Expr, target: &Expr, replacement: &Expr) -> Expr {
    if e == target {
        return replacement.clone();
    }
    match e {
        Expr::Const(_) | Expr::Var(_) => e.clone(),
        Expr::Unary(op, a) => Expr::unary(*op, replace_subtree(a, target, replacement)),
        Expr::Binary(op, a, b) => Expr::binary(
            *op,
            replace_subtree(a, target, replacement),
            replace_subtree(b, target, replacement),
        ),
    }
}

/// Greedily shrinks `expr` while `fails` keeps returning `true`.
///
/// `fails(expr)` must itself return `true` (the caller should only
/// shrink confirmed discrepancies); the result is the smallest failing
/// expression reachable by the candidate strategies. `max_attempts`
/// bounds total predicate calls — the predicate typically runs the full
/// simplify-plus-oracle stack, so it dominates the cost.
pub fn shrink(
    expr: &Expr,
    max_attempts: u64,
    mut fails: impl FnMut(&Expr) -> bool,
) -> (Expr, ShrinkStats) {
    let mut current = expr.clone();
    let mut stats = ShrinkStats::default();
    'outer: loop {
        for candidate in candidates(&current) {
            if stats.attempts >= max_attempts {
                break 'outer;
            }
            stats.attempts += 1;
            if fails(&candidate) {
                stats.accepted += 1;
                current = candidate;
                continue 'outer;
            }
        }
        break;
    }
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::BinOp;

    #[test]
    fn shrinks_to_the_triggering_subtree() {
        // Predicate: "contains a multiplication". The minimal failing
        // expression is the bare skeleton x*y (3 nodes).
        let big: Expr = "((a + b) * (c ^ 3)) | (d & ~e)".parse().unwrap();
        let (small, stats) = shrink(&big, 10_000, |e| {
            e.subexprs()
                .iter()
                .any(|s| matches!(s, Expr::Binary(BinOp::Mul, ..)))
        });
        assert!(small.node_count() <= 3, "got `{small}`");
        assert!(stats.accepted > 0);
    }

    #[test]
    fn skeletons_reach_minimal_or_even_without_a_literal_or_subtree() {
        // `|` only appears at the root over big operands, so no proper
        // subtree is a bare `x | y` — the skeleton strategy must fire.
        let big: Expr = "(a*a + 17) | (b ^ (c & 9))".parse().unwrap();
        let (small, _) = shrink(&big, 10_000, |e| {
            e.subexprs()
                .iter()
                .any(|s| matches!(s, Expr::Binary(BinOp::Or, ..)))
        });
        assert_eq!(small.node_count(), 3, "got `{small}`");
    }

    #[test]
    fn constants_shrink_toward_zero() {
        let big: Expr = "x + 4096".parse().unwrap();
        // Predicate: "has any nonzero constant".
        let (small, _) = shrink(&big, 10_000, |e| {
            e.subexprs()
                .iter()
                .any(|s| matches!(s, Expr::Const(c) if *c != 0))
        });
        // The minimal failing expression is a bare constant.
        assert_eq!(small.node_count(), 1);
        assert!(matches!(small, Expr::Const(c) if c != 0));
    }

    #[test]
    fn result_still_fails_the_predicate() {
        let big: Expr = "(x & y) + (x | y) - 3".parse().unwrap();
        let pred = |e: &Expr| e.vars().contains(&Ident::from("x"));
        let (small, _) = shrink(&big, 10_000, pred);
        assert!(pred(&small));
        assert_eq!(small, Expr::Var(Ident::from("x")));
    }

    #[test]
    fn attempt_budget_is_respected() {
        let big: Expr = "((a + b) * (c ^ 3)) | (d & ~e)".parse().unwrap();
        let (_, stats) = shrink(&big, 5, |_| true);
        assert!(stats.attempts <= 5);
    }
}
