//! The word-level rewriter.
//!
//! Implements the three [`RewriteLevel`]s. All rules are sound at any
//! width; none of them crosses the bitwise/arithmetic boundary (there is
//! no rule relating `∧`/`∨`/`⊕` to `+`/`−`/`×`), which is exactly why
//! real solvers bog down on MBA and why the paper's preprocessing helps.

use std::collections::HashMap;

use mba_expr::{BinOp, UnOp};

use crate::profile::RewriteLevel;
use crate::term::{TermId, TermKind, TermPool};

/// Rewrites `id` to a (hopefully smaller) equivalent term in `pool`.
pub(crate) fn rewrite(pool: &mut TermPool, id: TermId, level: RewriteLevel) -> TermId {
    let mut rw = Rewriter {
        pool,
        level,
        cache: HashMap::new(),
    };
    rw.rewrite(id)
}

struct Rewriter<'p> {
    pool: &'p mut TermPool,
    level: RewriteLevel,
    cache: HashMap<TermId, TermId>,
}

impl Rewriter<'_> {
    fn width_mask(&self) -> u64 {
        mba_expr::mask(u64::MAX, self.pool.width())
    }

    fn rewrite(&mut self, id: TermId) -> TermId {
        if let Some(&done) = self.cache.get(&id) {
            return done;
        }
        let out = match self.pool.kind(id).clone() {
            TermKind::Const(_) | TermKind::Var(_) => id,
            TermKind::Unary(op, a) => {
                let a = self.rewrite(a);
                self.simplify_unary(op, a)
            }
            TermKind::Binary(op, a, b) => {
                let a = self.rewrite(a);
                let b = self.rewrite(b);
                self.simplify_binary(op, a, b)
            }
        };
        let out = if self.level >= RewriteLevel::Aggressive {
            self.collect_linear(out)
        } else {
            out
        };
        self.cache.insert(id, out);
        out
    }

    fn constant_of(&self, id: TermId) -> Option<u64> {
        match self.pool.kind(id) {
            TermKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    fn simplify_unary(&mut self, op: UnOp, a: TermId) -> TermId {
        if let Some(c) = self.constant_of(a) {
            let v = match op {
                UnOp::Neg => c.wrapping_neg(),
                UnOp::Not => !c,
            };
            return self.pool.constant(v);
        }
        // Involutions: ¬¬x = x, −−x = x.
        if let TermKind::Unary(inner_op, inner) = self.pool.kind(a) {
            if *inner_op == op {
                return *inner;
            }
        }
        self.pool.intern(TermKind::Unary(op, a))
    }

    fn simplify_binary(&mut self, op: BinOp, mut a: TermId, mut b: TermId) -> TermId {
        let mask = self.width_mask();
        // Constant folding.
        if let (Some(x), Some(y)) = (self.constant_of(a), self.constant_of(b)) {
            let v = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::And => x & y,
                BinOp::Or => x | y,
                BinOp::Xor => x ^ y,
            };
            return self.pool.constant(v);
        }
        if self.level >= RewriteLevel::Standard && op.is_commutative() && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let ca = self.constant_of(a);
        let cb = self.constant_of(b);
        // Unit and annihilator laws (Basic).
        match op {
            BinOp::Add => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BinOp::Sub => {
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(0) {
                    return self.simplify_unary(UnOp::Neg, b);
                }
            }
            BinOp::Mul => {
                if ca == Some(1) {
                    return b;
                }
                if cb == Some(1) {
                    return a;
                }
                if ca == Some(0) || cb == Some(0) {
                    return self.pool.constant(0);
                }
            }
            BinOp::And => {
                if ca == Some(mask) {
                    return b;
                }
                if cb == Some(mask) {
                    return a;
                }
                if ca == Some(0) || cb == Some(0) {
                    return self.pool.constant(0);
                }
            }
            BinOp::Or => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
                if ca == Some(mask) || cb == Some(mask) {
                    return self.pool.constant(mask);
                }
            }
            BinOp::Xor => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
        }
        // Standard-level structural laws.
        if self.level >= RewriteLevel::Standard {
            if a == b {
                match op {
                    BinOp::And | BinOp::Or => return a,
                    BinOp::Xor => return self.pool.constant(0),
                    BinOp::Sub => return self.pool.constant(0),
                    _ => {}
                }
            }
            // Complement laws: x op ¬x.
            let complement = |pool: &TermPool, u: TermId, v: TermId| matches!(pool.kind(v), TermKind::Unary(UnOp::Not, inner) if *inner == u);
            if complement(self.pool, a, b) || complement(self.pool, b, a) {
                match op {
                    BinOp::And => return self.pool.constant(0),
                    BinOp::Or | BinOp::Xor => return self.pool.constant(mask),
                    _ => {}
                }
            }
        }
        self.pool.intern(TermKind::Binary(op, a, b))
    }

    /// Aggressive-level linear collection: flatten `+`, `−`, unary `−`
    /// and `const·t` chains over already-rewritten children, cancel like
    /// atoms, and rebuild a canonical sum. Proves pure-arithmetic
    /// cancellations (e.g. `x + y − x − y = 0`) without touching any
    /// bitwise structure.
    fn collect_linear(&mut self, id: TermId) -> TermId {
        if !matches!(
            self.pool.kind(id),
            TermKind::Binary(BinOp::Add | BinOp::Sub, ..) | TermKind::Unary(UnOp::Neg, _)
        ) {
            return id;
        }
        let mask = self.width_mask();
        let mut atoms: HashMap<TermId, u64> = HashMap::new();
        let mut constant = 0u64;
        self.collect_into(id, 1, &mut atoms, &mut constant);

        // Canonical rebuild: atoms sorted by id, constant last.
        // Coefficients in the "negative" half of the ring rebuild as
        // subtractions of their small magnitude — `a − b`, never
        // `a + (2^w − 1)·b`, which would bit-blast into a full-width
        // constant multiplier.
        let half = 1u64 << (self.pool.width() - 1);
        let mut entries: Vec<(TermId, u64)> =
            atoms.into_iter().filter(|&(_, c)| c & mask != 0).collect();
        entries.sort_by_key(|&(t, _)| t);
        let mut acc: Option<TermId> = None;
        for (atom, coef) in entries {
            let coef = coef & mask;
            let negative = coef >= half;
            let magnitude = if negative {
                coef.wrapping_neg() & mask
            } else {
                coef
            };
            let term = if magnitude == 1 {
                atom
            } else {
                let c = self.pool.constant(magnitude);
                // Keep Mul(Const, t) canonical: constant first.
                self.pool.intern(TermKind::Binary(BinOp::Mul, c, atom))
            };
            acc = Some(match (acc, negative) {
                (None, false) => term,
                (None, true) => self.pool.intern(TermKind::Unary(UnOp::Neg, term)),
                (Some(prev), false) => self.pool.intern(TermKind::Binary(BinOp::Add, prev, term)),
                (Some(prev), true) => self.pool.intern(TermKind::Binary(BinOp::Sub, prev, term)),
            });
        }
        let constant = constant & mask;
        if constant != 0 || acc.is_none() {
            acc = Some(match acc {
                None => self.pool.constant(constant),
                Some(prev) => {
                    if constant >= half {
                        let c = self.pool.constant(constant.wrapping_neg() & mask);
                        self.pool.intern(TermKind::Binary(BinOp::Sub, prev, c))
                    } else {
                        let c = self.pool.constant(constant);
                        self.pool.intern(TermKind::Binary(BinOp::Add, prev, c))
                    }
                }
            });
        }
        acc.expect("set above")
    }

    fn collect_into(
        &mut self,
        id: TermId,
        sign: i64,
        atoms: &mut HashMap<TermId, u64>,
        constant: &mut u64,
    ) {
        let factor = sign as u64; // 1 or -1 (two's complement)
        match self.pool.kind(id).clone() {
            TermKind::Const(c) => *constant = constant.wrapping_add(c.wrapping_mul(factor)),
            TermKind::Binary(BinOp::Add, a, b) => {
                self.collect_into(a, sign, atoms, constant);
                self.collect_into(b, sign, atoms, constant);
            }
            TermKind::Binary(BinOp::Sub, a, b) => {
                self.collect_into(a, sign, atoms, constant);
                self.collect_into(b, -sign, atoms, constant);
            }
            TermKind::Unary(UnOp::Neg, a) => self.collect_into(a, -sign, atoms, constant),
            TermKind::Binary(BinOp::Mul, a, b) => {
                // const · t (either side) contributes t with a scaled
                // coefficient; anything else is an atom.
                match (self.constant_of(a), self.constant_of(b)) {
                    (Some(c), None) => {
                        let slot = atoms.entry(b).or_insert(0);
                        *slot = slot.wrapping_add(c.wrapping_mul(factor));
                    }
                    (None, Some(c)) => {
                        let slot = atoms.entry(a).or_insert(0);
                        *slot = slot.wrapping_add(c.wrapping_mul(factor));
                    }
                    _ => {
                        let slot = atoms.entry(id).or_insert(0);
                        *slot = slot.wrapping_add(factor);
                    }
                }
            }
            _ => {
                let slot = atoms.entry(id).or_insert(0);
                *slot = slot.wrapping_add(factor);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Expr;

    fn rw(src: &str, level: RewriteLevel) -> (TermPool, TermId) {
        let mut pool = TermPool::new(8);
        let e: Expr = src.parse().unwrap();
        let id = pool.from_expr(&e);
        let out = rewrite(&mut pool, id, level);
        (pool, out)
    }

    fn is_const(pool: &TermPool, id: TermId, v: u64) -> bool {
        pool.kind(id) == &TermKind::Const(v)
    }

    #[test]
    fn basic_folds_constants_and_units() {
        let (p, t) = rw("3 + 4", RewriteLevel::Basic);
        assert!(is_const(&p, t, 7));
        let (p, t) = rw("x * 0", RewriteLevel::Basic);
        assert!(is_const(&p, t, 0));
        let (p, t) = rw("(x + 0) & -1", RewriteLevel::Basic);
        assert_eq!(p.kind(t), &TermKind::Var("x".into()));
    }

    #[test]
    fn basic_does_not_know_idempotence() {
        let (p, t) = rw("x & x", RewriteLevel::Basic);
        assert!(matches!(p.kind(t), TermKind::Binary(BinOp::And, ..)));
        let (p, t) = rw("x & x", RewriteLevel::Standard);
        assert_eq!(p.kind(t), &TermKind::Var("x".into()));
    }

    #[test]
    fn standard_structural_laws() {
        for (src, expected) in [
            ("x ^ x", 0u64),
            ("x - x", 0),
            ("x & ~x", 0),
            ("x | ~x", 0xff),
            ("x ^ ~x", 0xff),
        ] {
            let (p, t) = rw(src, RewriteLevel::Standard);
            assert!(is_const(&p, t, expected), "{src}");
        }
    }

    #[test]
    fn standard_normalizes_commutative_operands() {
        let mut pool = TermPool::new(8);
        let a = pool.from_expr(&"x + y".parse::<Expr>().unwrap());
        let b = pool.from_expr(&"y + x".parse::<Expr>().unwrap());
        let ra = rewrite(&mut pool, a, RewriteLevel::Standard);
        let rb = rewrite(&mut pool, b, RewriteLevel::Standard);
        assert_eq!(ra, rb, "x+y and y+x must normalize identically");
    }

    #[test]
    fn aggressive_cancels_linear_arithmetic() {
        let (p, t) = rw("x + y - x - y", RewriteLevel::Aggressive);
        assert!(is_const(&p, t, 0));
        let (p, t) = rw("2*x + 3*x", RewriteLevel::Aggressive);
        // 5·x in canonical Mul(Const, Var) form.
        match p.kind(t) {
            TermKind::Binary(BinOp::Mul, c, v) => {
                assert!(is_const(&p, *c, 5));
                assert_eq!(p.kind(*v), &TermKind::Var("x".into()));
            }
            other => panic!("expected 5*x, got {other:?}"),
        }
    }

    #[test]
    fn aggressive_collects_through_bitwise_atoms() {
        // (x&y) + z - (x&y) = z: the AND term is an atom that cancels.
        let (p, t) = rw("(x & y) + z - (x & y)", RewriteLevel::Aggressive);
        assert_eq!(p.kind(t), &TermKind::Var("z".into()));
    }

    #[test]
    fn aggressive_does_not_cross_the_mba_boundary() {
        // (x|y) + (x&y) = x + y is TRUE but requires MBA knowledge;
        // word-level rewriting must NOT prove it.
        let mut pool = TermPool::new(8);
        let a = pool.from_expr(&"(x|y) + (x&y)".parse::<Expr>().unwrap());
        let b = pool.from_expr(&"x + y".parse::<Expr>().unwrap());
        let ra = rewrite(&mut pool, a, RewriteLevel::Aggressive);
        let rb = rewrite(&mut pool, b, RewriteLevel::Aggressive);
        assert_ne!(ra, rb, "rewriter crossed the bitwise/arithmetic boundary");
    }

    #[test]
    fn rewriting_preserves_semantics() {
        use std::collections::HashMap;
        let cases = [
            "x + y - x - y",
            "2*x + 3*x - x",
            "(x & y) | (x & y)",
            "~(~x) + -(-y)",
            "x - (y - x)",
            "3*(x ^ y) - (x ^ y)",
        ];
        for src in cases {
            for level in [
                RewriteLevel::Basic,
                RewriteLevel::Standard,
                RewriteLevel::Aggressive,
            ] {
                let mut pool = TermPool::new(8);
                let e: Expr = src.parse().unwrap();
                let id = pool.from_expr(&e);
                let out = rewrite(&mut pool, id, level);
                for (x, y) in [(0u64, 0u64), (255, 1), (170, 85), (7, 200)] {
                    let env: HashMap<mba_expr::Ident, u64> =
                        [("x".into(), x), ("y".into(), y)].into();
                    assert_eq!(
                        pool.eval(id, &env),
                        pool.eval(out, &env),
                        "{src} at ({x},{y}) level {level:?}"
                    );
                }
            }
        }
    }
}
