//! Hash-consed bit-vector terms.

use std::collections::HashMap;

use mba_expr::{BinOp, Expr, Ident, UnOp};

/// A handle into a [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The node kinds of the QF_BV fragment the paper uses:
/// `∧ ∨ ⊕ ¬ + − ×` plus constants and variables, all of one width.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// A constant, already masked to the pool width.
    Const(u64),
    /// A free bit-vector variable.
    Var(Ident),
    /// A unary operation.
    Unary(UnOp, TermId),
    /// A binary operation.
    Binary(BinOp, TermId, TermId),
}

/// An arena of hash-consed terms at a fixed bit width. Structurally
/// identical terms share one [`TermId`], which both deduplicates
/// bit-blasting work and makes syntactic-equality checks O(1).
#[derive(Debug)]
pub struct TermPool {
    width: u32,
    terms: Vec<TermKind>,
    dedup: HashMap<TermKind, TermId>,
}

impl TermPool {
    /// Creates a pool for `width`-bit terms.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ width ≤ 64`.
    pub fn new(width: u32) -> TermPool {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        TermPool {
            width,
            terms: Vec::new(),
            dedup: HashMap::new(),
        }
    }

    /// The pool's bit width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of distinct terms interned.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a node, returning its id (an existing id if the node is
    /// already present).
    pub fn intern(&mut self, kind: TermKind) -> TermId {
        let kind = match kind {
            TermKind::Const(c) => TermKind::Const(mba_expr::mask(c, self.width)),
            other => other,
        };
        if let Some(&id) = self.dedup.get(&kind) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(kind.clone());
        self.dedup.insert(kind, id);
        id
    }

    /// The node behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on a foreign/dangling id.
    pub fn kind(&self, id: TermId) -> &TermKind {
        &self.terms[id.index()]
    }

    /// Interns a constant.
    pub fn constant(&mut self, value: u64) -> TermId {
        self.intern(TermKind::Const(value))
    }

    /// Interns a variable.
    pub fn var(&mut self, name: impl Into<Ident>) -> TermId {
        self.intern(TermKind::Var(name.into()))
    }

    /// Lowers an [`Expr`] into the pool.
    pub fn from_expr(&mut self, e: &Expr) -> TermId {
        match e {
            Expr::Const(c) => self.constant(*c as u64),
            Expr::Var(v) => self.intern(TermKind::Var(v.clone())),
            Expr::Unary(op, inner) => {
                let i = self.from_expr(inner);
                self.intern(TermKind::Unary(*op, i))
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.from_expr(a), self.from_expr(b));
                self.intern(TermKind::Binary(*op, a, b))
            }
        }
    }

    /// The variables below `id`, sorted by name.
    pub fn vars_of(&self, id: TermId) -> Vec<Ident> {
        let mut out = std::collections::BTreeSet::new();
        let mut stack = vec![id];
        let mut seen = vec![false; self.terms.len()];
        while let Some(t) = stack.pop() {
            if std::mem::replace(&mut seen[t.index()], true) {
                continue;
            }
            match self.kind(t) {
                TermKind::Const(_) => {}
                TermKind::Var(v) => {
                    out.insert(v.clone());
                }
                TermKind::Unary(_, a) => stack.push(*a),
                TermKind::Binary(_, a, b) => {
                    stack.push(*a);
                    stack.push(*b);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Evaluates `id` under a full assignment (for counterexample
    /// validation). Unbound variables read 0.
    pub fn eval(&self, id: TermId, env: &HashMap<Ident, u64>) -> u64 {
        let kind = self.kind(id);
        let value = match kind {
            TermKind::Const(c) => *c,
            TermKind::Var(v) => env.get(v).copied().unwrap_or(0),
            TermKind::Unary(op, a) => {
                let x = self.eval(*a, env);
                match op {
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::Not => !x,
                }
            }
            TermKind::Binary(op, a, b) => {
                let (x, y) = (self.eval(*a, env), self.eval(*b, env));
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                }
            }
        };
        mba_expr::mask(value, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut pool = TermPool::new(8);
        let a: Expr = "x + y".parse().unwrap();
        let b: Expr = "x + y".parse().unwrap();
        assert_eq!(pool.from_expr(&a), pool.from_expr(&b));
        // (x+y) and (y+x) are structurally different.
        let c: Expr = "y + x".parse().unwrap();
        assert_ne!(pool.from_expr(&a), pool.from_expr(&c));
    }

    #[test]
    fn shared_subterms_are_interned_once() {
        let mut pool = TermPool::new(8);
        let e: Expr = "(x & y) + (x & y)".parse().unwrap();
        pool.from_expr(&e);
        // x, y, x&y, + : four nodes, not six.
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn constants_are_masked() {
        let mut pool = TermPool::new(8);
        let a = pool.constant(0x1ff);
        let b = pool.constant(0xff);
        assert_eq!(a, b);
        assert_eq!(pool.kind(a), &TermKind::Const(0xff));
        // -1 folds to the all-ones pattern.
        let m: Expr = "-1".parse().unwrap();
        let id = pool.from_expr(&m);
        assert_eq!(pool.kind(id), &TermKind::Const(0xff));
    }

    #[test]
    fn vars_of_collects_sorted() {
        let mut pool = TermPool::new(8);
        let e: Expr = "z*(x&z) + y".parse().unwrap();
        let id = pool.from_expr(&e);
        let names: Vec<String> = pool.vars_of(id).iter().map(|v| v.to_string()).collect();
        assert_eq!(names, ["x", "y", "z"]);
    }

    #[test]
    fn eval_matches_expr_eval() {
        let mut pool = TermPool::new(16);
        let e: Expr = "(x ^ y) + 2*(x & y) - ~x".parse().unwrap();
        let id = pool.from_expr(&e);
        let env: HashMap<Ident, u64> =
            [(Ident::new("x"), 0xabcd), (Ident::new("y"), 0x1234)].into();
        let v = mba_expr::Valuation::new()
            .with("x", 0xabcd)
            .with("y", 0x1234);
        assert_eq!(pool.eval(id, &env), e.eval(&v, 16));
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_pool_panics() {
        TermPool::new(0);
    }
}
