//! Hash-consed expression arena: a single flat node store in which
//! structurally identical subtrees intern to the same [`NodeId`].
//!
//! The `Box`-tree [`Expr`] stays the parse/print boundary — corpus
//! files, goldens, and the wire protocol never see node ids — but the
//! pipeline's hot interior (skeletonization, classification, tape
//! compilation, truth tables, signature caching) can run over ids
//! instead:
//!
//! * **O(1) structural equality** — two subtrees are equal iff their
//!   ids are equal, because interning dedups every node on insert;
//! * **free cross-expression CSE** — the `x & y` inside one input is
//!   the *same node* as the `x & y` inside the next, so caches keyed
//!   by id hit across expressions without re-hashing subtrees;
//! * **precomputed per-node metadata** — structural hash, variable-set
//!   bitmask, node count, MBA alternation, pure-bitwise/bitwise-with-
//!   consts flags and folded negated-literal value are computed once at
//!   intern time and read back in O(1), replicating the [`Expr`]
//!   predicates bit for bit;
//! * **cache-friendly layout** — nodes are `Copy` values in one `Vec`,
//!   children are 4-byte indices, and a post-order over ids touches a
//!   contiguous store instead of chasing heap boxes.
//!
//! # Id lifetime and generations
//!
//! A [`NodeId`] is meaningful only for the arena that produced it and
//! only until that arena is [`ExprArena::clear`]ed. Every arena carries
//! a process-unique [`ExprArena::uid`] and a monotonically increasing
//! [`ExprArena::generation`] (bumped by `clear`); caches that key on
//! ids must key on `(uid, generation, id)` so a cleared-and-refilled
//! arena can never satisfy a stale probe. See DESIGN.md §14.
//! [`IdMap`] is the map type for such caches: ids are assigned by the
//! arena, never chosen by a client, so it hashes them with a plain
//! integer mix instead of std's keyed SipHash.
//!
//! Interning is lossless: `arena.extract(arena.intern(&e)) == e` for
//! every expression, including arithmetic-negation chains over
//! literals (`-0`, `- -1`) which fold for *classification* but are
//! preserved node for node in the store.

use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::ast::{BinOp, Expr, Ident, OpDomain, UnOp};
use crate::classify::MbaClass;

/// Index of an interned node in an [`ExprArena`].
///
/// Ids are dense (the first interned node is id 0) and totally ordered
/// by insertion. Equality of ids is equality of subtrees *within one
/// arena generation*; ids from different arenas or generations are not
/// comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The id's index into the arena's node store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Hasher for arena-assigned ids: one splitmix64 round over the
/// integer. Only for keys the arena hands out — a client cannot pick
/// ids to collide, so std's keyed hashing buys nothing there. Keys that
/// come from clients (expressions, identifiers) keep `RandomState`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        mix64(self.0)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = self.0.rotate_left(32) ^ u64::from(n);
    }
}

/// A hash map keyed by arena-assigned ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// One interned node. Children are ids, so a `Node` is a small `Copy`
/// value regardless of subtree size; variables hold an index into the
/// arena's identifier table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// An integer constant, interpreted modulo `2^w` like
    /// [`Expr::Const`].
    Const(i128),
    /// A variable, as an index into the arena's identifier table.
    Var(u32),
    /// A unary operation over an interned child.
    Unary(UnOp, NodeId),
    /// A binary operation over interned children.
    Binary(BinOp, NodeId, NodeId),
}

/// `meta.flags` bit: the subtree is pure bitwise
/// ([`Expr::is_pure_bitwise`]).
const FLAG_PURE_BITWISE: u8 = 1 << 0;
/// `meta.flags` bit: the subtree is bitwise-with-constants
/// ([`Expr::is_bitwise_with_consts`]).
const FLAG_BITWISE_WITH_CONSTS: u8 = 1 << 1;
/// `meta.flags` bit: the subtree mentions a variable whose identifier
/// index does not fit the 64-bit `var_mask`; variable queries fall back
/// to a walk.
const FLAG_VAR_OVERFLOW: u8 = 1 << 2;

/// Per-node metadata, computed once when the node is interned.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    /// Structural hash of the subtree (stable within a process run).
    hash: u64,
    /// Tree node count of the subtree — shared children counted once
    /// per occurrence, so it equals `extract(id).node_count()`
    /// (saturating).
    node_count: u64,
    /// MBA alternation of the subtree, counted per occurrence like
    /// `node_count`: equals [`crate::metrics::alternation`] of the extracted
    /// tree (saturating).
    alternation: u64,
    /// Bit `i` set iff identifier index `i` occurs in the subtree;
    /// meaningless when `FLAG_VAR_OVERFLOW` is set.
    var_mask: u64,
    /// `FLAG_*` bits.
    flags: u8,
    /// The folded literal value when the subtree is a constant under a
    /// (possibly empty) chain of unary minuses ([`Expr::as_literal`]).
    literal: Option<i128>,
}

/// The mutable interior of an arena, behind one `RwLock`.
pub(crate) struct ArenaInner {
    nodes: Vec<Node>,
    meta: Vec<NodeMeta>,
    /// Identifier table; `Node::Var(i)` names `idents[i]`.
    idents: Vec<Ident>,
    ident_index: HashMap<Ident, u32>,
    /// Hash-consing table: node → existing id.
    interner: HashMap<Node, u32>,
}

/// splitmix64 finalizer: the cheap, well-mixed hash the probe and
/// oracle layers already use.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Combines a node tag with up to two child/payload hashes.
fn combine(tag: u64, a: u64, b: u64) -> u64 {
    mix64(
        tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ a.wrapping_mul(0xff51_afd7_ed55_8ccd)
            ^ b.rotate_left(17),
    )
}

impl ArenaInner {
    fn new() -> ArenaInner {
        ArenaInner {
            nodes: Vec::new(),
            meta: Vec::new(),
            idents: Vec::new(),
            ident_index: HashMap::new(),
            interner: HashMap::new(),
        }
    }

    pub(crate) fn node(&self, id: NodeId) -> Node {
        self.nodes[id.index()]
    }

    fn meta(&self, id: NodeId) -> &NodeMeta {
        &self.meta[id.index()]
    }

    /// Whether `child`, as an operand of an operator in `domain`, makes
    /// that operator an alternation ([`crate::metrics::alternation`]):
    /// its own top operator is in the other domain. Leaves are in both.
    fn connects(&self, domain: OpDomain, child: NodeId) -> bool {
        match self.node(child) {
            Node::Const(_) | Node::Var(_) => false,
            Node::Unary(op, _) => op.domain() != domain,
            Node::Binary(op, ..) => op.domain() != domain,
        }
    }

    /// The identifier behind a `Node::Var` index.
    pub(crate) fn ident(&self, i: u32) -> &Ident {
        &self.idents[i as usize]
    }

    /// Precomputed tree node count (see [`NodeMeta::node_count`]).
    pub(crate) fn node_count_of(&self, id: NodeId) -> usize {
        usize::try_from(self.meta(id).node_count).unwrap_or(usize::MAX)
    }

    /// Interns one node, returning the existing id when the exact node
    /// is already in the store.
    fn intern_node(&mut self, node: Node, hits: &AtomicU64) -> NodeId {
        if let Some(&idx) = self.interner.get(&node) {
            hits.fetch_add(1, Ordering::Relaxed);
            return NodeId(idx);
        }
        let idx = u32::try_from(self.nodes.len()).expect("arena holds at most 2^32 nodes");
        let meta = self.compute_meta(&node);
        self.nodes.push(node);
        self.meta.push(meta);
        self.interner.insert(node, idx);
        NodeId(idx)
    }

    fn ident_id(&mut self, ident: &Ident) -> u32 {
        if let Some(&i) = self.ident_index.get(ident) {
            return i;
        }
        let i = u32::try_from(self.idents.len()).expect("at most 2^32 identifiers");
        self.idents.push(ident.clone());
        self.ident_index.insert(ident.clone(), i);
        i
    }

    /// Metadata for a node whose children (if any) are already
    /// interned, replicating the `Expr` predicates exactly:
    /// `is_pure_bitwise`, `is_bitwise_with_consts`, `as_literal`,
    /// `node_count`, `vars`.
    fn compute_meta(&self, node: &Node) -> NodeMeta {
        match *node {
            Node::Const(c) => NodeMeta {
                hash: combine(0x10, mix64(c as u64), mix64((c >> 64) as u64)),
                node_count: 1,
                alternation: 0,
                var_mask: 0,
                flags: FLAG_BITWISE_WITH_CONSTS
                    | if c == 0 || c == -1 {
                        FLAG_PURE_BITWISE
                    } else {
                        0
                    },
                literal: Some(c),
            },
            Node::Var(i) => NodeMeta {
                hash: combine(0x20, mix64(i as u64), 0),
                node_count: 1,
                alternation: 0,
                var_mask: if i < 64 { 1 << i } else { 0 },
                flags: FLAG_PURE_BITWISE
                    | FLAG_BITWISE_WITH_CONSTS
                    | if i >= 64 { FLAG_VAR_OVERFLOW } else { 0 },
                literal: None,
            },
            Node::Unary(op, a) => {
                let child = *self.meta(a);
                // `-literal` folds through the chain like
                // `fold_negated_literal`; `~` never folds.
                let literal = match op {
                    UnOp::Neg => child.literal.map(i128::wrapping_neg),
                    UnOp::Not => None,
                };
                let pure = match op {
                    UnOp::Not => child.flags & FLAG_PURE_BITWISE != 0,
                    UnOp::Neg => matches!(literal, Some(0) | Some(-1)),
                };
                let bwc = match op {
                    UnOp::Not => child.flags & FLAG_BITWISE_WITH_CONSTS != 0,
                    UnOp::Neg => literal.is_some(),
                };
                NodeMeta {
                    hash: combine(0x30 + op as u64, child.hash, 0),
                    node_count: child.node_count.saturating_add(1),
                    alternation: child
                        .alternation
                        .saturating_add(u64::from(self.connects(op.domain(), a))),
                    var_mask: child.var_mask,
                    flags: (child.flags & FLAG_VAR_OVERFLOW)
                        | if pure { FLAG_PURE_BITWISE } else { 0 }
                        | if bwc { FLAG_BITWISE_WITH_CONSTS } else { 0 },
                    literal,
                }
            }
            Node::Binary(op, a, b) => {
                let (la, lb) = (*self.meta(a), *self.meta(b));
                let bitwise = op.domain() == OpDomain::Bitwise;
                let both = la.flags & lb.flags;
                let pure = bitwise && both & FLAG_PURE_BITWISE != 0;
                let bwc = bitwise && both & FLAG_BITWISE_WITH_CONSTS != 0;
                let connects = self.connects(op.domain(), a) || self.connects(op.domain(), b);
                NodeMeta {
                    hash: combine(0x40 + op as u64, la.hash, lb.hash),
                    node_count: la
                        .node_count
                        .saturating_add(lb.node_count)
                        .saturating_add(1),
                    alternation: la
                        .alternation
                        .saturating_add(lb.alternation)
                        .saturating_add(u64::from(connects)),
                    var_mask: la.var_mask | lb.var_mask,
                    flags: ((la.flags | lb.flags) & FLAG_VAR_OVERFLOW)
                        | if pure { FLAG_PURE_BITWISE } else { 0 }
                        | if bwc { FLAG_BITWISE_WITH_CONSTS } else { 0 },
                    literal: None,
                }
            }
        }
    }

    fn intern_expr(&mut self, e: &Expr, hits: &AtomicU64) -> NodeId {
        let node = match e {
            Expr::Const(c) => Node::Const(*c),
            Expr::Var(v) => Node::Var(self.ident_id(v)),
            Expr::Unary(op, a) => Node::Unary(*op, self.intern_expr(a, hits)),
            Expr::Binary(op, a, b) => {
                let a = self.intern_expr(a, hits);
                let b = self.intern_expr(b, hits);
                Node::Binary(*op, a, b)
            }
        };
        self.intern_node(node, hits)
    }

    fn extract(&self, id: NodeId) -> Expr {
        match self.node(id) {
            Node::Const(c) => Expr::Const(c),
            Node::Var(i) => Expr::Var(self.idents[i as usize].clone()),
            Node::Unary(op, a) => Expr::unary(op, self.extract(a)),
            Node::Binary(op, a, b) => Expr::binary(op, self.extract(a), self.extract(b)),
        }
    }

    /// Variables of the subtree, sorted by name — same order as
    /// [`Expr::vars`].
    pub(crate) fn vars_of(&self, id: NodeId) -> Vec<Ident> {
        let meta = self.meta(id);
        if meta.flags & FLAG_VAR_OVERFLOW == 0 {
            let mut mask = meta.var_mask;
            let mut out = Vec::with_capacity(mask.count_ones() as usize);
            while mask != 0 {
                let i = mask.trailing_zeros();
                out.push(self.idents[i as usize].clone());
                mask &= mask - 1;
            }
            // Mask order is identifier *insertion* order; callers need
            // name order.
            out.sort_unstable();
            out
        } else {
            let mut set = BTreeSet::new();
            self.collect_vars(id, &mut set);
            set.into_iter().collect()
        }
    }

    fn collect_vars(&self, id: NodeId, out: &mut BTreeSet<Ident>) {
        match self.node(id) {
            Node::Const(_) => {}
            Node::Var(i) => {
                out.insert(self.idents[i as usize].clone());
            }
            Node::Unary(_, a) => self.collect_vars(a, out),
            Node::Binary(_, a, b) => {
                self.collect_vars(a, out);
                self.collect_vars(b, out);
            }
        }
    }

    /// Id-level port of `classify::collect_sum`: flattens `+`, `-` and
    /// unary `-` into signed addends.
    fn collect_sum(&self, id: NodeId, sign: i128, out: &mut Vec<(i128, NodeId)>) {
        match self.node(id) {
            Node::Binary(BinOp::Add, a, b) => {
                self.collect_sum(a, sign, out);
                self.collect_sum(b, sign, out);
            }
            Node::Binary(BinOp::Sub, a, b) => {
                self.collect_sum(a, sign, out);
                self.collect_sum(b, -sign, out);
            }
            Node::Unary(UnOp::Neg, a) => self.collect_sum(a, -sign, out),
            _ => out.push((sign, id)),
        }
    }

    /// Id-level port of `classify::collect_factors`, with the same
    /// wrapping coefficient arithmetic.
    fn collect_factors(&self, id: NodeId, coefficient: &mut i128, factors: &mut Vec<NodeId>) {
        match self.node(id) {
            Node::Binary(BinOp::Mul, a, b) => {
                self.collect_factors(a, coefficient, factors);
                self.collect_factors(b, coefficient, factors);
            }
            Node::Unary(UnOp::Neg, a) => {
                *coefficient = coefficient.wrapping_neg();
                self.collect_factors(a, coefficient, factors);
            }
            Node::Const(c) => *coefficient = coefficient.wrapping_mul(c),
            _ => factors.push(id),
        }
    }

    /// Id-level port of [`crate::classify::classify`]; must agree with
    /// the `Expr` classifier on every input (pinned by the arena
    /// differential proptests).
    pub(crate) fn classify(&self, id: NodeId) -> MbaClass {
        let mut terms = Vec::new();
        self.collect_sum(id, 1, &mut terms);
        let mut linear = true;
        let mut semi = false;
        for (sign, term) in terms {
            let mut coefficient = sign;
            let mut factors = Vec::new();
            self.collect_factors(term, &mut coefficient, &mut factors);
            if factors.len() > 1 {
                if !factors
                    .iter()
                    .all(|&f| self.meta(f).flags & FLAG_PURE_BITWISE != 0)
                {
                    return MbaClass::NonPolynomial;
                }
                linear = false;
            } else if let [factor] = factors.as_slice() {
                let flags = self.meta(*factor).flags;
                if flags & FLAG_PURE_BITWISE != 0 {
                    // Plain Definition 1 factor.
                } else if flags & FLAG_BITWISE_WITH_CONSTS != 0 {
                    semi = true;
                } else {
                    return MbaClass::NonPolynomial;
                }
            }
        }
        match (linear, semi) {
            (true, false) => MbaClass::Linear,
            (true, true) => MbaClass::SemiLinear,
            (false, true) => MbaClass::NonPolynomial,
            (false, false) => MbaClass::Polynomial,
        }
    }

    /// Resident bytes of the store: node + metadata + interner entry
    /// per node, identifier table strings, map entries.
    fn bytes(&self) -> u64 {
        let per_node =
            mem::size_of::<Node>() + mem::size_of::<NodeMeta>() + mem::size_of::<(Node, u32)>();
        let ident_bytes: usize = self
            .idents
            .iter()
            .map(|i| i.as_str().len() + 2 * mem::size_of::<Ident>() + mem::size_of::<u32>())
            .sum();
        (self.nodes.len() * per_node + ident_bytes) as u64
    }
}

/// Snapshot of an arena's size and interning counters
/// ([`ExprArena::stats`]); published over mba-obs as
/// `arena.{nodes,interned_hits,bytes}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Interned nodes currently in the store.
    pub nodes: u64,
    /// Distinct identifiers in the store.
    pub idents: u64,
    /// Lifetime count of intern lookups answered by an existing node
    /// (monotonic; survives [`ExprArena::clear`]).
    pub interned_hits: u64,
    /// Approximate resident bytes of the node store, metadata, and
    /// identifier table.
    pub bytes: u64,
    /// Current generation ([`ExprArena::generation`]).
    pub generation: u64,
}

/// Arena uids are process-unique so id-keyed caches can tell two
/// arenas apart even across drop/recreate.
static NEXT_ARENA_UID: AtomicU64 = AtomicU64::new(1);

/// A hash-consed expression arena; see the [module docs](self).
///
/// All methods take `&self`: the store is behind a `RwLock`, so an
/// arena can be shared across worker threads (`Arc<ExprArena>`) with
/// concurrent interning and read-back.
///
/// ```
/// use mba_expr::{Expr, ExprArena};
///
/// let arena = ExprArena::new();
/// let e: Expr = "(x & y) + (x & y)".parse().unwrap();
/// let id = arena.intern(&e);
/// // Lossless round-trip…
/// assert_eq!(arena.extract(id), e);
/// // …and the repeated `x & y` interned to one node: 7 tree nodes,
/// // 4 distinct.
/// assert_eq!(arena.node_count(id), 7);
/// assert_eq!(arena.len(), 4);
/// ```
pub struct ExprArena {
    inner: RwLock<ArenaInner>,
    uid: u64,
    generation: AtomicU64,
    interned_hits: AtomicU64,
}

impl std::fmt::Debug for ExprArena {
    /// Summarizes via [`ExprArena::stats`] — the node store itself can
    /// run to millions of entries and sits behind the lock.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ExprArena")
            .field("uid", &self.uid)
            .field("nodes", &stats.nodes)
            .field("idents", &stats.idents)
            .field("interned_hits", &stats.interned_hits)
            .field("generation", &stats.generation)
            .finish_non_exhaustive()
    }
}

impl ExprArena {
    /// Creates an empty arena with a fresh process-unique uid.
    pub fn new() -> ExprArena {
        ExprArena {
            inner: RwLock::new(ArenaInner::new()),
            uid: NEXT_ARENA_UID.fetch_add(1, Ordering::Relaxed),
            generation: AtomicU64::new(0),
            interned_hits: AtomicU64::new(0),
        }
    }

    /// The arena's process-unique identity, for id-keyed caches.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The current generation. Bumped by [`ExprArena::clear`]; an id is
    /// only valid for the generation that interned it, and caches must
    /// key on `(uid, generation, id)`.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Empties the store and bumps the generation, invalidating every
    /// outstanding [`NodeId`]. The lifetime `interned_hits` counter is
    /// preserved.
    pub fn clear(&self) {
        let mut inner = self.write_inner();
        *inner = ArenaInner::new();
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.read_inner().nodes.len()
    }

    /// Whether the arena holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns an expression, structure-preserving: every subtree gets
    /// an id, structurally identical subtrees (within and across calls)
    /// get the *same* id.
    pub fn intern(&self, e: &Expr) -> NodeId {
        self.write_inner().intern_expr(e, &self.interned_hits)
    }

    /// Rebuilds the `Box`-tree expression for an id (the lossless
    /// inverse of [`ExprArena::intern`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena's current
    /// generation.
    pub fn extract(&self, id: NodeId) -> Expr {
        self.read_inner().extract(id)
    }

    /// The interned node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this arena's current generation.
    pub fn node(&self, id: NodeId) -> Node {
        self.read_inner().node(id)
    }

    /// Interns a constant node.
    pub fn mk_const(&self, value: i128) -> NodeId {
        self.write_inner()
            .intern_node(Node::Const(value), &self.interned_hits)
    }

    /// Interns a variable node.
    pub fn mk_var(&self, name: &Ident) -> NodeId {
        let mut inner = self.write_inner();
        let ident = inner.ident_id(name);
        inner.intern_node(Node::Var(ident), &self.interned_hits)
    }

    /// Interns `op(a)` over an already-interned child.
    pub fn mk_unary(&self, op: UnOp, a: NodeId) -> NodeId {
        self.mk_node(Node::Unary(op, a))
    }

    /// Interns `op(a, b)` over already-interned children.
    pub fn mk_binary(&self, op: BinOp, a: NodeId, b: NodeId) -> NodeId {
        self.mk_node(Node::Binary(op, a, b))
    }

    /// Interns one node whose children (and, for [`Node::Var`], whose
    /// identifier index) come from this arena's current generation.
    pub fn mk_node(&self, node: Node) -> NodeId {
        let mut inner = self.write_inner();
        debug_assert!(
            match node {
                Node::Const(_) => true,
                Node::Var(i) => (i as usize) < inner.idents.len(),
                Node::Unary(_, a) => a.index() < inner.nodes.len(),
                Node::Binary(_, a, b) =>
                    a.index() < inner.nodes.len() && b.index() < inner.nodes.len(),
            },
            "node refers to this arena"
        );
        inner.intern_node(node, &self.interned_hits)
    }

    /// Tree node count of the subtree (shared nodes counted once per
    /// occurrence) — agrees with [`Expr::node_count`] on the extracted
    /// tree.
    pub fn node_count(&self, id: NodeId) -> usize {
        usize::try_from(self.read_inner().meta(id).node_count).unwrap_or(usize::MAX)
    }

    /// MBA alternation of the subtree (shared nodes counted once per
    /// occurrence) — agrees with [`crate::metrics::alternation`] on the
    /// extracted tree.
    pub fn alternation(&self, id: NodeId) -> usize {
        usize::try_from(self.read_inner().meta(id).alternation).unwrap_or(usize::MAX)
    }

    /// Precomputed structural hash of the subtree. Stable within a
    /// process run; equal ids always have equal hashes.
    pub fn structural_hash(&self, id: NodeId) -> u64 {
        self.read_inner().meta(id).hash
    }

    /// O(1) [`Expr::is_pure_bitwise`] from the precomputed flags.
    pub fn is_pure_bitwise(&self, id: NodeId) -> bool {
        self.read_inner().meta(id).flags & FLAG_PURE_BITWISE != 0
    }

    /// O(1) [`Expr::is_bitwise_with_consts`] from the precomputed
    /// flags.
    pub fn is_bitwise_with_consts(&self, id: NodeId) -> bool {
        self.read_inner().meta(id).flags & FLAG_BITWISE_WITH_CONSTS != 0
    }

    /// O(1) [`Expr::as_literal`]: the folded constant when the subtree
    /// is a literal under a chain of unary minuses.
    pub fn as_literal(&self, id: NodeId) -> Option<i128> {
        self.read_inner().meta(id).literal
    }

    /// Variables of the subtree, sorted by name (same order as
    /// [`Expr::vars`]). O(vars) via the precomputed bitmask for up to
    /// 64 distinct identifiers, O(subtree) beyond.
    pub fn vars(&self, id: NodeId) -> Vec<Ident> {
        self.read_inner().vars_of(id)
    }

    /// Id-level classification; agrees with [`Expr::mba_class`] on the
    /// extracted tree.
    pub fn classify(&self, id: NodeId) -> MbaClass {
        self.read_inner().classify(id)
    }

    /// Snapshot of size and interning counters.
    pub fn stats(&self) -> ArenaStats {
        let inner = self.read_inner();
        ArenaStats {
            nodes: inner.nodes.len() as u64,
            idents: inner.idents.len() as u64,
            interned_hits: self.interned_hits.load(Ordering::Relaxed),
            bytes: inner.bytes(),
            generation: self.generation(),
        }
    }

    /// Read access for in-crate id consumers
    /// ([`crate::program::EvalProgram::compile_arena`]) that need one
    /// consistent view across many node reads.
    ///
    /// Both guards survive a panic in another holder: an intern computes
    /// a node's metadata before it pushes the node, the metadata and the
    /// index entry, so the store is consistent wherever a panic can stop
    /// it; and the server catches worker panics, so one panicking
    /// request must not poison the arena for every later one.
    pub(crate) fn read_inner(&self) -> RwLockReadGuard<'_, ArenaInner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_inner(&self) -> RwLockWriteGuard<'_, ArenaInner> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Default for ExprArena {
    fn default() -> Self {
        ExprArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(src: &str) -> Expr {
        src.parse().expect("test expression parses")
    }

    #[test]
    fn intern_extract_round_trips() {
        let arena = ExprArena::new();
        for src in [
            "x",
            "42",
            "-7",
            "- -1",
            "-0",
            "x + 2*y + (x&y) - 3*(x^y) + 4",
            "~(x & y) ^ (x | ~y)",
            "(x - y) | z",
        ] {
            let e = p(src);
            let id = arena.intern(&e);
            assert_eq!(arena.extract(id), e, "round-trip of `{src}`");
        }
    }

    #[test]
    fn equal_subtrees_share_ids() {
        let arena = ExprArena::new();
        let a = arena.intern(&p("(x & y) + z"));
        let b = arena.intern(&p("z * (x & y)"));
        assert_ne!(a, b);
        // The shared `x & y` subtree interned once.
        let xy = arena.intern(&p("x & y"));
        match (arena.node(a), arena.node(b)) {
            (Node::Binary(BinOp::Add, l, _), Node::Binary(BinOp::Mul, _, r)) => {
                assert_eq!(l, xy);
                assert_eq!(r, xy);
            }
            other => panic!("unexpected roots: {other:?}"),
        }
    }

    #[test]
    fn id_equality_is_structural_equality() {
        let arena = ExprArena::new();
        let a = arena.intern(&p("2*(x|y) - (~x&y)"));
        let b = arena.intern(&p("2*(x|y) - (~x&y)"));
        let c = arena.intern(&p("2*(x|y) - (~x&y) - 0"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.structural_hash(a), arena.structural_hash(b));
    }

    #[test]
    fn interned_hits_count_dedup() {
        let arena = ExprArena::new();
        arena.intern(&p("x & y"));
        assert_eq!(arena.stats().interned_hits, 0);
        arena.intern(&p("x & y"));
        // x, y, and the & node all hit.
        assert_eq!(arena.stats().interned_hits, 3);
        assert_eq!(arena.stats().nodes, 3);
    }

    #[test]
    fn metadata_matches_expr_predicates() {
        let arena = ExprArena::new();
        for src in [
            "x & -1",
            "x & 0",
            "x & 3",
            "-(x & y)",
            "~(x & y) ^ (x | ~y)",
            "x & (y + 1)",
            "- -1",
            "-0",
            "-5",
            "x + 2*y + (x&y)",
        ] {
            let e = p(src);
            let id = arena.intern(&e);
            assert_eq!(arena.is_pure_bitwise(id), e.is_pure_bitwise(), "`{src}`");
            assert_eq!(
                arena.is_bitwise_with_consts(id),
                e.is_bitwise_with_consts(),
                "`{src}`"
            );
            assert_eq!(arena.as_literal(id), e.as_literal(), "`{src}`");
            assert_eq!(arena.node_count(id), e.node_count(), "`{src}`");
            assert_eq!(
                arena.alternation(id),
                crate::metrics::alternation(&e),
                "`{src}`"
            );
            let vars: Vec<Ident> = e.vars().into_iter().collect();
            assert_eq!(arena.vars(id), vars, "`{src}`");
        }
    }

    #[test]
    fn classify_matches_expr_classifier() {
        let arena = ExprArena::new();
        for src in [
            "x + 2*y + (x&y) - 3*(x^y) + 4",
            "x*y + 2*(x&y) + 3*(x&~y)*(x|y) - 5",
            "(x - y) | z",
            "x & 3",
            "(x | 5) - y",
            "(x & 3) * y",
            "~(x + 1)",
            "42",
            "-x",
            "-(3*(x&y))",
        ] {
            let e = p(src);
            let id = arena.intern(&e);
            assert_eq!(arena.classify(id), e.mba_class(), "`{src}`");
        }
    }

    #[test]
    fn mk_constructors_agree_with_intern() {
        let arena = ExprArena::new();
        let x = arena.mk_var(&Ident::new("x"));
        let y = arena.mk_var(&Ident::new("y"));
        let and = arena.mk_binary(BinOp::And, x, y);
        let not = arena.mk_unary(UnOp::Not, and);
        let zero = arena.mk_const(0);
        assert_eq!(and, arena.intern(&p("x & y")));
        assert_eq!(not, arena.intern(&p("~(x & y)")));
        assert_eq!(zero, arena.intern(&p("0")));
    }

    #[test]
    fn clear_bumps_generation_and_empties() {
        let arena = ExprArena::new();
        let before = arena.generation();
        arena.intern(&p("x + y"));
        assert!(!arena.is_empty());
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.generation(), before + 1);
        // Ids are dense again from zero in the new generation.
        let id = arena.intern(&p("q"));
        assert_eq!(id.index(), 0);
    }

    #[test]
    fn uids_are_process_unique() {
        let a = ExprArena::new();
        let b = ExprArena::new();
        assert_ne!(a.uid(), b.uid());
    }

    #[test]
    fn stats_report_bytes_and_sizes() {
        let arena = ExprArena::new();
        arena.intern(&p("x + 2*y + (x&y)"));
        let stats = arena.stats();
        assert_eq!(stats.nodes, arena.len() as u64);
        assert_eq!(stats.idents, 2);
        assert!(stats.bytes > 0);
    }
}
