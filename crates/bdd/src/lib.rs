//! Hash-consed ROBDD engine with complement edges.
//!
//! Every exact tier in the pipeline — truth tables, corner signatures,
//! the synthesis signature — materializes all `2^t` rows of a boolean
//! function, so pure-bitwise subterms with more than
//! `TruthTable::MAX_VARS` variables fall through to heuristics and the
//! fuzz oracles lose their exact comparator. Reduced ordered binary
//! decision diagrams keep canonicity without enumerating rows: node
//! count tracks the function's structure, not `2^t`, so canonical forms
//! and exact equivalence stay cheap well past the truth-table cap for
//! the shapes MBA obfuscation produces.
//!
//! The engine follows the interning-arena discipline of
//! `mba_expr::arena`:
//!
//! * **Flat store, u32 ids.** Nodes live in one `Vec`; an [`Edge`] is a
//!   node index shifted left once, with the low bit carrying the
//!   complement flag. Equality of functions is equality of `u32`s.
//! * **Hash-consed interning.** `(var, hi, lo)` triples are interned,
//!   so structurally identical subgraphs share a node and reduction
//!   holds by construction.
//! * **Complement edges.** Negation is free (flip the low bit) and the
//!   canonical-form invariant — a stored node's `lo` edge is never
//!   complemented — makes `f` and `¬f` share every node.
//! * **Generation-tagged apply/ITE cache.** Binary operations memoize
//!   on `(op, lhs, rhs, generation)`; [`BddManager::clear`] bumps the
//!   generation so stale entries can never resurrect across an epoch
//!   even if a cache purge were skipped.
//!
//! Process-global counters (`bdd.nodes`, `bdd.apply_hits`,
//! `bdd.canonicalizations`) are bridged to `mba-obs` gauges via
//! [`publish_bdd_metrics`], mirroring `simba::publish_simba_metrics`.
//!
//! ```
//! use mba_bdd::BddManager;
//! use mba_expr::Expr;
//!
//! let lhs: Expr = "(x & y) | (x & z)".parse().unwrap();
//! let rhs: Expr = "x & (y | z)".parse().unwrap();
//! let vars: Vec<_> = lhs.vars().into_iter().collect();
//! let mut mgr = BddManager::new();
//! let a = mgr.build(&lhs, &vars).unwrap();
//! let b = mgr.build(&rhs, &vars).unwrap();
//! assert_eq!(a, b); // canonicity: equivalence is id equality
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use mba_expr::{BinOp, Expr, Ident, UnOp};

// ---------------------------------------------------------------------------
// Process-global counters (bridged to obs gauges).
// ---------------------------------------------------------------------------

static NODES: AtomicU64 = AtomicU64::new(0);
static APPLY_HITS: AtomicU64 = AtomicU64::new(0);
static CANONICALIZATIONS: AtomicU64 = AtomicU64::new(0);

/// Records one completed BDD canonicalization (build + render back to an
/// expression). Called by the pipeline tier and [`canonicalize`].
pub fn record_canonicalization() {
    CANONICALIZATIONS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the process-global BDD counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Total nodes interned across all managers since process start.
    pub nodes: u64,
    /// Apply/ITE cache hits.
    pub apply_hits: u64,
    /// Completed Expr → BDD → Expr canonicalizations.
    pub canonicalizations: u64,
}

impl BddStats {
    /// Counter deltas relative to an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &BddStats) -> BddStats {
        BddStats {
            nodes: self.nodes.wrapping_sub(earlier.nodes),
            apply_hits: self.apply_hits.wrapping_sub(earlier.apply_hits),
            canonicalizations: self
                .canonicalizations
                .wrapping_sub(earlier.canonicalizations),
        }
    }
}

/// Reads the process-global BDD counters.
pub fn bdd_stats() -> BddStats {
    BddStats {
        nodes: NODES.load(Ordering::Relaxed),
        apply_hits: APPLY_HITS.load(Ordering::Relaxed),
        canonicalizations: CANONICALIZATIONS.load(Ordering::Relaxed),
    }
}

/// Publishes the BDD counters as `bdd.*` gauges on `registry`.
pub fn publish_bdd_metrics(registry: &mba_obs::MetricsRegistry) {
    let s = bdd_stats();
    registry.gauge("bdd.nodes").set(s.nodes as i64);
    registry.gauge("bdd.apply_hits").set(s.apply_hits as i64);
    registry
        .gauge("bdd.canonicalizations")
        .set(s.canonicalizations as i64);
}

// ---------------------------------------------------------------------------
// Edges and nodes.
// ---------------------------------------------------------------------------

/// A (possibly complemented) reference to a BDD node: the node index
/// shifted left once, with the low bit as the complement flag. The
/// constant functions are edges to the single terminal node — `⊤` is the
/// regular edge, `⊥` its complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(u32);

impl Edge {
    /// The constant-true function.
    pub const TRUE: Edge = Edge(0);
    /// The constant-false function (complement edge to the terminal).
    pub const FALSE: Edge = Edge(1);

    /// The negation of this function (free: flips the complement bit).
    #[must_use]
    pub fn complement(self) -> Edge {
        Edge(self.0 ^ 1)
    }

    /// Whether the edge carries the complement flag.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The edge with the complement flag cleared.
    #[must_use]
    fn regular(self) -> Edge {
        Edge(self.0 & !1)
    }

    /// Applies the complement flag of `parent` on top of this edge.
    #[must_use]
    fn under(self, parent: Edge) -> Edge {
        Edge(self.0 ^ (parent.0 & 1))
    }

    /// The node index this edge points at.
    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn regular_of(index: u32) -> Edge {
        Edge(index << 1)
    }
}

/// One decision node: branch variable (an index into the caller's
/// ordered variable list; smaller = closer to the root) and the two
/// cofactor edges. Stored nodes always have a regular `lo` edge and
/// `hi != lo` — [`BddManager::mk_node`] enforces both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    hi: Edge,
    lo: Edge,
}

/// Branch variable of the terminal node: orders after every real
/// variable so `min` picks the right split point.
const TERMINAL_VAR: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Xor,
}

/// Shape of the rendered expression for one node, shared between the
/// size pre-pass and the actual extraction so their node counts agree
/// exactly.
#[derive(Debug, Clone, Copy)]
enum RenderShape {
    /// `x`
    Var,
    /// `~x`
    NotVar,
    /// `x | lo`
    OrLo,
    /// `x & hi`
    AndHi,
    /// `~x & lo`
    NotAndLo,
    /// `~x | hi`
    NotOrHi,
    /// `(x & hi) | (~x & lo)`
    Ite,
}

fn render_shape(hi: Edge, lo: Edge) -> RenderShape {
    if hi == Edge::TRUE && lo == Edge::FALSE {
        RenderShape::Var
    } else if hi == Edge::FALSE && lo == Edge::TRUE {
        RenderShape::NotVar
    } else if hi == Edge::TRUE {
        RenderShape::OrLo
    } else if lo == Edge::FALSE {
        RenderShape::AndHi
    } else if hi == Edge::FALSE {
        RenderShape::NotAndLo
    } else if lo == Edge::TRUE {
        RenderShape::NotOrHi
    } else {
        RenderShape::Ite
    }
}

// ---------------------------------------------------------------------------
// The manager.
// ---------------------------------------------------------------------------

/// A hash-consing ROBDD manager: flat node store, structural interner,
/// and the generation-tagged apply/ITE memo cache.
///
/// Managers are cheap to create; the pipeline builds one per
/// canonicalization so diagram growth is bounded per call site, while
/// long-lived holders can [`BddManager::clear`] between epochs (the
/// generation tag keeps stale memo entries from ever matching).
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    interner: HashMap<Node, u32>,
    cache: HashMap<(Op, Edge, Edge, u64), Edge>,
    generation: u64,
    node_limit: usize,
}

impl Default for BddManager {
    fn default() -> Self {
        BddManager::new()
    }
}

impl BddManager {
    /// A manager with no practical node limit.
    pub fn new() -> BddManager {
        BddManager::with_node_limit(usize::MAX)
    }

    /// A manager that refuses to intern more than `node_limit` nodes —
    /// operations that would exceed it return `None` and the caller
    /// falls back to its non-BDD path.
    pub fn with_node_limit(node_limit: usize) -> BddManager {
        BddManager {
            nodes: vec![Node {
                var: TERMINAL_VAR,
                hi: Edge::TRUE,
                lo: Edge::TRUE,
            }],
            interner: HashMap::new(),
            cache: HashMap::new(),
            generation: 0,
            node_limit,
        }
    }

    /// Drops every node and memo entry and bumps the generation.
    pub fn clear(&mut self) {
        self.nodes.truncate(1);
        self.interner.clear();
        self.cache.clear();
        self.generation += 1;
    }

    /// The clear-epoch counter baked into memo keys.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of live decision nodes (excludes the terminal).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// The canonical edge for `(var, hi, lo)`: collapses redundant
    /// tests, normalizes the complement flag off the `lo` edge, and
    /// interns. `None` when the node limit is exhausted.
    fn mk_node(&mut self, var: u32, hi: Edge, lo: Edge) -> Option<Edge> {
        if hi == lo {
            return Some(hi);
        }
        if lo.is_complement() {
            // Canonical form: lo must be regular. ¬(x ? ¬hi : ¬lo)
            // denotes the same function.
            return self
                .mk_node(var, hi.complement(), lo.complement())
                .map(Edge::complement);
        }
        let node = Node { var, hi, lo };
        if let Some(&index) = self.interner.get(&node) {
            return Some(Edge::regular_of(index));
        }
        if self.nodes.len() >= self.node_limit || self.nodes.len() > (u32::MAX >> 1) as usize {
            return None;
        }
        let index = self.nodes.len() as u32;
        self.nodes.push(node);
        self.interner.insert(node, index);
        NODES.fetch_add(1, Ordering::Relaxed);
        Some(Edge::regular_of(index))
    }

    /// The decision variable an edge branches on (`TERMINAL_VAR` for the
    /// constants).
    fn var_of(&self, e: Edge) -> u32 {
        self.nodes[e.index()].var
    }

    /// The `(hi, lo)` cofactors of `e` with respect to `var`, complement
    /// flag pushed through. Edges that branch on a later variable are
    /// constant in `var`.
    fn cofactors(&self, e: Edge, var: u32) -> (Edge, Edge) {
        let node = self.nodes[e.index()];
        if node.var != var {
            (e, e)
        } else {
            (node.hi.under(e), node.lo.under(e))
        }
    }

    /// The projection function for variable index `var` (position in the
    /// caller's ordered variable list).
    pub fn var(&mut self, var: u32) -> Option<Edge> {
        debug_assert_ne!(var, TERMINAL_VAR);
        self.mk_node(var, Edge::TRUE, Edge::FALSE)
    }

    /// `a ∧ b`. `None` when the node limit is exhausted.
    pub fn and(&mut self, a: Edge, b: Edge) -> Option<Edge> {
        if a == Edge::FALSE || b == Edge::FALSE || a == b.complement() {
            return Some(Edge::FALSE);
        }
        if a == Edge::TRUE || a == b {
            return Some(b);
        }
        if b == Edge::TRUE {
            return Some(a);
        }
        // Commutative: canonical operand order doubles the memo hit rate.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = (Op::And, a, b, self.generation);
        if let Some(&hit) = self.cache.get(&key) {
            APPLY_HITS.fetch_add(1, Ordering::Relaxed);
            return Some(hit);
        }
        let var = self.var_of(a).min(self.var_of(b));
        let (a1, a0) = self.cofactors(a, var);
        let (b1, b0) = self.cofactors(b, var);
        let hi = self.and(a1, b1)?;
        let lo = self.and(a0, b0)?;
        let out = self.mk_node(var, hi, lo)?;
        self.cache.insert(key, out);
        Some(out)
    }

    /// `a ⊕ b`. `None` when the node limit is exhausted.
    pub fn xor(&mut self, a: Edge, b: Edge) -> Option<Edge> {
        if a == b {
            return Some(Edge::FALSE);
        }
        if a == b.complement() {
            return Some(Edge::TRUE);
        }
        if a == Edge::FALSE {
            return Some(b);
        }
        if b == Edge::FALSE {
            return Some(a);
        }
        if a == Edge::TRUE {
            return Some(b.complement());
        }
        if b == Edge::TRUE {
            return Some(a.complement());
        }
        // ⊕ commutes with complement on either side: strip both flags,
        // memo on the regular pair, re-apply the parity at the end.
        let parity = a.is_complement() ^ b.is_complement();
        let (a, b) = (a.regular(), b.regular());
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let key = (Op::Xor, a, b, self.generation);
        let out = if let Some(&hit) = self.cache.get(&key) {
            APPLY_HITS.fetch_add(1, Ordering::Relaxed);
            hit
        } else {
            let var = self.var_of(a).min(self.var_of(b));
            let (a1, a0) = self.cofactors(a, var);
            let (b1, b0) = self.cofactors(b, var);
            let hi = self.xor(a1, b1)?;
            let lo = self.xor(a0, b0)?;
            let out = self.mk_node(var, hi, lo)?;
            self.cache.insert(key, out);
            out
        };
        Some(if parity { out.complement() } else { out })
    }

    /// `a ∨ b` (De Morgan through complement edges — shares the ∧ memo).
    pub fn or(&mut self, a: Edge, b: Edge) -> Option<Edge> {
        self.and(a.complement(), b.complement())
            .map(Edge::complement)
    }

    /// `if c then t else e`, routed through the apply cache.
    pub fn ite(&mut self, c: Edge, t: Edge, e: Edge) -> Option<Edge> {
        let hi = self.and(c, t)?;
        let lo = self.and(c.complement(), e)?;
        self.or(hi, lo)
    }

    /// Builds the BDD of a pure-bitwise expression over `vars` (the
    /// caller's variable order; index 0 branches at the root). Returns
    /// `None` for non-bitwise constructs, constants other than the
    /// bit-uniform `0`/`-1` (including negated-literal chains that fold
    /// to anything else), variables not listed in `vars`, or node-limit
    /// exhaustion.
    pub fn build(&mut self, e: &Expr, vars: &[Ident]) -> Option<Edge> {
        let index: HashMap<&Ident, u32> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (v, i as u32))
            .collect();
        self.build_rec(e, &index)
    }

    fn build_rec(&mut self, e: &Expr, index: &HashMap<&Ident, u32>) -> Option<Edge> {
        match e {
            Expr::Const(_) | Expr::Unary(UnOp::Neg, _) => match e.as_literal() {
                Some(0) => Some(Edge::FALSE),
                Some(-1) => Some(Edge::TRUE),
                _ => None,
            },
            Expr::Var(v) => self.var(*index.get(v)?),
            Expr::Unary(UnOp::Not, inner) => self.build_rec(inner, index).map(Edge::complement),
            Expr::Binary(op, a, b) => {
                let a = self.build_rec(a, index)?;
                let b = self.build_rec(b, index)?;
                match op {
                    BinOp::And => self.and(a, b),
                    BinOp::Or => self.or(a, b),
                    BinOp::Xor => self.xor(a, b),
                    BinOp::Add | BinOp::Sub | BinOp::Mul => None,
                }
            }
        }
    }

    /// Exact node count of the expression [`BddManager::extract`] would
    /// render for `root`, without building it (shared subgraphs are
    /// *duplicated* in the tree, so this can exceed the diagram size by
    /// a lot — that is exactly what the cap protects against).
    fn render_size(&self, root: Edge, memo: &mut HashMap<Edge, u64>) -> u64 {
        if root == Edge::TRUE || root == Edge::FALSE {
            return 1;
        }
        if let Some(&n) = memo.get(&root) {
            return n;
        }
        let node = self.nodes[root.index()];
        let (hi, lo) = (node.hi.under(root), node.lo.under(root));
        let n = match render_shape(hi, lo) {
            RenderShape::Var => 1,
            RenderShape::NotVar => 2,
            RenderShape::OrLo => 2u64.saturating_add(self.render_size(lo, memo)),
            RenderShape::AndHi => 2u64.saturating_add(self.render_size(hi, memo)),
            RenderShape::NotAndLo => 3u64.saturating_add(self.render_size(lo, memo)),
            RenderShape::NotOrHi => 3u64.saturating_add(self.render_size(hi, memo)),
            RenderShape::Ite => 6u64
                .saturating_add(self.render_size(hi, memo))
                .saturating_add(self.render_size(lo, memo)),
        };
        memo.insert(root, n);
        n
    }

    /// Renders `root` back into a pure-bitwise [`Expr`] by memoized
    /// Shannon expansion — `(x & hi) | (~x & lo)` with the degenerate
    /// cofactor cases folded. Deterministic for a given diagram and
    /// variable order. Returns `None` when the rendered tree would
    /// exceed `max_nodes` AST nodes (diagram sharing duplicates in a
    /// tree, so the bound is checked by an exact pre-pass).
    pub fn extract(&self, root: Edge, vars: &[Ident], max_nodes: u64) -> Option<Expr> {
        let mut sizes = HashMap::new();
        if self.render_size(root, &mut sizes) > max_nodes {
            return None;
        }
        let mut memo = HashMap::new();
        Some(self.render(root, vars, &mut memo))
    }

    fn render(&self, root: Edge, vars: &[Ident], memo: &mut HashMap<Edge, Expr>) -> Expr {
        if root == Edge::TRUE {
            return Expr::minus_one();
        }
        if root == Edge::FALSE {
            return Expr::zero();
        }
        if let Some(e) = memo.get(&root) {
            return e.clone();
        }
        let node = self.nodes[root.index()];
        let (hi, lo) = (node.hi.under(root), node.lo.under(root));
        let x = Expr::var(vars[node.var as usize].clone());
        let out = match render_shape(hi, lo) {
            RenderShape::Var => x,
            RenderShape::NotVar => Expr::unary(UnOp::Not, x),
            RenderShape::OrLo => {
                let lo = self.render(lo, vars, memo);
                Expr::binary(BinOp::Or, x, lo)
            }
            RenderShape::AndHi => {
                let hi = self.render(hi, vars, memo);
                Expr::binary(BinOp::And, x, hi)
            }
            RenderShape::NotAndLo => {
                let lo = self.render(lo, vars, memo);
                Expr::binary(BinOp::And, Expr::unary(UnOp::Not, x), lo)
            }
            RenderShape::NotOrHi => {
                let hi = self.render(hi, vars, memo);
                Expr::binary(BinOp::Or, Expr::unary(UnOp::Not, x), hi)
            }
            RenderShape::Ite => {
                let hi = self.render(hi, vars, memo);
                let lo = self.render(lo, vars, memo);
                Expr::binary(
                    BinOp::Or,
                    Expr::binary(BinOp::And, x.clone(), hi),
                    Expr::binary(BinOp::And, Expr::unary(UnOp::Not, x), lo),
                )
            }
        };
        memo.insert(root, out.clone());
        out
    }

    /// A satisfying assignment of `root` over `vars` (variables the
    /// function does not depend on are bound to `false`), or `None` for
    /// the constant-false function. Follows the first satisfiable
    /// branch at every node, preferring `hi` — deterministic.
    pub fn satisfying_valuation(&self, root: Edge, vars: &[Ident]) -> Option<Vec<(Ident, bool)>> {
        if root == Edge::FALSE {
            return None;
        }
        let mut assignment = vec![false; vars.len()];
        let mut e = root;
        while e != Edge::TRUE {
            debug_assert_ne!(e, Edge::FALSE, "only ⊥ is unsatisfiable in a reduced BDD");
            let node = self.nodes[e.index()];
            let (hi, lo) = (node.hi.under(e), node.lo.under(e));
            if hi != Edge::FALSE {
                assignment[node.var as usize] = true;
                e = hi;
            } else {
                e = lo;
            }
        }
        Some(vars.iter().cloned().zip(assignment).collect())
    }
}

// ---------------------------------------------------------------------------
// One-shot canonicalization.
// ---------------------------------------------------------------------------

/// Default cap on interned nodes per canonicalization.
pub const DEFAULT_NODE_LIMIT: usize = 1 << 16;

/// Default cap on the rendered expression's AST node count.
pub const DEFAULT_RENDER_LIMIT: u64 = 1 << 12;

/// Canonicalizes a pure-bitwise expression through a fresh BDD: build,
/// then render back via Shannon extraction. Variables are ordered by
/// name (the order `Expr::vars` yields). `None` when the input is not
/// pure bitwise or a limit is exceeded — callers keep their input.
pub fn canonicalize(e: &Expr) -> Option<Expr> {
    canonicalize_limited(e, DEFAULT_NODE_LIMIT, DEFAULT_RENDER_LIMIT)
}

/// [`canonicalize`] with explicit diagram-node and rendered-AST-node
/// limits.
pub fn canonicalize_limited(e: &Expr, node_limit: usize, render_limit: u64) -> Option<Expr> {
    let vars: Vec<Ident> = e.vars().into_iter().collect();
    let mut mgr = BddManager::with_node_limit(node_limit);
    let root = mgr.build(e, &vars)?;
    let out = mgr.extract(root, &vars, render_limit)?;
    record_canonicalization();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn vars_of(e: &Expr) -> Vec<Ident> {
        e.vars().into_iter().collect()
    }

    fn build(mgr: &mut BddManager, src: &str) -> Edge {
        let e: Expr = src.parse().unwrap();
        let vars = vars_of(&e);
        mgr.build(&e, &vars).unwrap()
    }

    #[test]
    fn constants_and_negation() {
        let mut mgr = BddManager::new();
        assert_eq!(Edge::TRUE.complement(), Edge::FALSE);
        let x = mgr.var(0).unwrap();
        assert_eq!(x.complement().complement(), x);
        assert_eq!(mgr.and(x, x.complement()).unwrap(), Edge::FALSE);
        assert_eq!(mgr.or(x, x.complement()).unwrap(), Edge::TRUE);
        assert_eq!(mgr.xor(x, x.complement()).unwrap(), Edge::TRUE);
    }

    #[test]
    fn canonicity_is_edge_equality() {
        let mut mgr = BddManager::new();
        let a = build(&mut mgr, "(x & y) | (x & z)");
        let b = build(&mut mgr, "x & (y | z)");
        assert_eq!(a, b);
        // De Morgan, through complement edges.
        let c = build(&mut mgr, "~(x | y)");
        let d = build(&mut mgr, "~x & ~y");
        assert_eq!(c, d);
        // And a non-equivalence.
        let e = build(&mut mgr, "x | y");
        assert_ne!(a, e);
    }

    #[test]
    fn complement_sharing() {
        // f and ¬f must not add nodes beyond f's.
        let mut mgr = BddManager::new();
        let f = build(&mut mgr, "(x ^ y) | (y & z)");
        let before = mgr.node_count();
        let e: Expr = "~((x ^ y) | (y & z))".parse().unwrap();
        let vars = vars_of(&e);
        let g = mgr.build(&e, &vars).unwrap();
        assert_eq!(g, f.complement());
        assert_eq!(mgr.node_count(), before);
    }

    #[test]
    fn stored_lo_edges_are_regular() {
        let mut mgr = BddManager::new();
        let _ = build(&mut mgr, "(x & ~y) ^ (z | ~x) ^ (y & z)");
        for node in &mgr.nodes[1..] {
            assert!(!node.lo.is_complement());
            assert_ne!(node.hi, node.lo);
        }
    }

    #[test]
    fn non_bitwise_inputs_decline() {
        let mut mgr = BddManager::new();
        for src in ["x + y", "x * y", "x & 3", "-x", "x - y"] {
            let e: Expr = src.parse().unwrap();
            let vars = vars_of(&e);
            assert_eq!(mgr.build(&e, &vars), None, "{src}");
        }
        // Bit-uniform constants are fine.
        for src in ["x & 0", "x | -1", "x ^ 0"] {
            let e: Expr = src.parse().unwrap();
            let vars = vars_of(&e);
            assert!(mgr.build(&e, &vars).is_some(), "{src}");
        }
    }

    #[test]
    fn node_limit_declines_gracefully() {
        let mut mgr = BddManager::with_node_limit(3);
        let e: Expr = "(x & y) ^ (z | w) ^ (x | ~w)".parse().unwrap();
        let vars = vars_of(&e);
        assert_eq!(mgr.build(&e, &vars), None);
        assert!(mgr.node_count() <= 3);
    }

    #[test]
    fn clear_bumps_generation_and_empties() {
        let mut mgr = BddManager::new();
        let _ = build(&mut mgr, "x & (y | z)");
        assert!(mgr.node_count() > 0);
        let g = mgr.generation();
        mgr.clear();
        assert_eq!(mgr.node_count(), 0);
        assert_eq!(mgr.generation(), g + 1);
        // Still usable after clear.
        let _ = build(&mut mgr, "x ^ y");
    }

    #[test]
    fn extraction_matches_input_semantics() {
        for src in [
            "x",
            "~x",
            "x & y",
            "x | y",
            "x ^ y",
            "~(x ^ y) & (z | x)",
            "(x & ~y) | (~x & y)",
            "(x | y) & (y | z) & (z | x)",
        ] {
            let e: Expr = src.parse().unwrap();
            let out = canonicalize(&e).unwrap();
            assert!(out.is_pure_bitwise(), "{src} -> {out}");
            let vars = vars_of(&e);
            for width in [1u32, 8, 64] {
                for seed in 0..16u64 {
                    let mut v = Valuation::new();
                    for (i, name) in vars.iter().enumerate() {
                        let bits = seed
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(i as u64)
                            .wrapping_mul(0xff51_afd7_ed55_8ccd);
                        v = v.with(name.clone(), bits);
                    }
                    assert_eq!(
                        e.eval_checked(&v, width).unwrap(),
                        out.eval_checked(&v, width).unwrap(),
                        "{src} vs {out} at width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn extraction_size_prepass_is_exact() {
        for src in [
            "x ^ y ^ z",
            "(x & y) | (~x & z) | (y ^ w)",
            "(x | y) & (y | z) & (z | x) & ~(w & x)",
        ] {
            let e: Expr = src.parse().unwrap();
            let vars = vars_of(&e);
            let mut mgr = BddManager::new();
            let root = mgr.build(&e, &vars).unwrap();
            let mut sizes = HashMap::new();
            let predicted = mgr.render_size(root, &mut sizes);
            let rendered = mgr.extract(root, &vars, u64::MAX).unwrap();
            assert_eq!(predicted, rendered.node_count() as u64, "{src}");
        }
    }

    #[test]
    fn render_limit_declines() {
        let e: Expr = "(x ^ y) & (z ^ w)".parse().unwrap();
        assert_eq!(canonicalize_limited(&e, usize::MAX, 2), None);
        assert!(canonicalize_limited(&e, usize::MAX, 1 << 12).is_some());
    }

    #[test]
    fn satisfying_valuation_finds_a_model() {
        let e: Expr = "(x ^ y) & (y | z) & ~x".parse().unwrap();
        let vars = vars_of(&e);
        let mut mgr = BddManager::new();
        let root = mgr.build(&e, &vars).unwrap();
        let model = mgr.satisfying_valuation(root, &vars).unwrap();
        let mut v = Valuation::new();
        for (name, bit) in &model {
            v = v.with(name.clone(), u64::from(*bit));
        }
        assert_eq!(e.eval_checked(&v, 1).unwrap(), 1);
        // ⊥ has no model.
        assert_eq!(mgr.satisfying_valuation(Edge::FALSE, &vars), None);
        // ⊤ has the all-false model.
        let top = mgr.satisfying_valuation(Edge::TRUE, &vars).unwrap();
        assert!(top.iter().all(|(_, bit)| !bit));
    }
}
