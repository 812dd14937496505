//! Lowering expressions to polynomials: signature extraction for bitwise
//! subtrees, opaque abstraction for arithmetic-under-bitwise, and the
//! arithmetic-reduction glue (the body of Algorithm 1).
//!
//! A pass walks interned node ids of the simplifier's arena; its output,
//! the rendered polynomial, is a tree that the caller interns only if it
//! wins the score (DESIGN.md §14).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mba_expr::arena::Node;
use mba_expr::classify::{decompose_term, flatten_sum};
use mba_expr::{BinOp, EvalProgram, Expr, ExprArena, IdMap, Ident, MbaClass, NodeId, UnOp};
use mba_sig::{cache, simba, SignatureVector, TruthTable};

use crate::poly::Poly;
use crate::simplifier::{Basis, InjectedBug, RoundFlags, Simplifier};

/// Work cap for the semi-linear tier: one corner sweep of `2^t` lanes
/// per constant-pattern group, at most this many lanes total before
/// falling back to the opaque-abstraction slow path.
const SEMI_WORK_CAP: usize = 1 << 16;

/// Variable cap for the BDD canonicalization tier. Beyond the truth
/// table's 12 but bounded: diagram size is what actually gates the tier
/// (the node budget), this only keeps the sorted-variable order and the
/// worst-case build cost predictable.
const BDD_TIER_MAX_VARS: usize = 24;

/// A candidate's rank under `Simplifier::compare` before its
/// printed-length tie-break: `(MBA alternation, node count)`.
pub(crate) type Rank = (usize, usize);

/// One lowering pass over a single expression. Collects the temporaries
/// it abstracts so the driver can substitute them back.
pub(crate) struct Pipeline<'a> {
    simplifier: &'a Simplifier,
    arena: &'a ExprArena,
    depth: usize,
    /// The rank of the input the caller will score this pass's render
    /// against, if it will (`None` for a canonical-form probe, whose
    /// render is a dedup key). A render of strictly worse rank loses
    /// whatever its printed length, so the fast path need not build it.
    rank_to_beat: Option<Rank>,
    /// Names that must not be used for temporaries (the input's own
    /// variables).
    forbidden: BTreeSet<Ident>,
    /// Temporaries in creation order: `(name, simplified replacement)`.
    temps: Vec<(Ident, Expr)>,
    /// Dedup map from the abstracted subtree's *simplified canonical
    /// form* (an id of the arena) to its temporary — sharing here is the
    /// paper's common-subexpression optimization, robust to the two
    /// sites having been obfuscated differently.
    temp_map: IdMap<NodeId, Ident>,
    /// Set when a polynomial blow-up forced a bail-out.
    pub(crate) bailed: bool,
    /// Set when the fast path declined a render that could not beat
    /// `rank_to_beat`.
    pub(crate) declined: bool,
    /// Set when the BDD tier canonicalized some subterm (directly or in
    /// a nested canonical/round probe).
    pub(crate) used_bdd: bool,
    /// Set when a pure-bitwise subterm was too wide for every
    /// canonicalization tier and was kept opaque.
    pub(crate) skipped_too_many_vars: bool,
}

impl<'a> Pipeline<'a> {
    pub(crate) fn new(
        simplifier: &'a Simplifier,
        root: NodeId,
        depth: usize,
        rank_to_beat: Option<Rank>,
    ) -> Self {
        let arena = &**simplifier.arena();
        Pipeline {
            simplifier,
            arena,
            depth,
            rank_to_beat,
            forbidden: arena.vars(root).into_iter().collect(),
            temps: Vec::new(),
            temp_map: IdMap::default(),
            bailed: false,
            declined: false,
            used_bdd: false,
            skipped_too_many_vars: false,
        }
    }

    /// Runs the pass: lower to a polynomial, render, and substitute the
    /// temporaries back. `None` means there is no candidate: the pass
    /// bailed out (monomial cap) or declined a render that could not
    /// win, and the caller should keep the input.
    pub(crate) fn run(&mut self, root: NodeId) -> Option<Expr> {
        // Constant fast fold: a variable-free input needs no tiering at
        // all — evaluate and render the symmetric residue directly,
        // byte-identical to what the full lowering produces for it.
        // Sits ahead of the fast path's attempt counter, so constants
        // no longer count as (guaranteed-futile) SiMBA attempts.
        if self.forbidden.is_empty() {
            let value = self.eval_constant(root);
            return Some(Poly::constant(self.signed_residue(value), self.width()).to_expr());
        }
        // Tiered lowering: the SiMBA-style corner fast path for linear
        // inputs, then the grouped-corner semi-linear tier, then the
        // general recursive lowering. The fast paths feed the same
        // `Poly` type (and, for linear inputs, the same ∧-basis
        // expansion) as the slow path, so the rendered output is
        // byte-identical whichever route ran.
        let poly = match self.linear_fast_path(root) {
            FastPath::Built(p) => p,
            // The truth-table route would rebuild the same render.
            FastPath::Declined => {
                self.declined = true;
                return None;
            }
            FastPath::NotApplicable => match self.semi_linear_path(root) {
                Some(p) => p,
                None => self.to_poly(root)?,
            },
        };
        let mut rendered = poly.to_expr();
        // Substitute in reverse creation order; replacements contain only
        // original variables, so one pass per temp suffices.
        for (name, replacement) in self.temps.iter().rev() {
            rendered = rendered.substitute(name, replacement);
        }
        Some(rendered)
    }

    fn width(&self) -> u32 {
        self.simplifier.config().width
    }

    /// The value of a variable-free subtree at the configured width.
    fn eval_constant(&self, id: NodeId) -> u64 {
        self.arena
            .extract(id)
            .eval(&mba_expr::Valuation::new(), self.width())
    }

    /// Reinterprets a masked `width`-bit evaluation result as the
    /// symmetric residue ([`Poly`]'s coefficient domain), so e.g. the
    /// all-ones value renders as `-1`, not `2^width - 1`.
    fn signed_residue(&self, value: u64) -> i128 {
        if self.width() == 64 {
            value as i64 as i128
        } else if value >= 1u64 << (self.width() - 1) {
            value as i128 - (1i128 << self.width())
        } else {
            value as i128
        }
    }

    /// Folds a nested probe's tier flags into this pipeline's (see
    /// `RoundFlags::absorb_nested` — `bailed` stays separate).
    fn absorb(&mut self, flags: RoundFlags) {
        self.used_bdd |= flags.used_bdd;
        self.skipped_too_many_vars |= flags.skipped_too_many_vars;
    }

    /// The SiMBA-style fast path (Xu et al.; arXiv 2209.06335): for a
    /// linear input, recover the normalized ∧-basis coefficients
    /// directly from the `2^t` {0, −1} corner evaluations — one
    /// bit-parallel batch sweep plus a Möbius transform — instead of
    /// walking the tree and extracting per-subtree truth tables.
    ///
    /// Classification and variable collection read the arena's
    /// per-node metadata, and the sweep runs an [`EvalProgram`]
    /// compiled straight from node ids. The recovered coefficients feed
    /// the *same* [`Pipeline::expand_and_basis`] the truth-table route
    /// uses, so the resulting polynomial is byte-identical to the slow
    /// path's; any recovery failure (probe mismatch, too many
    /// variables) falls back to it.
    ///
    /// Rank before render: when even [`and_render_rank_floor`] of the
    /// coefficients is worse than `rank_to_beat`, the render would lose
    /// to the input, so it is declined unbuilt (DESIGN.md §13).
    fn linear_fast_path(&mut self, root: NodeId) -> FastPath {
        let config = self.simplifier.config();
        if !config.use_simba {
            return FastPath::NotApplicable;
        }
        // The ∨ basis renders different atoms; leave its pipeline alone.
        if !matches!(config.basis, Basis::And | Basis::Adaptive) {
            return FastPath::NotApplicable;
        }
        simba::record_attempt();
        let arena = self.arena;
        let root = self.stale_id(root);
        if arena.classify(root) != MbaClass::Linear {
            return FastPath::NotApplicable;
        }
        let vars = arena.vars(root);
        if vars.is_empty() || vars.len() > TruthTable::MAX_VARS {
            return FastPath::NotApplicable;
        }
        let _t = self.simplifier.stages().simba.time();
        let program = EvalProgram::compile_arena(arena, root);
        let Some(mut coeffs) = simba::recover_coefficients_program(&program, &vars, self.width())
        else {
            simba::record_fallback();
            return FastPath::NotApplicable;
        };
        if config.injected_bug == Some(InjectedBug::SimbaCoeffFlip) {
            // Zero the first nonzero recovered coefficient, *after* the
            // recovery-time probe verification — the kind of silent
            // post-check corruption the differential fuzzer must catch.
            if let Some(c) = coeffs.iter_mut().find(|c| **c != 0) {
                *c = 0;
            }
        }
        simba::record_hit();
        let loses = |input| and_render_rank_floor(&coeffs, self.width()) > input;
        if self.rank_to_beat.is_some_and(loses) {
            return FastPath::Declined;
        }
        FastPath::Built(self.expand_and_basis(&coeffs, &vars))
    }

    /// The semi-linear tier: lowers `C + Σ aᵢ·fᵢ` where each `fᵢ` is
    /// bitwise-with-constants. Bit positions are grouped by the pattern
    /// of the embedded constants' bits; within a group every constant is
    /// uniform (all-zeros or all-ones), so grounding the constants turns
    /// the sum into a plain linear MBA whose corner signature is
    /// recovered per group and re-masked. Groups with identical subset
    /// coefficients merge (`(B∧m₁)+(B∧m₂) = B∧(m₁|m₂)` for disjoint
    /// masks), which is what lets `(x&240)+(x&~240)` re-fuse to `x`.
    ///
    /// This tier is always on (not gated by `use_simba`) so toggling the
    /// linear fast path never changes output bytes.
    fn semi_linear_path(&mut self, root: NodeId) -> Option<Poly> {
        if !matches!(self.simplifier.config().basis, Basis::And | Basis::Adaptive) {
            return None;
        }
        // Classification and variable collection read the arena's
        // precomputed metadata. The expansion itself walks the tree (its
        // work is constant-grounding, not traversal), so only a
        // semi-linear input is extracted.
        let arena = self.arena;
        if arena.classify(root) != MbaClass::SemiLinear {
            return None;
        }
        let vars = arena.vars(root);
        if vars.is_empty() || vars.len() > TruthTable::MAX_VARS {
            return None;
        }
        simba::record_semi_attempt();
        let _t = self.simplifier.stages().simba.time();
        match self.expand_semi_linear(&arena.extract(root), &vars) {
            Some(p) => {
                simba::record_semi_hit();
                Some(p)
            }
            None => {
                simba::record_semi_fallback();
                None
            }
        }
    }

    fn expand_semi_linear(&self, e: &Expr, vars: &[Ident]) -> Option<Poly> {
        let width = self.width();
        let full_mask = mba_expr::mask(u64::MAX, width);
        // Split the sum into the additive constant and the
        // (coefficient, bitwise factor) terms.
        let mut constant: i128 = 0;
        let mut terms: Vec<(i128, &Expr)> = Vec::new();
        for term in flatten_sum(e) {
            let parts = decompose_term(term.expr, term.sign);
            match parts.factors.as_slice() {
                [] => constant = constant.wrapping_add(parts.coefficient),
                [f] => terms.push((simba::reduce(parts.coefficient, width), f)),
                // classify() precludes degree ≥ 2 here; stay defensive.
                _ => return None,
            }
        }
        // Group bit positions 0..width by the bit pattern of every
        // constant occurring inside the bitwise layer. Within a group
        // each constant is uniform, so the restriction is linear.
        let mut consts: BTreeSet<i128> = BTreeSet::new();
        for (_, f) in &terms {
            collect_bitwise_consts(f, width, &mut consts)?;
        }
        let consts: Vec<i128> = consts.into_iter().collect();
        let mut groups: BTreeMap<Vec<bool>, u64> = BTreeMap::new();
        for j in 0..width {
            let key: Vec<bool> = consts.iter().map(|c| (c >> j) & 1 != 0).collect();
            *groups.entry(key).or_insert(0) |= 1u64 << j;
        }
        // One 2^t corner sweep per group; cap the total lane count.
        if (1usize << vars.len()).saturating_mul(groups.len()) > SEMI_WORK_CAP {
            return None;
        }
        let mut poly = Poly::zero(width);
        poly.add_term(Vec::new(), constant);
        // Recovered subset coefficients, keyed by (subset, coefficient)
        // so identical contributions from different groups merge their
        // (disjoint) masks: c·(B∧m₁) + c·(B∧m₂) = c·(B∧(m₁|m₂)). A mask
        // that grows to full width drops entirely, which is what re-fuses
        // `(x&240)+(x&~240)` to `x`.
        let mut merged: BTreeMap<(usize, i128), u64> = BTreeMap::new();
        for mask_bits in groups.values() {
            let j = mask_bits.trailing_zeros();
            let grounded: Vec<(i128, Expr)> = terms
                .iter()
                .map(|(a, f)| ground_constants(f, j).map(|g| (*a, g)))
                .collect::<Option<Vec<_>>>()?;
            let grounded_expr = mba_sig::linear_combination(&grounded);
            let mut coeffs = simba::corner_signature(&grounded_expr, vars, width)?;
            simba::moebius(&mut coeffs);
            // The all-ones column restricted to the mask is the plain
            // integer `m`: c₀·((−1) ∧ m) = c₀·m.
            let c0 = simba::reduce(coeffs[0], width);
            if c0 != 0 {
                poly.add_term(
                    Vec::new(),
                    c0.wrapping_mul(simba::reduce(*mask_bits as i128, width)),
                );
            }
            for (s, &c) in coeffs.iter().enumerate().skip(1) {
                let c = simba::reduce(c, width);
                if c != 0 {
                    *merged.entry((s, c)).or_insert(0) |= mask_bits;
                }
            }
        }
        for ((s, c), mask_bits) in merged {
            let atom = if mask_bits == full_mask {
                and_of_subset(s, vars)
            } else {
                Expr::binary(
                    BinOp::And,
                    and_of_subset(s, vars),
                    Expr::constant(simba::reduce(mask_bits as i128, width)),
                )
            };
            poly.add_term(vec![atom], c);
        }
        Some(poly)
    }

    /// Lowers an arbitrary MBA expression to a polynomial over atoms.
    #[allow(clippy::wrong_self_convention)]
    fn to_poly(&mut self, id: NodeId) -> Option<Poly> {
        match self.arena.node(id) {
            Node::Const(c) => Some(Poly::constant(c, self.width())),
            Node::Var(_) => Some(Poly::atom(self.arena.extract(id), self.width())),
            Node::Unary(UnOp::Neg, a) => Some(self.to_poly(a)?.neg()),
            Node::Unary(UnOp::Not, _) => self.bitwise_to_poly(id),
            Node::Binary(op, a, b) => match op {
                BinOp::Add => Some(self.to_poly(a)?.add(&self.to_poly(b)?)),
                BinOp::Sub => Some(self.to_poly(a)?.sub(&self.to_poly(b)?)),
                BinOp::Mul => {
                    let pa = self.to_poly(a)?;
                    let pb = self.to_poly(b)?;
                    match pa.mul_capped(&pb, self.simplifier.config().max_monomials) {
                        Some(p) => Some(p),
                        None => {
                            self.bailed = true;
                            None
                        }
                    }
                }
                BinOp::And | BinOp::Or | BinOp::Xor => self.bitwise_to_poly(id),
            },
        }
    }

    /// Lowers a bitwise-rooted subtree: abstract arithmetic children,
    /// take the signature of the remaining pure-bitwise skeleton, and
    /// expand it in the configured normalized basis.
    ///
    /// The skeleton is built as interned node ids (sharing every
    /// subtree the arena has seen before, across expressions), and the
    /// truth table is keyed by `(arena uid, generation, id)` in the
    /// signature cache — no re-hash of the subtree per lookup.
    fn bitwise_to_poly(&mut self, id: NodeId) -> Option<Poly> {
        let simplifier = self.simplifier;
        let arena = self.arena;
        let skel = self.skeleton(id);
        let skel = self.stale_id(skel);
        let vars = arena.vars(skel);
        if vars.is_empty() {
            // Constant-only bitwise tree, e.g. ~0: evaluate directly.
            let value = self.eval_constant(skel);
            return Some(Poly::constant(self.signed_residue(value), self.width()));
        }
        if vars.len() > TruthTable::MAX_VARS {
            // Too wide for a truth table: the BDD tier, then opaque.
            return Some(self.wide_bitwise(arena.extract(skel)));
        }
        // Truth-table extraction (the 2^t evaluation sweep) and the
        // basis re-expression below both memoize through the shared
        // `SigCache` when caching is enabled; the uncached paths compute
        // the same pure functions directly, so outputs never differ.
        // The signature span times the lookup-or-compute as one unit, so
        // its histogram shows the cache collapsing the sweep's cost.
        let table: Arc<TruthTable> = {
            let _t = simplifier.stages().signature.time();
            if self.use_sig_cache() {
                simplifier
                    .sig_cache()
                    .table_of_id(arena, skel, &vars)
                    .expect("skeleton is pure bitwise by construction")
            } else {
                Arc::new(
                    TruthTable::of_arena(arena, skel, &vars)
                        .expect("skeleton is pure bitwise by construction"),
                )
            }
        };
        Some(self.table_to_poly(&table, &vars))
    }

    /// A pure-bitwise skeleton with more variables than any `2^t`-row
    /// tier can sweep: canonicalize through the ROBDD engine when the
    /// tier is enabled and the diagram fits its budgets; otherwise
    /// record the (previously silent) skip and keep the subtree opaque.
    fn wide_bitwise(&mut self, skeleton: Expr) -> Poly {
        if self.simplifier.config().use_bdd {
            if let Some(rendered) = self.bdd_canonicalize(&skeleton) {
                self.used_bdd = true;
                // A semantically constant skeleton renders as 0 / -1.
                if let Some(c) = rendered.as_literal() {
                    return Poly::constant(c, self.width());
                }
                return Poly::atom(rendered, self.width());
            }
        }
        self.skipped_too_many_vars = true;
        Poly::atom(skeleton, self.width())
    }

    /// One BDD canonicalization: build the diagram over the skeleton's
    /// sorted variables, extract the canonical render. `None` when the
    /// tier declines (too many variables, node budget exceeded, or the
    /// canonical render would blow past the size budget — diagram
    /// sharing can unfold into a large tree).
    fn bdd_canonicalize(&self, skeleton: &Expr) -> Option<Expr> {
        let vars: Vec<Ident> = skeleton.vars().into_iter().collect();
        if vars.len() > BDD_TIER_MAX_VARS {
            return None;
        }
        let mut mgr = mba_bdd::BddManager::with_node_limit(mba_bdd::DEFAULT_NODE_LIMIT);
        let mut root = mgr.build(skeleton, &vars)?;
        if self.simplifier.config().injected_bug == Some(InjectedBug::BddComplementFlip) {
            // The complement-flag fault site: flip the root edge between
            // build and extraction, the observable effect of a lost
            // complement bit during node normalization.
            root = root.complement();
        }
        let rendered = mgr.extract(root, &vars, mba_bdd::DEFAULT_RENDER_LIMIT)?;
        mba_bdd::record_canonicalization();
        Some(rendered)
    }

    fn use_sig_cache(&self) -> bool {
        self.simplifier.config().use_cache
    }

    /// The ∧-basis (Möbius) coefficients of a truth table, via the
    /// shared cache when enabled.
    fn and_coefficients(&self, tt: &TruthTable) -> Vec<i128> {
        let _t = self.simplifier.stages().basis.time();
        if self.use_sig_cache() {
            (*self.simplifier.sig_cache().and_coefficients(tt)).clone()
        } else {
            SignatureVector::from_truth_table(tt).normalized_coefficients()
        }
    }

    /// Expands a 0/1 truth-table signature in the configured basis.
    /// `Adaptive` is resolved to concrete bases by the driver before
    /// pipelines run, so it falls back to ∧ here.
    fn table_to_poly(&self, tt: &TruthTable, vars: &[Ident]) -> Poly {
        match self.simplifier.config().basis {
            Basis::And | Basis::Adaptive => self.expand_and_basis(&self.and_coefficients(tt), vars),
            Basis::Or => {
                let solved = {
                    let _t = self.simplifier.stages().basis.time();
                    if self.use_sig_cache() {
                        self.simplifier
                            .sig_cache()
                            .or_coefficients(tt)
                            .map(|c| (*c).clone())
                    } else {
                        cache::or_basis_coefficients(tt)
                    }
                };
                match solved {
                    Some(coeffs) => {
                        let mut p = Poly::zero(self.width());
                        for (s, &c) in coeffs.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            if s == 0 {
                                p.add_term(Vec::new(), -c);
                            } else {
                                p.add_term(vec![or_of_subset(s, vars)], c);
                            }
                        }
                        p
                    }
                    // The ∨-basis can lack integer solutions for some
                    // signatures; fall back to the ∧-basis, which is
                    // unimodular and never fails.
                    None => self.expand_and_basis(&self.and_coefficients(tt), vars),
                }
            }
        }
    }

    fn expand_and_basis(&self, coeffs: &[i128], vars: &[Ident]) -> Poly {
        let mut p = Poly::zero(self.width());
        for (s, &c) in coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if s == 0 {
                // Coefficient of the all-ones column (−1): constant −c.
                p.add_term(Vec::new(), -c);
            } else {
                p.add_term(vec![and_of_subset(s, vars)], c);
            }
        }
        p
    }

    /// Rebuilds a bitwise-rooted subtree with every non-bitwise child
    /// abstracted into a temporary variable.
    fn skeleton(&mut self, id: NodeId) -> NodeId {
        let arena = self.arena;
        match arena.node(id) {
            Node::Var(_) | Node::Const(0) | Node::Const(-1) => id,
            Node::Unary(UnOp::Not, a) => {
                let sa = self.skeleton(a);
                arena.mk_unary(UnOp::Not, sa)
            }
            // Arithmetic negation is opaque — except over a literal
            // chain folding to a bit-uniform constant (`-0`, `- -1`),
            // which `is_pure_bitwise` admits. The skeleton must admit
            // exactly the same constants: otherwise the truth-table
            // route sees an opaque temporary where the corner route
            // sees a constant, and the two routes' outputs diverge.
            Node::Unary(UnOp::Neg, _) => match arena.as_literal(id) {
                Some(0) => arena.mk_const(0),
                Some(-1) => arena.mk_const(-1),
                _ => self.temp_for(id),
            },
            Node::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Xor), a, b) => {
                let sa = self.skeleton(a);
                let sb = self.skeleton(b);
                arena.mk_binary(op, sa, sb)
            }
            // Anything else — arithmetic subtree or a non-uniform
            // constant — becomes an opaque temporary.
            _ => self.temp_for(id),
        }
    }

    /// The [`InjectedBug::ArenaStaleId`] fault site: when armed, a
    /// freshly interned id is swapped for its first child's id — the
    /// observable effect of an intern table that handed back an entry a
    /// rewrite had invalidated. Leaves (no child to be stale against)
    /// pass through, so shrinking bottoms out at the smallest composite
    /// node. A no-op unless the bug is armed.
    fn stale_id(&self, id: NodeId) -> NodeId {
        if self.simplifier.config().injected_bug != Some(InjectedBug::ArenaStaleId) {
            return id;
        }
        match self.arena.node(id) {
            Node::Unary(_, a) => a,
            Node::Binary(_, a, _) => a,
            Node::Const(_) | Node::Var(_) => id,
        }
    }

    /// Returns the (possibly negated) temporary standing for `child`,
    /// creating one on first sight.
    ///
    /// Deduplication works on the child's *simplified* form, so two
    /// sites that were obfuscated differently still share a temporary —
    /// the paper's common-subexpression optimization, made robust. A
    /// child whose simplified form is the bitwise complement of an
    /// existing temporary (`E = ¬E' = −E'−1`) reuses it as `¬t'`, which
    /// lets e.g. `(A ⊕ B) − 2(¬A ∧ B)` collapse even when the two `A`
    /// copies diverged syntactically.
    fn temp_for(&mut self, child: NodeId) -> NodeId {
        let arena = self.arena;
        // Deduplication key: the *canonical* polynomial render of the
        // child, computed without the output-size heuristic. Two sites
        // that were obfuscated differently but denote the same
        // polynomial share one key — and therefore one temporary.
        let (key, key_flags) = self.simplifier.canonical_form(child, self.depth + 1);
        self.absorb(key_flags);
        if let Some(name) = self.temp_map.get(&key) {
            return arena.mk_var(name);
        }
        // Complement probe: a child whose canonical form matches an
        // existing temporary's complement (¬E = −E − 1) reuses it as
        // `¬t`, so e.g. `(A ⊕ B) − 2(¬A ∧ B)` collapses even when the
        // two `A` copies diverged syntactically.
        let complement_input = arena.mk_binary(
            BinOp::Sub,
            arena.mk_unary(UnOp::Neg, child),
            arena.mk_const(1),
        );
        let (complement_key, complement_flags) = self
            .simplifier
            .canonical_form(complement_input, self.depth + 1);
        self.absorb(complement_flags);
        if let Some(name) = self.temp_map.get(&complement_key) {
            return arena.mk_unary(UnOp::Not, arena.mk_var(name));
        }
        // The *replacement* substituted back into the output is the
        // best-scored simplification (plus the per-level FinalOptimize
        // of Algorithm 1), not the canonical render, which may be
        // larger.
        let (simplified, child_flags) = self.simplifier.simplify_round(child, self.depth + 1);
        self.absorb(child_flags);
        let simplified = if self.simplifier.config().final_step {
            self.simplifier.final_step(simplified)
        } else {
            arena.extract(simplified)
        };
        let name = self.fresh_name();
        self.forbidden.insert(name.clone());
        self.temps.push((name.clone(), simplified));
        let var = arena.mk_var(&name);
        self.temp_map.insert(key, name);
        var
    }

    fn fresh_name(&self) -> Ident {
        let mut n = self.temps.len();
        loop {
            let candidate = Ident::new(format!("_t{n}"));
            if !self.forbidden.contains(&candidate) {
                return candidate;
            }
            n += 1;
        }
    }
}

/// What the linear fast path made of a pass's input.
enum FastPath {
    /// The ∧-basis polynomial of the recovered coefficients.
    Built(Poly),
    /// The render would rank strictly worse than the input it is scored
    /// against, so it was not built.
    Declined,
    /// Not this tier's input (or recovery failed): the other tiers run.
    NotApplicable,
}

/// A lower bound on the [`Rank`] of the ∧-basis render of `coeffs` —
/// what [`Pipeline::expand_and_basis`] then [`Poly::to_expr`] would
/// build — read off the coefficients alone.
///
/// The render is a sum `head ± tail ± …` with one term per nonzero
/// coefficient (`mba_sig::linear_combination`). A subset of two or more
/// variables renders as an `&` chain, and each such term connects the
/// two domains once: through its own `c*` or `-` wrapper, or through
/// the `+`/`-` it is a bare operand of. Only a bare head and a bare
/// first tail can share that `+`/`-`, so the alternation is at least
/// one less than the `&` terms, and exactly that when there are fewer
/// than two. The node count is exact but for a head of coefficient −1,
/// whose `-` the bound leaves out: which term leads is not read here.
fn and_render_rank_floor(coeffs: &[i128], width: u32) -> Rank {
    let mut terms = 0;
    let mut and_terms = 0;
    let mut and_coeff = 0;
    let mut nodes = 0;
    for (s, &c) in coeffs.iter().enumerate() {
        // The coefficient `Poly::add_term` would store.
        let c = simba::reduce(c, width);
        if c == 0 {
            continue;
        }
        terms += 1;
        if s == 0 {
            // The constant, one literal wherever it sits.
            nodes += 1;
            continue;
        }
        // A variable, or an `&` chain of k variables.
        let k = s.count_ones() as usize;
        nodes += 2 * k - 1;
        if c.abs() != 1 {
            // The `c*` wrapper: a literal and a product.
            nodes += 2;
        }
        if k >= 2 {
            and_terms += 1;
            and_coeff = c;
        }
    }
    if terms == 0 {
        // The zero polynomial renders as `0`.
        return (0, 1);
    }
    let alternation = match (terms, and_terms) {
        // A lone `x&y` is pure bitwise; `-(x&y)` and `c*(x&y)` are not.
        (1, 1) => usize::from(and_coeff != 1),
        (_, n) if n >= 2 => n - 1,
        (_, n) => n,
    };
    (alternation, nodes + terms - 1)
}

/// Collects every constant occurring inside a bitwise-with-constants
/// factor, reduced to its symmetric residue mod `2^width` (bits above
/// the width cannot influence any grouped position). `None` on a shape
/// outside the semi-linear factor grammar.
fn collect_bitwise_consts(e: &Expr, width: u32, out: &mut BTreeSet<i128>) -> Option<()> {
    match e {
        Expr::Var(_) => Some(()),
        Expr::Unary(UnOp::Not, a) => collect_bitwise_consts(a, width, out),
        Expr::Binary(BinOp::And | BinOp::Or | BinOp::Xor, a, b) => {
            collect_bitwise_consts(a, width, out)?;
            collect_bitwise_consts(b, width, out)
        }
        other => {
            out.insert(simba::reduce(other.as_literal()?, width));
            Some(())
        }
    }
}

/// Replaces every constant in a bitwise-with-constants factor by the
/// uniform constant matching its bit at position `j` (0 or −1), turning
/// the factor into a pure bitwise expression valid on that bit group.
fn ground_constants(e: &Expr, j: u32) -> Option<Expr> {
    match e {
        Expr::Var(_) => Some(e.clone()),
        Expr::Unary(UnOp::Not, a) => Some(Expr::unary(UnOp::Not, ground_constants(a, j)?)),
        Expr::Binary(op @ (BinOp::And | BinOp::Or | BinOp::Xor), a, b) => Some(Expr::binary(
            *op,
            ground_constants(a, j)?,
            ground_constants(b, j)?,
        )),
        other => {
            let c = other.as_literal()?;
            Some(if (c >> j) & 1 != 0 {
                Expr::minus_one()
            } else {
                Expr::zero()
            })
        }
    }
}

/// The conjunction of the variables selected by row-index bit mask `s`
/// (bit `p` ↔ `vars[t-1-p]`, matching the signature row convention).
pub(crate) fn and_of_subset(s: usize, vars: &[Ident]) -> Expr {
    subset_chain(s, vars, BinOp::And)
}

/// The disjunction of the variables selected by mask `s`.
pub(crate) fn or_of_subset(s: usize, vars: &[Ident]) -> Expr {
    subset_chain(s, vars, BinOp::Or)
}

fn subset_chain(s: usize, vars: &[Ident], op: BinOp) -> Expr {
    let t = vars.len();
    let mut selected = (0..t).filter(|j| s & (1 << (t - 1 - j)) != 0);
    let first = selected
        .next()
        .expect("subset_chain requires a non-empty subset");
    selected.fold(Expr::var(vars[first].clone()), |acc, j| {
        Expr::binary(op, acc, Expr::var(vars[j].clone()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_builders() {
        let vars = [Ident::new("x"), Ident::new("y"), Ident::new("z")];
        // Mask bits: bit 2 = x, bit 1 = y, bit 0 = z.
        assert_eq!(and_of_subset(0b100, &vars).to_string(), "x");
        assert_eq!(and_of_subset(0b011, &vars).to_string(), "y&z");
        assert_eq!(and_of_subset(0b111, &vars).to_string(), "x&y&z");
        assert_eq!(or_of_subset(0b101, &vars).to_string(), "x|z");
    }

    /// The floor is what its doc claims, on random coefficient vectors
    /// over 1–4 variables at widths 1, 8 and 64: the alternation is the
    /// render's or one less, exactly the render's below two `&` terms,
    /// and the node count is the render's or one less.
    #[test]
    fn rank_floor_bounds_the_render() {
        use mba_expr::metrics::alternation;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let names = ["a", "b", "c", "d"];
        let mut rng = StdRng::seed_from_u64(7);
        for width in [1u32, 8, 64] {
            let s = Simplifier::with_config(crate::SimplifyConfig {
                width,
                ..crate::SimplifyConfig::default()
            });
            let root = s.arena().intern(&Expr::var("a"));
            let pipeline = Pipeline::new(&s, root, 0, None);
            let palette = [0, 0, 0, 1, -1, 2, -3, 1i128 << (width - 1), 1i128 << width];
            for _ in 0..2000 {
                let t = rng.gen_range(1..=4usize);
                let vars: Vec<Ident> = names[..t].iter().map(|n| Ident::new(*n)).collect();
                let coeffs: Vec<i128> = (0..1usize << t)
                    .map(|_| palette[rng.gen_range(0..palette.len())])
                    .collect();
                let render = pipeline.expand_and_basis(&coeffs, &vars).to_expr();
                let actual = (alternation(&render), render.node_count());
                let floor = and_render_rank_floor(&coeffs, width);
                assert!(floor <= actual, "{coeffs:?} at width {width}: `{render}`");
                assert!(actual.0 <= floor.0 + 1, "{coeffs:?}: `{render}`");
                assert!(actual.1 <= floor.1 + 1, "{coeffs:?}: `{render}`");
                let and_terms = (2..coeffs.len())
                    .filter(|&s| s.count_ones() >= 2 && simba::reduce(coeffs[s], width) != 0)
                    .count();
                if and_terms < 2 {
                    assert_eq!(actual.0, floor.0, "{coeffs:?}: `{render}`");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty subset")]
    fn empty_subset_panics() {
        let vars = [Ident::new("x")];
        and_of_subset(0, &vars);
    }
}
