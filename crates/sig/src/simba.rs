//! SiMBA-style linear fast path: coefficient recovery from {0, −1}
//! corner evaluations (Reichenwallner & Meerwald-Stadler, arXiv
//! 2209.06335).
//!
//! The classic pipeline simplifies a linear MBA by building one truth
//! table per bitwise term and solving in the normalized basis. The
//! SiMBA observation is that for a *linear* expression `e = Σ aᵢ·eᵢ + c`
//! the whole signature vector can be read off `2^t` evaluations of `e`
//! itself on the corner valuations where every variable is `0` or `−1`
//! (all-ones): a pure bitwise term evaluates to `0` or `−1` on such a
//! valuation according to its truth-table row, so
//!
//! ```text
//! e(corner_r) = −Σ aᵢ·ttᵢ[r] + c = −s_r      (mod 2^w)
//! ```
//!
//! where `s_r` is the row-`r` component of the signature in the
//! [`crate::SignatureVector::of_linear`] convention (constant folded
//! through the `−1` column). Negating the corner evaluations therefore
//! yields the signature, a subset Möbius inversion yields the basis
//! coefficients, and no matrix or per-term truth table is needed.
//!
//! ## Conventions
//!
//! * `vars` must be sorted (callers pass the order of
//!   [`mba_expr::Expr::vars`]); the *first* variable is the most
//!   significant bit of the row index, matching [`crate::TruthTable`]'s
//!   row convention and the MSB-first `row_bit_pattern` layout of
//!   `eval_bits`. Corner `r` assigns variable `j` the value all-ones
//!   iff bit `t−1−j` of `r` is set.
//! * Corner evaluations run through the bit-parallel batch engine
//!   ([`mba_expr::EvalProgram::eval_batch`]): one pass of `2^t` lanes.
//! * Signature components and coefficients are symmetric residues
//!   mod `2^w` (the same representatives `mba-solver`'s polynomial
//!   layer reduces to), so feeding the recovered coefficients into the
//!   existing basis expansion reproduces the classic pipeline's output
//!   byte for byte.
//!
//! The module also keeps the fast path's process-global counters
//! (attempts / hits / fallbacks, plus the semi-linear tier's), which
//! `mba-solver` bumps from its pipeline and
//! [`publish_simba_metrics`] mirrors into an observability registry as
//! `simba.*` gauges next to the `eval.*` engine gauges.

use std::sync::atomic::{AtomicU64, Ordering};

use mba_expr::{mask, EvalProgram, Expr, Ident};

use crate::basis::linear_combination;
use crate::signature::{and_of_subset, subset_sort_key};
use crate::truth::TruthTable;

static ATTEMPTS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static SEMI_ATTEMPTS: AtomicU64 = AtomicU64::new(0);
static SEMI_HITS: AtomicU64 = AtomicU64::new(0);
static SEMI_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Counts a pipeline invocation eligible for the linear fast path.
pub fn record_attempt() {
    ATTEMPTS.fetch_add(1, Ordering::Relaxed);
}

/// Counts a pipeline invocation served by the linear fast path.
pub fn record_hit() {
    HITS.fetch_add(1, Ordering::Relaxed);
}

/// Counts a linear candidate that fell back to the basis pipeline.
pub fn record_fallback() {
    FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Counts a semi-linear candidate entering the group-mask tier.
pub fn record_semi_attempt() {
    SEMI_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
}

/// Counts a semi-linear candidate simplified by the group-mask tier.
pub fn record_semi_hit() {
    SEMI_HITS.fetch_add(1, Ordering::Relaxed);
}

/// Counts a semi-linear candidate that fell back to the slow path.
pub fn record_semi_fallback() {
    SEMI_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Snapshot of the fast-path counters since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimbaStats {
    /// Pipeline invocations where the linear fast path was eligible.
    pub attempts: u64,
    /// Invocations served by corner-evaluation recovery.
    pub hits: u64,
    /// Linear candidates that fell back to the basis pipeline.
    pub fallbacks: u64,
    /// Semi-linear candidates entering the group-mask tier.
    pub semi_attempts: u64,
    /// Semi-linear candidates simplified by the group-mask tier.
    pub semi_hits: u64,
    /// Semi-linear candidates that fell back to the slow path.
    pub semi_fallbacks: u64,
}

impl SimbaStats {
    /// Fraction of eligible invocations served by the fast path
    /// (`0.0` when nothing was attempted).
    pub fn hit_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.hits as f64 / self.attempts as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &SimbaStats) -> SimbaStats {
        SimbaStats {
            attempts: self.attempts - earlier.attempts,
            hits: self.hits - earlier.hits,
            fallbacks: self.fallbacks - earlier.fallbacks,
            semi_attempts: self.semi_attempts - earlier.semi_attempts,
            semi_hits: self.semi_hits - earlier.semi_hits,
            semi_fallbacks: self.semi_fallbacks - earlier.semi_fallbacks,
        }
    }
}

/// Reads the process-global fast-path counters.
pub fn simba_stats() -> SimbaStats {
    SimbaStats {
        attempts: ATTEMPTS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        semi_attempts: SEMI_ATTEMPTS.load(Ordering::Relaxed),
        semi_hits: SEMI_HITS.load(Ordering::Relaxed),
        semi_fallbacks: SEMI_FALLBACKS.load(Ordering::Relaxed),
    }
}

/// Mirrors the fast-path counters into `registry` as `simba.*` gauges,
/// the same snapshot-point bridge as
/// [`crate::publish_eval_engine_metrics`].
pub fn publish_simba_metrics(registry: &mba_obs::MetricsRegistry) {
    let s = simba_stats();
    registry.gauge("simba.attempts").set(s.attempts as i64);
    registry.gauge("simba.hits").set(s.hits as i64);
    registry.gauge("simba.fallbacks").set(s.fallbacks as i64);
    registry
        .gauge("simba.semi.attempts")
        .set(s.semi_attempts as i64);
    registry.gauge("simba.semi.hits").set(s.semi_hits as i64);
    registry
        .gauge("simba.semi.fallbacks")
        .set(s.semi_fallbacks as i64);
}

/// The symmetric residue of `v` mod `2^width`, in
/// `[−2^(width−1), 2^(width−1))` — the same representatives the
/// polynomial layer normalizes coefficients to.
pub fn reduce(v: i128, width: u32) -> i128 {
    let m = 1i128 << width;
    let r = v.rem_euclid(m);
    if r >= m / 2 {
        r - m
    } else {
        r
    }
}

/// Evaluates `e` on all `2^t` {0, −1} corner valuations of `vars` in
/// one batch pass, returning the `width`-masked machine values in row
/// order. `vars` must be sorted and cover every variable of `e`;
/// `None` if it does not, is empty, or exceeds
/// [`TruthTable::MAX_VARS`].
pub fn corner_values(e: &Expr, vars: &[Ident], width: u32) -> Option<Vec<u64>> {
    corner_values_program(&EvalProgram::compile(e), vars, width)
}

/// [`corner_values`] over an already-compiled tape. This is the entry
/// the arena pipeline uses ([`EvalProgram::compile_arena`] produces a
/// tape byte-identical to the tree compile, so the corner values — and
/// everything downstream of them — are identical too).
pub fn corner_values_program(
    program: &EvalProgram,
    vars: &[Ident],
    width: u32,
) -> Option<Vec<u64>> {
    let t = vars.len();
    if t == 0 || t > TruthTable::MAX_VARS || width == 0 || width > 64 {
        return None;
    }
    // The binary searches below require sorted order; on an unsorted
    // slice they would *mostly* miss (None) but can also land on a
    // wrong slot and silently build the wrong column. Decline
    // explicitly instead.
    if !vars.is_sorted() {
        return None;
    }
    let lanes = 1usize << t;
    // Column for variable `j`: all-ones on exactly the lanes whose row
    // index has bit `t−1−j` set (first variable = MSB of the row
    // index). Truncation commutes with every MBA operator, so the
    // unmasked all-ones word is fine — `eval_batch` masks the result.
    let mut columns = Vec::with_capacity(program.vars().len());
    for name in program.vars() {
        let j = vars.binary_search(name).ok()?;
        let select = 1usize << (t - 1 - j);
        let mut column = vec![0u64; lanes];
        for (r, slot) in column.iter_mut().enumerate() {
            if r & select != 0 {
                *slot = u64::MAX;
            }
        }
        columns.push(column);
    }
    Some(program.eval_batch(lanes, &columns, width))
}

/// The signature vector of a linear `e` recovered from corner
/// evaluations alone: `s_r = −e(corner_r)` as a symmetric residue
/// mod `2^w`. Equals [`crate::SignatureVector::of_linear`]'s exact
/// components reduced mod `2^w` whenever `e` is linear over `vars`.
pub fn corner_signature(e: &Expr, vars: &[Ident], width: u32) -> Option<Vec<i128>> {
    corner_signature_program(&EvalProgram::compile(e), vars, width)
}

/// [`corner_signature`] over an already-compiled tape.
pub fn corner_signature_program(
    program: &EvalProgram,
    vars: &[Ident],
    width: u32,
) -> Option<Vec<i128>> {
    let values = corner_values_program(program, vars, width)?;
    Some(
        values
            .into_iter()
            .map(|v| reduce(-(v as i128), width))
            .collect(),
    )
}

/// In-place subset Möbius inversion (signature components → normalized
/// basis coefficients); the inverse of [`zeta`]. `c.len()` must be a
/// power of two. Matches
/// [`crate::SignatureVector::normalized_coefficients`] exactly.
pub fn moebius(c: &mut [i128]) {
    debug_assert!(c.len().is_power_of_two());
    let mut bit = 1usize;
    while bit < c.len() {
        for s in 0..c.len() {
            if s & bit != 0 {
                c[s] -= c[s ^ bit];
            }
        }
        bit <<= 1;
    }
}

/// In-place subset zeta transform (coefficients → signature
/// components); the inverse of [`moebius`].
pub fn zeta(c: &mut [i128]) {
    debug_assert!(c.len().is_power_of_two());
    let mut bit = 1usize;
    while bit < c.len() {
        for s in 0..c.len() {
            if s & bit != 0 {
                c[s] += c[s ^ bit];
            }
        }
        bit <<= 1;
    }
}

/// Deterministic non-corner probe value for variable slot `j` of probe
/// `k` (a splitmix64 finalizer, so adjacent slots decorrelate).
fn probe_value(k: u64, j: u64) -> u64 {
    let mut z = (k << 32) ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluates the recovered linear combination `Σ c_S·(∧S) + c_0·(−1)`
/// numerically at the given variable values, mod `2^width`.
fn reconstruct(coeffs: &[i128], values: &[u64], width: u32) -> u64 {
    let t = values.len();
    let mut acc = 0u64;
    for (s, &c) in coeffs.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let term = if s == 0 {
            u64::MAX // the −1 column
        } else {
            let mut v = u64::MAX;
            for (j, value) in values.iter().enumerate() {
                if s & (1 << (t - 1 - j)) != 0 {
                    v &= value;
                }
            }
            v
        };
        acc = acc.wrapping_add((c as u64).wrapping_mul(term));
    }
    mask(acc, width)
}

/// Recovers the normalized basis coefficients of a linear `e` from its
/// corner evaluations: corner signature, Möbius inversion, then a
/// verification sweep comparing the recovered combination against `e`
/// on two fixed non-corner valuations. Any mismatch — which means the
/// caller's linearity classification was wrong — returns `None` so the
/// caller can fall back to the truth-table/basis pipeline.
///
/// Coefficients are exact mod `2^width`; indexing follows the subset
/// convention of
/// [`crate::SignatureVector::normalized_coefficients`] (index 0 is the
/// `−1` column carrying the constant).
pub fn recover_coefficients(e: &Expr, vars: &[Ident], width: u32) -> Option<Vec<i128>> {
    recover_coefficients_program(&EvalProgram::compile(e), vars, width)
}

/// [`recover_coefficients`] over an already-compiled tape: the same
/// corner signature, Möbius inversion, and two-probe verification, with
/// the probes evaluated through the tape instead of a tree walk (the
/// batch engine is pinned value-identical to `Expr::eval`).
pub fn recover_coefficients_program(
    program: &EvalProgram,
    vars: &[Ident],
    width: u32,
) -> Option<Vec<i128>> {
    let sig = corner_signature_program(program, vars, width)?;
    let mut coeffs = sig;
    moebius(&mut coeffs);
    for k in 0..2u64 {
        let values: Vec<u64> = (0..vars.len()).map(|j| probe_value(k, j as u64)).collect();
        let valuation: mba_expr::Valuation =
            vars.iter().cloned().zip(values.iter().copied()).collect();
        let direct = program
            .eval_valuations(&[valuation], width)
            .expect("probe valuation binds every program variable")[0];
        if reconstruct(&coeffs, &values, width) != direct {
            return None;
        }
    }
    Some(coeffs)
}

/// Renders recovered coefficients exactly like
/// [`crate::SignatureVector::to_normalized_expr`]: singleton subsets in
/// variable order, larger subsets by size then variable order, constant
/// last.
pub fn render_coefficients(coeffs: &[i128], vars: &[Ident]) -> Expr {
    let t = vars.len();
    assert_eq!(coeffs.len(), 1usize << t, "coefficient count mismatch");
    let mut subsets: Vec<usize> = (1..coeffs.len()).collect();
    subsets.sort_by_key(|&s| (s.count_ones(), subset_sort_key(s, t)));
    let mut terms: Vec<(i128, Expr)> = Vec::new();
    for s in subsets {
        terms.push((coeffs[s], and_of_subset(s, vars)));
    }
    terms.push((coeffs[0], Expr::minus_one()));
    linear_combination(&terms)
}

/// The whole fast route at the signature layer: corner evaluation,
/// Möbius inversion, verification, render. `None` when the expression
/// is out of range or fails verification; the output is byte-identical
/// to `SignatureVector::of_linear(e).to_normalized_expr(vars)` whenever
/// the exact coefficients fit the symmetric range of `width`.
pub fn simplify_linear(e: &Expr, vars: &[Ident], width: u32) -> Option<Expr> {
    let coeffs = recover_coefficients(e, vars, width)?;
    Some(render_coefficients(&coeffs, vars))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignatureVector;

    fn vars_of(e: &Expr) -> Vec<Ident> {
        e.vars().into_iter().collect()
    }

    #[test]
    fn corner_signature_matches_of_linear_on_the_running_example() {
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        let vars = vars_of(&e);
        let sig = corner_signature(&e, &vars, 64).unwrap();
        assert_eq!(sig, vec![0, 1, 1, 2]);
        let exact = SignatureVector::of_linear(&e, &vars).unwrap();
        assert_eq!(sig, exact.components());
    }

    #[test]
    fn moebius_and_zeta_are_inverse() {
        let original = vec![3, -1, 4, 1, -5, 9, 2, -6];
        let mut c = original.clone();
        moebius(&mut c);
        zeta(&mut c);
        assert_eq!(c, original);
    }

    #[test]
    fn moebius_matches_normalized_coefficients() {
        let sv = SignatureVector::from_components(3, vec![-1, 0, 0, 1, 0, 1, 1, 2]);
        let mut c = sv.components().to_vec();
        moebius(&mut c);
        assert_eq!(c, sv.normalized_coefficients());
    }

    #[test]
    fn simplify_linear_reduces_the_running_example() {
        let e: Expr = "2*(x|y) - (~x&y) - (x&~y)".parse().unwrap();
        let vars = vars_of(&e);
        assert_eq!(simplify_linear(&e, &vars, 64).unwrap().to_string(), "x+y");
    }

    #[test]
    fn constants_fold_through_the_minus_one_column() {
        let e: Expr = "x + 4".parse().unwrap();
        let vars = vars_of(&e);
        let sig = corner_signature(&e, &vars, 64).unwrap();
        assert_eq!(sig, vec![-4, -3]);
        assert_eq!(simplify_linear(&e, &vars, 64).unwrap().to_string(), "x+4");
    }

    #[test]
    fn narrow_widths_reduce_mod_two_to_the_w() {
        let e: Expr = "200*x".parse().unwrap();
        let vars = vars_of(&e);
        // 200 ≡ −56 (mod 256): the corner route sees the symmetric
        // residue at width 8.
        let coeffs = recover_coefficients(&e, &vars, 8).unwrap();
        assert_eq!(coeffs, vec![0, -56]);
    }

    #[test]
    fn out_of_range_inputs_are_rejected() {
        let e: Expr = "x & y".parse().unwrap();
        let vars = vars_of(&e);
        assert!(corner_values(&e, &vars, 0).is_none());
        assert!(corner_values(&e, &[], 64).is_none());
        // `vars` not covering the expression is rejected.
        assert!(corner_values(&e, &vars[..1], 64).is_none());
    }

    #[test]
    fn verification_rejects_non_linear_inputs() {
        // `x & (x+1)` is not linear; corner interpolation exists but
        // cannot extend to the whole domain, so the probe sweep fails.
        let e: Expr = "x & (x + 1) & y".parse().unwrap();
        let vars = vars_of(&e);
        assert!(recover_coefficients(&e, &vars, 64).is_none());
    }

    #[test]
    fn arena_tape_recovery_matches_tree_recovery() {
        let arena = mba_expr::ExprArena::new();
        for src in [
            "2*(x|y) - (~x&y) - (x&~y)",
            "x + 4",
            "200*x",
            "x & (x + 1) & y", // non-linear: both routes must reject
        ] {
            let e: Expr = src.parse().unwrap();
            let vars = vars_of(&e);
            let id = arena.intern(&e);
            let program = EvalProgram::compile_arena(&arena, id);
            for width in [8, 16, 32, 64] {
                assert_eq!(
                    recover_coefficients_program(&program, &vars, width),
                    recover_coefficients(&e, &vars, width),
                    "`{src}` at width {width}"
                );
            }
        }
    }

    #[test]
    fn counters_accumulate() {
        let before = simba_stats();
        record_attempt();
        record_hit();
        record_semi_attempt();
        record_semi_hit();
        let delta = simba_stats().since(&before);
        assert_eq!(delta.attempts, 1);
        assert_eq!(delta.hits, 1);
        assert_eq!(delta.semi_attempts, 1);
        assert_eq!(delta.semi_hits, 1);
        assert!(delta.hit_rate() > 0.0);
    }
}
