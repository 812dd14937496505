//! Semantic signatures for synthesis candidates: the complete width-1
//! truth table packed into one SIMD-wide block, plus deterministic
//! full-width probe evaluations.
//!
//! The width-1 table alone is a *necessary* condition for equivalence
//! — the low result bit of every MBA operator depends only on the low
//! bits of its inputs, so truncation to width 1 commutes with the whole
//! grammar — but it is not sufficient (`x+y` and `x^y` agree at width
//! 1 and nowhere else). The probe vector restores discrimination at the
//! request width: eight deterministic valuations, two structured
//! corners (all-zeros, all-ones) plus splitmix64-derived points, so
//! arithmetic variants of one boolean function stay distinguishable.
//!
//! Both halves come out of the bit-parallel tape engine: the table is
//! one [`EvalProgram::eval_bits_wide`] pass (`64 × WIDE_LANES = 256`
//! rows, enough for the full table of up to [`MAX_SYNTH_VARS`] = 8
//! variables), the probes one [`EvalProgram::eval_batch`] pass.

use mba_expr::{row_bit_pattern, EvalProgram, Ident, WIDE_LANES};

/// Largest variable count the synthesis tier enumerates over. Eight
/// variables fill exactly one wide block (`2^8 = 64 × WIDE_LANES`
/// truth-table rows), so every signature costs one tape pass.
pub const MAX_SYNTH_VARS: usize = 8;

/// Deterministic full-width probe valuations carried *inside* the
/// dedup key (distinguishing arithmetic variants of one boolean
/// function).
pub const PROBE_LANES: usize = 8;

/// Additional deterministic valuations re-checked before an acceptance
/// is substituted into the output (the "probe re-verify" of the
/// soundness contract).
///
/// Probes are evidence, not proof: a candidate that disagrees with the
/// target on a fraction `p` of valuations still passes all
/// `PROBE_LANES + VERIFY_LANES` = 264 probes with probability about
/// `(1 − p)^264`. Mixed bitwise/arithmetic inputs that are zero on all
/// but 6–8% of valuations passed the 32 probes of a 24-lane re-verify;
/// at 256 lanes such a candidate passes with probability below 10⁻⁷.
pub const VERIFY_LANES: usize = 256;

/// The packed width-1 truth table: row `r` of the candidate's boolean
/// function lands in bit `r % 64` of word `r / 64`, rows beyond `2^t`
/// masked to zero.
pub type TtSig = [u64; WIDE_LANES];

/// The dedup key: complete width-1 table plus the in-key probe vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Packed width-1 truth table over the query's variable order.
    pub tt: TtSig,
    /// `PROBE_LANES` full-width evaluations on the deterministic probe
    /// valuations.
    pub probes: [u64; PROBE_LANES],
}

/// Deterministic probe value for variable slot `j` of probe `k`: two
/// structured corners, one small-integer ramp, then a splitmix64
/// finalizer (the same mixer the SiMBA fast path verifies with, offset
/// so the streams never coincide).
pub(crate) fn probe_value(k: u64, j: u64) -> u64 {
    match k {
        0 => 0,
        1 => u64::MAX,
        2 => j + 1,
        _ => {
            let mut z = ((k ^ 0x0073_796e_7468) << 32) ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

/// Evaluates `program` on probes `k0 .. k0 + lanes`, one full-width
/// value per probe. `vars` is the *query's* sorted variable list;
/// `program` may bind any subset of it (candidates need not mention
/// every variable), and each bound variable takes the probe value of
/// its position in the full list, so sub-expressions evaluate
/// consistently with the target.
///
/// # Panics
///
/// Panics if `program` binds a variable outside `vars` — callers only
/// hand in programs built over (subsets of) `vars`.
pub(crate) fn probe_row(
    program: &EvalProgram,
    vars: &[Ident],
    width: u32,
    k0: u64,
    lanes: usize,
) -> Vec<u64> {
    let columns: Vec<Vec<u64>> = program
        .vars()
        .iter()
        .map(|name| {
            let j = vars
                .binary_search(name)
                .expect("program variable outside the query's variable list");
            (0..lanes)
                .map(|k| probe_value(k0 + k as u64, j as u64))
                .collect()
        })
        .collect();
    program.eval_batch(lanes, &columns, width)
}

/// The full signature of `program` over `vars` (sorted, 1 ..=
/// [`MAX_SYNTH_VARS`] entries) at the request `width`: one wide tape
/// pass for the complete width-1 table, one batch pass for the probes.
///
/// Row convention matches `TruthTable` / the SiMBA corner order: the
/// first variable in `vars` is the most significant bit of the row
/// index (variable `j` toggles with period `2^(t-1-j)` rows).
pub(crate) fn signature_of(program: &EvalProgram, vars: &[Ident], width: u32) -> Signature {
    let t = vars.len();
    debug_assert!((1..=MAX_SYNTH_VARS).contains(&t));
    let rows = 1usize << t;

    let blocks: Vec<[u64; WIDE_LANES]> = program
        .vars()
        .iter()
        .map(|name| {
            let j = vars
                .binary_search(name)
                .expect("program variable outside the query's variable list");
            let p = (t - 1 - j) as u32;
            std::array::from_fn(|b| row_bit_pattern(p, b))
        })
        .collect();
    let mut tt = program.eval_bits_wide(&blocks);

    // Mask off the lanes past the real table: rows repeat with period
    // 2^t, so everything beyond the first 2^t row positions is echo.
    for (w, word) in tt.iter_mut().enumerate() {
        let lo = w * 64;
        if lo >= rows {
            *word = 0;
        } else if rows - lo < 64 {
            *word &= (1u64 << (rows - lo)) - 1;
        }
    }

    let probe_vals = probe_row(program, vars, width, 0, PROBE_LANES);
    let mut probes = [0u64; PROBE_LANES];
    probes.copy_from_slice(&probe_vals);
    Signature { tt, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::{Expr, Valuation};

    fn vars_of(e: &Expr) -> Vec<Ident> {
        e.vars().into_iter().collect()
    }

    #[test]
    fn width_one_agreement_of_add_and_xor_is_separated_by_probes() {
        let add: Expr = "x + y".parse().unwrap();
        let xor: Expr = "x ^ y".parse().unwrap();
        let vars = vars_of(&add);
        let sa = signature_of(&EvalProgram::compile(&add), &vars, 64);
        let sx = signature_of(&EvalProgram::compile(&xor), &vars, 64);
        assert_eq!(sa.tt, sx.tt, "width-1 tables must coincide");
        assert_ne!(sa.probes, sx.probes, "probes must separate them");
    }

    #[test]
    fn table_rows_match_scalar_evaluation() {
        let e: Expr = "(x & ~y) | (y ^ z)".parse().unwrap();
        let vars = vars_of(&e);
        let t = vars.len();
        let sig = signature_of(&EvalProgram::compile(&e), &vars, 64);
        for r in 0..(1usize << t) {
            let v: Valuation = vars
                .iter()
                .enumerate()
                .map(|(j, name)| {
                    let bit = (r >> (t - 1 - j)) & 1;
                    (name.clone(), bit as u64)
                })
                .collect();
            let expect = e.eval(&v, 1);
            let got = (sig.tt[r / 64] >> (r % 64)) & 1;
            assert_eq!(got, expect, "row {r}");
        }
        // Echo lanes past the real table are masked off.
        assert_eq!(sig.tt[0] >> (1 << t), 0);
        assert_eq!(sig.tt[1], 0);
    }

    #[test]
    fn eight_variables_fill_every_wide_lane() {
        let src = "v0 & v1 | v2 & v3 | v4 & v5 | v6 & v7";
        let e: Expr = src.parse().unwrap();
        let vars = vars_of(&e);
        assert_eq!(vars.len(), 8);
        let sig = signature_of(&EvalProgram::compile(&e), &vars, 64);
        assert!(sig.tt.iter().any(|&w| w != 0));
        // Row 255 (all variables 1) must be set: the OR of ANDs is 1.
        assert_eq!(sig.tt[3] >> 63, 1);
    }

    #[test]
    fn candidates_over_variable_subsets_bind_consistently() {
        // `y` alone, queried over {x, y}: its probe values must be the
        // slot-1 probes, not slot-0's.
        let full: Expr = "0*x + y".parse().unwrap();
        let sub: Expr = "y".parse().unwrap();
        let vars = vars_of(&full);
        let a = signature_of(&EvalProgram::compile(&full), &vars, 64);
        let b = signature_of(&EvalProgram::compile(&sub), &vars, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn probe_corners_are_structured() {
        assert_eq!(probe_value(0, 3), 0);
        assert_eq!(probe_value(1, 5), u64::MAX);
        assert_eq!(probe_value(2, 5), 6);
        assert_ne!(probe_value(3, 0), probe_value(3, 1));
        assert_ne!(probe_value(3, 0), probe_value(4, 0));
    }
}
