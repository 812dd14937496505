//! Differential tests pinning the wide bit-parallel engine
//! (`EvalProgram::eval_bits_wide`, the synthesis tier's candidate
//! screen) to the narrow `eval_bits` pass and to the scalar evaluator:
//!
//! * word `w` of a wide pass must equal `eval_bits` of the `w`-th
//!   column of input words, for arbitrary expressions and arbitrary
//!   bit patterns;
//! * on truth-table inputs built with `row_bit_pattern` (2..=8
//!   variables), every row must match a scalar width-1 evaluation, and
//!   rows past `2^t` must echo with period `2^t` — the partial-block
//!   property the synthesis signature masking relies on;
//! * the low bit of a scalar evaluation at any width (1, 7, 8, 63, 64)
//!   must match the corresponding wide row, because bit 0 of modular
//!   arithmetic never sees a carry.

use mba_expr::{row_bit_pattern, BinOp, EvalProgram, Expr, UnOp, Valuation, WIDE_LANES};
use proptest::prelude::*;

/// Strategy generating arbitrary MBA expressions over up to 8
/// variables, so wide passes are exercised at every truth-table size
/// the synthesis tier uses (`t = 2..=8` plus degenerate smaller sets).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-64i128..=64).prop_map(Expr::Const),
        prop_oneof![
            Just("a"),
            Just("b"),
            Just("c"),
            Just("d"),
            Just("e"),
            Just("f"),
            Just("g"),
            Just("h"),
        ]
        .prop_map(Expr::var),
    ];
    leaf.prop_recursive(6, 64, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop())
                .prop_map(|(a, b, op)| Expr::binary(op, a, b)),
            (inner, arb_unop()).prop_map(|(e, op)| Expr::unary(op, e)),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

fn arb_unop() -> impl Strategy<Value = UnOp> {
    prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)]
}

/// Truth-table input blocks for `t` variables, MSB-first (variable `j`
/// of `t` drives row-index bit `t − 1 − j`), exactly as the synthesis
/// signature extraction binds them.
fn truth_table_blocks(t: usize) -> Vec<[u64; WIDE_LANES]> {
    (0..t)
        .map(|j| {
            let p = (t - 1 - j) as u32;
            let mut block = [0u64; WIDE_LANES];
            for (w, word) in block.iter_mut().enumerate() {
                *word = row_bit_pattern(p, w);
            }
            block
        })
        .collect()
}

proptest! {
    /// Word `w` of one wide pass equals a narrow `eval_bits` pass over
    /// the `w`-th column of words, for arbitrary inputs.
    #[test]
    fn wide_equals_narrow_on_random_words(
        e in arb_expr(),
        words in prop::collection::vec(any::<u64>(), 8 * WIDE_LANES),
    ) {
        let program = EvalProgram::compile(&e);
        let t = program.vars().len();
        let blocks: Vec<[u64; WIDE_LANES]> = (0..t)
            .map(|j| {
                let mut block = [0u64; WIDE_LANES];
                for (w, word) in block.iter_mut().enumerate() {
                    *word = words[j * WIDE_LANES + w];
                }
                block
            })
            .collect();
        let wide = program.eval_bits_wide(&blocks);
        for w in 0..WIDE_LANES {
            let column: Vec<u64> = blocks.iter().map(|b| b[w]).collect();
            prop_assert_eq!(
                wide[w],
                program.eval_bits(&column),
                "word {} of `{}`", w, e
            );
        }
    }

    /// On truth-table inputs every wide row matches a scalar width-1
    /// evaluation, and rows past `2^t` echo with period `2^t` (the
    /// partial-block property the signature masking depends on).
    #[test]
    fn wide_truth_table_rows_match_scalar_width1(e in arb_expr()) {
        let program = EvalProgram::compile(&e);
        let t = program.vars().len();
        let blocks = truth_table_blocks(t);
        let wide = program.eval_bits_wide(&blocks);
        let rows = 1usize << t;
        let bit = |r: usize| (wide[r / 64] >> (r % 64)) & 1;
        for r in 0..rows.min(256) {
            let v: Valuation = program
                .vars()
                .iter()
                .enumerate()
                .map(|(j, name)| (name.clone(), ((r >> (t - 1 - j)) & 1) as u64))
                .collect();
            prop_assert_eq!(
                bit(r),
                e.eval(&v, 1),
                "row {} of `{}` (t = {})", r, e, t
            );
        }
        // Partial blocks: everything past the table proper is an echo.
        for r in rows..256 {
            prop_assert_eq!(bit(r), bit(r % rows), "echo row {} of `{}`", r, e);
        }
    }

    /// Bit 0 of a scalar evaluation is width-independent (no carry
    /// reaches down), so a wide row predicts the low bit of the full
    /// evaluation at every width the pipeline uses.
    #[test]
    fn wide_rows_predict_low_bit_at_every_width(
        e in arb_expr(),
        words in prop::collection::vec(any::<u64>(), 8),
    ) {
        let program = EvalProgram::compile(&e);
        let t = program.vars().len();
        let blocks: Vec<[u64; WIDE_LANES]> = (0..t)
            .map(|j| [words[j] & 1; WIDE_LANES])
            .collect();
        let wide = program.eval_bits_wide(&blocks);
        let v: Valuation = program
            .vars()
            .iter()
            .enumerate()
            .map(|(j, name)| (name.clone(), words[j]))
            .collect();
        for width in [1u32, 7, 8, 63, 64] {
            prop_assert_eq!(
                wide[0] & 1,
                e.eval(&v, width) & 1,
                "`{}` at width {}", e, width
            );
        }
    }
}
