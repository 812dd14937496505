//! Width-64 evaluation audit (ISSUE satellite).
//!
//! The evaluator's masking has a special case at width 64 — `mask`
//! must not compute `1u64 << 64` (which would overflow/panic in debug
//! and wrap to a zero mask in release, silently zeroing every result).
//! These tests pin that boundary, the i128 → u64 constant truncation,
//! and two's-complement wrapping at the top of the `u64` range.

use mba_expr::{mask, Expr, Valuation};

fn v(pairs: &[(&str, u64)]) -> Valuation {
    pairs.iter().map(|&(n, x)| (n.into(), x)).collect()
}

fn eval(src: &str, vals: &[(&str, u64)], width: u32) -> u64 {
    src.parse::<Expr>().unwrap().eval(&v(vals), width)
}

#[test]
fn mask_width_64_is_the_identity() {
    // The `1u64 << 64` trap: a naive mask would be 0 here.
    assert_eq!(mask(u64::MAX, 64), u64::MAX);
    assert_eq!(mask(0, 64), 0);
    assert_eq!(mask(0x8000_0000_0000_0000, 64), 0x8000_0000_0000_0000);
}

#[test]
fn mask_width_63_drops_exactly_the_top_bit() {
    assert_eq!(mask(u64::MAX, 63), u64::MAX >> 1);
    assert_eq!(mask(1u64 << 63, 63), 0);
    assert_eq!(mask((1u64 << 63) | 5, 63), 5);
}

#[test]
fn mask_width_1_keeps_only_the_low_bit() {
    assert_eq!(mask(u64::MAX, 1), 1);
    assert_eq!(mask(2, 1), 0);
}

#[test]
#[should_panic(expected = "width must be in 1..=64")]
fn width_65_is_rejected_not_wrapped() {
    let e: Expr = "x".parse().unwrap();
    e.eval(&Valuation::new(), 65);
}

#[test]
fn width64_addition_wraps_at_2_pow_64() {
    assert_eq!(eval("x + 1", &[("x", u64::MAX)], 64), 0);
    assert_eq!(
        eval("x + y", &[("x", u64::MAX), ("y", u64::MAX)], 64),
        u64::MAX - 1
    );
}

#[test]
fn width64_multiplication_wraps() {
    // (2^32 + 1)^2 = 2^64 + 2^33 + 1 ≡ 2^33 + 1 (mod 2^64).
    let x = (1u64 << 32) + 1;
    assert_eq!(eval("x * x", &[("x", x)], 64), (1u64 << 33) + 1);
    assert_eq!(eval("x * x", &[("x", 1u64 << 32)], 64), 0);
}

#[test]
fn width64_negation_is_twos_complement() {
    assert_eq!(eval("-x", &[("x", 1)], 64), u64::MAX);
    assert_eq!(eval("-x", &[("x", u64::MAX)], 64), 1);
    assert_eq!(eval("-x", &[("x", 0)], 64), 0);
    // The width-64 "INT_MIN": its negation is itself.
    let min = 1u64 << 63;
    assert_eq!(eval("-x", &[("x", min)], 64), min);
}

#[test]
fn negative_constants_truncate_to_all_ones_at_every_width() {
    for width in [1, 7, 8, 31, 32, 63, 64] {
        assert_eq!(
            eval("0 - 1", &[], width),
            mask(u64::MAX, width),
            "width {width}"
        );
        assert_eq!(
            eval("-1", &[], width),
            mask(u64::MAX, width),
            "width {width}"
        );
    }
}

#[test]
fn i128_constants_truncate_modulo_2_pow_64() {
    // 2^64 ≡ 0, 2^64 + 7 ≡ 7, -(2^64) ≡ 0: the i128 → u64 cast is the
    // reduction mod 2^64 and must commute with arithmetic.
    let e = Expr::Const(1i128 << 64);
    assert_eq!(e.eval(&Valuation::new(), 64), 0);
    let e = Expr::Const((1i128 << 64) + 7);
    assert_eq!(e.eval(&Valuation::new(), 64), 7);
    let e = Expr::Const(-(1i128 << 64));
    assert_eq!(e.eval(&Valuation::new(), 64), 0);
    // i128::MIN = -(2^127) ≡ 0 mod 2^64 — the extreme cast case.
    let e = Expr::Const(i128::MIN);
    assert_eq!(e.eval(&Valuation::new(), 64), 0);
    // i128::MAX = 2^127 - 1 ≡ 2^64 - 1 mod 2^64.
    let e = Expr::Const(i128::MAX);
    assert_eq!(e.eval(&Valuation::new(), 64), u64::MAX);
}

#[test]
fn not_at_width64_flips_all_64_bits() {
    assert_eq!(eval("~x", &[("x", 0)], 64), u64::MAX);
    assert_eq!(
        eval("~x", &[("x", 0x5555_5555_5555_5555)], 64),
        0xaaaa_aaaa_aaaa_aaaa
    );
}

#[test]
fn mba_identities_hold_at_the_width64_boundary() {
    // x + y == (x|y) + (x&y) and ~(x-1) == -x, at the values where
    // 64-bit carries actually occur.
    let corner = [
        0u64,
        1,
        u64::MAX,
        u64::MAX - 1,
        1u64 << 63,
        (1u64 << 63) - 1,
    ];
    for &x in &corner {
        for &y in &corner {
            let vals = [("x", x), ("y", y)];
            assert_eq!(
                eval("x + y", &vals, 64),
                eval("(x|y) + (x&y)", &vals, 64),
                "x={x} y={y}"
            );
            assert_eq!(eval("~(x - 1)", &vals, 64), eval("-x", &vals, 64), "x={x}");
        }
    }
}

#[test]
fn unbound_variables_read_zero_at_width64() {
    assert_eq!(eval("x + ghost", &[("x", 5)], 64), 5);
}

#[test]
fn valuation_values_are_masked_at_use_width() {
    // A valuation built for 64-bit reuse at width 8 must reduce values
    // mod 2^8, not reject or misread them.
    assert_eq!(eval("x", &[("x", 0x1ff)], 8), 0xff);
    assert_eq!(eval("x + 1", &[("x", 0x1ff)], 8), 0);
}
