//! SMT-LIB 2 emission.
//!
//! MBA-Solver is a *preprocessing pass*: its output should be consumable
//! by any production solver (paper Figure 5). This module serializes
//! expressions and equivalence queries into standard `QF_BV` SMT-LIB 2
//! scripts that Z3, STP, Boolector, Bitwuzla, cvc5, … accept verbatim.

use std::fmt::Write as _;

use mba_expr::{BinOp, Expr, UnOp};

/// Renders an expression as an SMT-LIB 2 bit-vector term of `width`
/// bits.
///
/// ```
/// use mba_smt::smtlib::to_term;
/// let e = "x + 2*(x & y)".parse().unwrap();
/// assert_eq!(
///     to_term(&e, 8),
///     "(bvadd x (bvmul #x02 (bvand x y)))"
/// );
/// ```
///
/// # Panics
///
/// Panics unless `1 ≤ width ≤ 64`.
pub fn to_term(e: &Expr, width: u32) -> String {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    let mut out = String::new();
    write_term(e, width, &mut out);
    out
}

fn write_term(e: &Expr, width: u32, out: &mut String) {
    match e {
        Expr::Const(c) => write_const(*c, width, out),
        Expr::Var(v) => out.push_str(v.as_str()),
        Expr::Unary(op, a) => {
            let name = match op {
                UnOp::Neg => "bvneg",
                UnOp::Not => "bvnot",
            };
            out.push('(');
            out.push_str(name);
            out.push(' ');
            write_term(a, width, out);
            out.push(')');
        }
        Expr::Binary(op, a, b) => {
            let name = match op {
                BinOp::Add => "bvadd",
                BinOp::Sub => "bvsub",
                BinOp::Mul => "bvmul",
                BinOp::And => "bvand",
                BinOp::Or => "bvor",
                BinOp::Xor => "bvxor",
            };
            out.push('(');
            out.push_str(name);
            out.push(' ');
            write_term(a, width, out);
            out.push(' ');
            write_term(b, width, out);
            out.push(')');
        }
    }
}

fn write_const(c: i128, width: u32, out: &mut String) {
    let masked = mba_expr::mask(c as u64, width);
    if width.is_multiple_of(4) {
        let digits = (width / 4) as usize;
        let _ = write!(out, "#x{masked:0digits$x}");
    } else {
        let digits = width as usize;
        let _ = write!(out, "#b{masked:0digits$b}");
    }
}

/// Builds a complete SMT-LIB 2 script asking whether `lhs == rhs` for
/// all `width`-bit inputs: `sat` means *not* equivalent (the model is a
/// counterexample), `unsat` means equivalent — the same miter convention
/// the paper's experiments use.
///
/// ```
/// use mba_smt::smtlib::equivalence_query;
/// let script = equivalence_query(
///     &"x + y".parse().unwrap(),
///     &"(x | y) + (x & y)".parse().unwrap(),
///     64,
/// );
/// assert!(script.contains("(set-logic QF_BV)"));
/// assert!(script.contains("(check-sat)"));
/// ```
///
/// # Panics
///
/// Panics unless `1 ≤ width ≤ 64`.
pub fn equivalence_query(lhs: &Expr, rhs: &Expr, width: u32) -> String {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    let mut script = String::new();
    script.push_str("(set-logic QF_BV)\n");
    let mut vars: Vec<_> = lhs.vars().into_iter().collect();
    for v in rhs.vars() {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.sort();
    for v in &vars {
        let _ = writeln!(script, "(declare-const {v} (_ BitVec {width}))");
    }
    let _ = writeln!(
        script,
        "(assert (distinct {} {}))",
        to_term(lhs, width),
        to_term(rhs, width)
    );
    script.push_str("(check-sat)\n");
    script
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terms_use_bv_operators() {
        let e: Expr = "~(x ^ y) - -z".parse().unwrap();
        assert_eq!(to_term(&e, 32), "(bvsub (bvnot (bvxor x y)) (bvneg z))");
    }

    #[test]
    fn constants_render_in_hex_when_width_is_nibble_aligned() {
        assert_eq!(to_term(&Expr::Const(255), 8), "#xff");
        assert_eq!(to_term(&Expr::Const(-1), 16), "#xffff");
        assert_eq!(to_term(&Expr::Const(10), 64), "#x000000000000000a");
    }

    #[test]
    fn constants_render_in_binary_otherwise() {
        assert_eq!(to_term(&Expr::Const(5), 3), "#b101");
        assert_eq!(to_term(&Expr::Const(-1), 5), "#b11111");
    }

    #[test]
    fn figure_1_script_shape() {
        let script = equivalence_query(
            &"x*y".parse().unwrap(),
            &"(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap(),
            64,
        );
        assert!(script.starts_with("(set-logic QF_BV)"));
        assert!(script.contains("(declare-const x (_ BitVec 64))"));
        assert!(script.contains("(declare-const y (_ BitVec 64))"));
        assert!(script.contains("(assert (distinct (bvmul x y)"));
        assert!(script.trim_end().ends_with("(check-sat)"));
        // Exactly two declarations: no duplicates.
        assert_eq!(script.matches("declare-const").count(), 2);
    }

    #[test]
    fn variables_from_both_sides_are_declared_once() {
        let script = equivalence_query(&"a + b".parse().unwrap(), &"b + c".parse().unwrap(), 8);
        for v in ["a", "b", "c"] {
            assert_eq!(script.matches(&format!("(declare-const {v} ")).count(), 1);
        }
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=64")]
    fn zero_width_panics() {
        to_term(&Expr::var("x"), 0);
    }
}
