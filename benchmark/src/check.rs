//! The output checker: every output is evaluated against its input and,
//! when the generator knows it, its ground truth, at widths 8 and 64 on
//! fixed valuations. It is independent of the simplifier: it only uses
//! `Expr::eval`.

use std::collections::BTreeSet;

use mba_expr::{Expr, Ident, Valuation};

use crate::inputs::Input;

/// Valuations per check. Each differs from the next in every variable.
const POINTS: u64 = 6;
const WIDTHS: [u32; 2] = [8, 64];

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The value of `var` at point `k`: a function of the name, so the
/// same variable reads the same in every expression checked.
fn value(var: &Ident, k: u64) -> u64 {
    let name = var.as_str().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    mix(name ^ (k + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Whether `a` and `b` agree at every check point and width.
pub fn agrees(a: &Expr, b: &Expr) -> bool {
    let vars: BTreeSet<Ident> = a.vars().into_iter().chain(b.vars()).collect();
    (0..POINTS).all(|k| {
        let v: Valuation = vars.iter().map(|n| (n.clone(), value(n, k))).collect();
        WIDTHS.iter().all(|&w| a.eval(&v, w) == b.eval(&v, w))
    })
}

/// Whether `output` is a correct answer for `input`: it agrees with the
/// input and with the known ground truth.
pub fn correct(input: &Expr, output: &Expr, truth: Option<&Expr>) -> bool {
    agrees(input, output) && truth.is_none_or(|t| agrees(t, output))
}

/// Whether the rendered `output` parses and is a correct answer for
/// `input`; `None` (no answer) never is.
pub fn right_answer(input: &Input, output: Option<&str>) -> bool {
    let Ok(e) = input.text.parse::<Expr>() else {
        return false;
    };
    output
        .and_then(|o| o.parse::<Expr>().ok())
        .is_some_and(|o| correct(&e, &o, input.truth.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: &str) -> Expr {
        s.parse().unwrap()
    }

    #[test]
    fn right_answers_pass() {
        let input = e("2*(x|y) - (~x&y) - (x&~y)");
        assert!(correct(&input, &e("x+y"), Some(&e("x + y"))));
        assert!(correct(&input, &e("y+x"), None));
    }

    #[test]
    fn wrong_answers_are_caught() {
        let input = e("2*(x|y) - (~x&y) - (x&~y)");
        // Equal on the low bit only.
        assert!(!correct(&input, &e("x^y"), None));
        // Carries differ.
        assert!(!correct(&input, &e("x|y"), None));
        assert!(!correct(&input, &e("x+y+1"), None));
        // Depends on a variable the input does not have.
        assert!(!correct(&input, &e("x+y+z-z*z"), None));
        // Right for the input, wrong for a (deliberately wrong) truth.
        assert!(!correct(&input, &e("x+y"), Some(&e("x-y"))));
    }

    #[test]
    fn rendered_answers_are_parsed_then_checked() {
        let input = Input {
            text: "2*(x|y) - (~x&y) - (x&~y)".into(),
            truth: Some(e("x+y")),
        };
        assert!(right_answer(&input, Some("y+x")));
        assert!(!right_answer(&input, Some("x^y")));
        assert!(!right_answer(&input, Some("x+")));
        assert!(!right_answer(&input, None));
    }

    #[test]
    fn width_64_catches_what_agrees_at_width_8() {
        // 256*x vanishes at width 8 but not at width 64.
        assert!(!agrees(&e("x"), &e("x + 256*x")));
    }
}
