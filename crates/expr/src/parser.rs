//! Recursive-descent parser for the concrete MBA syntax.
//!
//! The grammar follows the Python-style precedence used by the MBA corpora
//! in the literature (Eyrolles' datasets, the Syntia samples, and the
//! paper's own Figure 1 are all written against Python's `BitVec`
//! operators):
//!
//! ```text
//! or     := xor  ( '|' xor  )*          -- loosest
//! xor    := and  ( '^' and  )*
//! and    := sum  ( '&' sum  )*
//! sum    := prod ( ('+'|'-') prod )*
//! prod   := unary ( '*' unary )*
//! unary  := ('-' | '~')* atom           -- tightest
//! atom   := NUMBER | IDENT | '(' or ')'
//! ```
//!
//! so `x & y + 1` parses as `x & (y + 1)`, exactly as it would in Python.
//! Numbers may be decimal or hexadecimal (`0x1f`). Identifiers are
//! `[A-Za-z_][A-Za-z0-9_]*`.

use std::fmt;
use std::str::FromStr;

use crate::ast::{BinOp, Expr, UnOp};

/// An error produced when parsing an MBA expression.
///
/// Carries the byte offset of the offending token and a human-readable
/// description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExprError {
    position: usize,
    message: String,
}

impl ParseExprError {
    fn new(position: usize, message: impl Into<String>) -> Self {
        ParseExprError {
            position,
            message: message.into(),
        }
    }

    /// Byte offset in the input where the error occurred.
    pub fn position(&self) -> usize {
        self.position
    }
}

impl fmt::Display for ParseExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for ParseExprError {}

/// Parses an MBA expression from its textual form.
///
/// This is the function behind [`Expr`]'s [`FromStr`] impl; prefer
/// `input.parse::<Expr>()` in application code.
///
/// # Errors
///
/// Returns [`ParseExprError`] on empty input, unbalanced parentheses,
/// malformed numbers, or trailing garbage.
///
/// ```
/// use mba_expr::parse;
/// let e = parse("(x ^ y) + 2*(x & y)")?;
/// assert_eq!(e.to_string(), "(x^y)+2*(x&y)");
/// assert!(parse("x +").is_err());
/// # Ok::<(), mba_expr::ParseExprError>(())
/// ```
pub fn parse(input: &str) -> Result<Expr, ParseExprError> {
    let mut p = Parser::new(input);
    let e = p.parse_or()?;
    p.skip_ws();
    if p.pos < p.bytes.len() {
        return Err(ParseExprError::new(
            p.pos,
            format!("unexpected character `{}`", p.peek_char()),
        ));
    }
    Ok(e)
}

impl FromStr for Expr {
    type Err = ParseExprError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse(s)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_char(&self) -> char {
        self.bytes.get(self.pos).map(|&b| b as char).unwrap_or('?')
    }

    fn skip_ws(&mut self) {
        while matches!(
            self.peek(),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    /// Consumes `c` if it is the next non-whitespace byte.
    fn eat(&mut self, c: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_or(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.parse_xor()?;
        while self.eat(b'|') {
            let rhs = self.parse_xor()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_xor(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.parse_and()?;
        while self.eat(b'^') {
            let rhs = self.parse_and()?;
            lhs = Expr::binary(BinOp::Xor, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.parse_sum()?;
        while self.eat(b'&') {
            let rhs = self.parse_sum()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_sum(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.parse_prod()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'+') => {
                    self.pos += 1;
                    let rhs = self.parse_prod()?;
                    lhs = Expr::binary(BinOp::Add, lhs, rhs);
                }
                Some(b'-') => {
                    self.pos += 1;
                    let rhs = self.parse_prod()?;
                    lhs = Expr::binary(BinOp::Sub, lhs, rhs);
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn parse_prod(&mut self) -> Result<Expr, ParseExprError> {
        let mut lhs = self.parse_unary()?;
        while self.eat(b'*') {
            let rhs = self.parse_unary()?;
            lhs = Expr::binary(BinOp::Mul, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseExprError> {
        self.skip_ws();
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                let inner = self.parse_unary()?;
                // Fold `-CONST` into a negative literal so that
                // round-tripping preserves the tree shape.
                Ok(match inner {
                    Expr::Const(c) => Expr::Const(-c),
                    other => Expr::unary(UnOp::Neg, other),
                })
            }
            Some(b'~') => {
                self.pos += 1;
                let inner = self.parse_unary()?;
                Ok(Expr::unary(UnOp::Not, inner))
            }
            _ => self.parse_atom(),
        }
    }

    fn parse_atom(&mut self) -> Result<Expr, ParseExprError> {
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let inner = self.parse_or()?;
                if !self.eat(b')') {
                    return Err(ParseExprError::new(self.pos, "expected `)`"));
                }
                Ok(inner)
            }
            Some(b) if b.is_ascii_digit() => self.parse_number(),
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => self.parse_ident(),
            Some(_) => Err(ParseExprError::new(
                self.pos,
                format!("expected expression, found `{}`", self.peek_char()),
            )),
            None => Err(ParseExprError::new(self.pos, "unexpected end of input")),
        }
    }

    fn parse_number(&mut self) -> Result<Expr, ParseExprError> {
        let start = self.pos;
        let radix = if self.bytes[self.pos..].starts_with(b"0x")
            || self.bytes[self.pos..].starts_with(b"0X")
        {
            self.pos += 2;
            16
        } else {
            10
        };
        let digits_start = self.pos;
        while let Some(b) = self.peek() {
            if (b as char).is_digit(radix) || (radix == 16 && b.is_ascii_hexdigit()) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == digits_start {
            return Err(ParseExprError::new(start, "malformed number literal"));
        }
        let text = std::str::from_utf8(&self.bytes[digits_start..self.pos]).expect("ascii");
        let value = i128::from_str_radix(text, radix)
            .map_err(|e| ParseExprError::new(start, format!("number out of range: {e}")))?;
        Ok(Expr::Const(value))
    }

    fn parse_ident(&mut self) -> Result<Expr, ParseExprError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let name = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Ok(Expr::var(name))
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::Expr;

    fn roundtrip(src: &str) -> String {
        src.parse::<Expr>().unwrap().to_string()
    }

    #[test]
    fn parses_figure_1_example() {
        let e: Expr = "(x&~y)*(~x&y) + (x&y)*(x|y)".parse().unwrap();
        assert_eq!(e.to_string(), "(x&~y)*(~x&y)+(x&y)*(x|y)");
    }

    #[test]
    fn python_precedence_and_binds_looser_than_plus() {
        let e: Expr = "x & y + 1".parse().unwrap();
        assert_eq!(e, "x & (y + 1)".parse().unwrap());
    }

    #[test]
    fn precedence_chain_or_xor_and() {
        let e: Expr = "a | b ^ c & d".parse().unwrap();
        assert_eq!(e, "a | (b ^ (c & d))".parse().unwrap());
    }

    #[test]
    fn left_associativity_of_sub() {
        let e: Expr = "a - b - c".parse().unwrap();
        assert_eq!(e, "(a - b) - c".parse().unwrap());
    }

    #[test]
    fn unary_stacking() {
        assert_eq!(roundtrip("~~x"), "~~x");
        assert_eq!(roundtrip("-~x"), "-~x");
        assert_eq!(roundtrip("~-x"), "~-x");
    }

    #[test]
    fn negative_literal_folding() {
        assert_eq!("-5".parse::<Expr>().unwrap(), Expr::Const(-5));
        assert_eq!("--5".parse::<Expr>().unwrap(), Expr::Const(5));
    }

    #[test]
    fn hex_literals() {
        assert_eq!("0xff".parse::<Expr>().unwrap(), Expr::Const(255));
        assert_eq!("0X10".parse::<Expr>().unwrap(), Expr::Const(16));
    }

    #[test]
    fn identifiers_with_underscores_and_digits() {
        assert_eq!(roundtrip("foo_1 + _bar"), "foo_1+_bar");
    }

    #[test]
    fn error_on_trailing_garbage() {
        let err = "x + y )".parse::<Expr>().unwrap_err();
        assert!(err.to_string().contains(")"));
    }

    #[test]
    fn error_on_empty_input() {
        assert!("".parse::<Expr>().is_err());
        assert!("   ".parse::<Expr>().is_err());
    }

    #[test]
    fn error_on_unbalanced_parens() {
        assert!("(x + y".parse::<Expr>().is_err());
        assert!("x + (y *".parse::<Expr>().is_err());
    }

    #[test]
    fn error_positions_point_at_offender() {
        let err = "x @ y".parse::<Expr>().unwrap_err();
        assert_eq!(err.position(), 2);
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            " x\t+\n y ".parse::<Expr>().unwrap(),
            "x+y".parse::<Expr>().unwrap()
        );
    }
}
