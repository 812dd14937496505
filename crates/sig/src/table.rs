//! The pre-computed simplification table of paper §4.4 (Table 5) and its
//! generalization.
//!
//! The table maps every 0/1 signature vector (i.e. every boolean function
//! used as a bitwise sub-expression) to its normalized MBA expression in
//! the `{x, y, x∧y, −1}` basis. MBA-Solver consults it to rewrite the
//! bitwise factors of non-linear MBA into low-alternation form.

use mba_expr::{Expr, Ident};

use crate::signature::SignatureVector;
use crate::truth::TruthTable;

/// Maximum variable count for full-table enumeration (`2^(2^4) = 65536`
/// boolean functions at four variables; five would need `2^32`).
pub const MAX_ENUMERATED_VARS: usize = 4;

/// One row of a simplification table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    /// The 0/1 signature vector (a truth-table column).
    pub signature: SignatureVector,
    /// The normalized MBA expression with that signature.
    pub expression: Expr,
}

/// Enumerates the normalized expression for every boolean function over
/// `vars` — the generalization of Table 5 to any supported variable
/// count.
///
/// Rows are ordered by truth-table bitmask.
///
/// # Panics
///
/// Panics if `vars` is empty or longer than [`MAX_ENUMERATED_VARS`].
pub fn precomputed_table(vars: &[Ident]) -> Vec<TableRow> {
    assert!(
        (1..=MAX_ENUMERATED_VARS).contains(&vars.len()),
        "table supports 1..={MAX_ENUMERATED_VARS} variables"
    );
    let rows = 1usize << vars.len();
    let masks = 1u64 << rows;
    (0..masks)
        .map(|mask| {
            let tt = TruthTable::from_bits(vars.len(), mask);
            let signature = SignatureVector::from_truth_table(&tt);
            let expression = signature.to_normalized_expr(vars);
            TableRow {
                signature,
                expression,
            }
        })
        .collect()
}

/// The paper's Table 5: the two-variable table over `x`, `y`.
pub fn two_variable_table() -> Vec<TableRow> {
    precomputed_table(&[Ident::new("x"), Ident::new("y")])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    /// Finds the row whose signature is `sig` (given in paper row order).
    fn lookup(table: &[TableRow], sig: [i128; 4]) -> &TableRow {
        table
            .iter()
            .find(|row| row.signature.components() == sig)
            .expect("signature present")
    }

    #[test]
    fn reproduces_paper_table_5_exactly() {
        let table = two_variable_table();
        assert_eq!(table.len(), 16);
        // (signature, expected normalized MBA) — all 16 rows of Table 5.
        let expected: &[([i128; 4], &str)] = &[
            // Base vectors.
            ([0, 0, 1, 1], "x"),
            ([0, 1, 0, 1], "y"),
            ([0, 0, 0, 1], "x&y"),
            ([1, 1, 1, 1], "-1"),
            // Derivative rows.
            ([0, 0, 0, 0], "0"),
            ([0, 0, 1, 0], "x-(x&y)"),
            ([0, 1, 0, 0], "y-(x&y)"),
            ([0, 1, 1, 0], "x+y-2*(x&y)"),
            ([0, 1, 1, 1], "x+y-(x&y)"),
            ([1, 0, 0, 0], "-x-y+(x&y)-1"),
            ([1, 0, 0, 1], "-x-y+2*(x&y)-1"),
            ([1, 0, 1, 0], "-y-1"),
            ([1, 0, 1, 1], "-y+(x&y)-1"),
            ([1, 1, 0, 0], "-x-1"),
            ([1, 1, 0, 1], "-x+(x&y)-1"),
            ([1, 1, 1, 0], "-(x&y)-1"),
        ];
        for &(sig, text) in expected {
            let row = lookup(&table, sig);
            assert_eq!(
                row.expression.to_string(),
                text,
                "signature {:?} produced a different normalized form",
                sig
            );
        }
    }

    #[test]
    fn table_rows_are_semantically_faithful() {
        // Each row's expression, evaluated bitwise, matches its signature
        // interpreted as a boolean function on every input.
        let table = two_variable_table();
        for row in &table {
            for (x, y) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                let v = Valuation::new().with("x", x).with("y", y);
                let idx = (x << 1 | y) as usize;
                let want = row.signature.components()[idx] as u64 & 1;
                assert_eq!(
                    row.expression.eval(&v, 1),
                    want,
                    "row {} mismatches at ({x},{y})",
                    row.signature
                );
            }
        }
    }

    #[test]
    fn normalized_forms_use_only_the_and_basis() {
        // No ∨, ⊕ or ¬ may appear: alternation stays minimal.
        let table = two_variable_table();
        for row in &table {
            let text = row.expression.to_string();
            assert!(
                !text.contains('|') && !text.contains('^') && !text.contains('~'),
                "row {} leaked a non-basis operator: {text}",
                row.signature
            );
        }
    }

    #[test]
    fn one_variable_table() {
        let table = precomputed_table(&[Ident::new("x")]);
        let texts: Vec<String> = table.iter().map(|r| r.expression.to_string()).collect();
        // Masks 0b00, 0b01, 0b10, 0b11 → 0, ¬x = −x−1, x, −1.
        assert_eq!(texts, ["0", "-x-1", "x", "-1"]);
    }

    #[test]
    fn three_variable_table_has_256_rows() {
        let vars = [Ident::new("x"), Ident::new("y"), Ident::new("z")];
        let table = precomputed_table(&vars);
        assert_eq!(table.len(), 256);
        // Spot check: the signature of x∧y∧z is the single-row column.
        let last = table
            .iter()
            .find(|r| r.signature.components() == [0, 0, 0, 0, 0, 0, 0, 1])
            .unwrap();
        assert_eq!(last.expression.to_string(), "x&y&z");
    }
}
