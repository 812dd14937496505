//! Truth tables of pure bitwise expressions.
//!
//! MBA identities work bit-slice by bit-slice: a pure bitwise expression
//! over `t` variables is fully described by its value on the `2^t`
//! boolean assignments, and the integer value of the expression on `w`-bit
//! words is the per-bit application of that boolean function. This module
//! extracts those boolean vectors.
//!
//! **Row convention.** Rows are indexed `0 .. 2^t` and follow the paper's
//! tables: the *first* variable in the `vars` slice is the most
//! significant bit of the row index, so for `vars = [x, y]` the rows are
//! `(x,y) = (0,0), (0,1), (1,0), (1,1)`.

use std::fmt;

use mba_expr::program::row_bit_pattern;
use mba_expr::{EvalProgram, Expr, ExprArena, Ident, NodeId};

/// Error returned when a truth table is requested for an expression that
/// is not pure bitwise, or whose variables are not covered by the
/// requested variable order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotBitwiseError {
    detail: String,
}

impl fmt::Display for NotBitwiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression has no truth table: {}", self.detail)
    }
}

impl std::error::Error for NotBitwiseError {}

/// The truth table of a pure bitwise expression over an ordered variable
/// list.
///
/// ```
/// use mba_expr::{Expr, Ident};
/// use mba_sig::TruthTable;
///
/// let e: Expr = "x | ~y".parse().unwrap();
/// let vars = [Ident::new("x"), Ident::new("y")];
/// let tt = TruthTable::of(&e, &vars).unwrap();
/// // Rows (x,y) = 00, 01, 10, 11 — matching the paper's Example 1 column.
/// assert_eq!(tt.rows(), [true, false, true, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TruthTable {
    num_vars: usize,
    /// Row `r`'s boolean value lives in bit `r % 64` of block `r / 64`.
    blocks: Vec<u64>,
}

impl TruthTable {
    /// Maximum supported variable count (`2^12 = 4096` rows). The
    /// paper's prototype normalizes at most a handful of variables;
    /// block storage lifts that to 12 — expressions wider than this are
    /// kept opaque by the simplifier.
    pub const MAX_VARS: usize = 12;

    /// Variable count up to which the table fits one `u64` and
    /// [`TruthTable::bits`] / [`TruthTable::from_bits`] are available.
    pub const PACKED_MAX_VARS: usize = 6;

    /// Computes the truth table of `e` over `vars`, **bit-parallel**:
    /// the expression is compiled once to an [`EvalProgram`] tape and
    /// each tape pass computes 64 rows at once (each variable bound to
    /// the lane-packed pattern word of its row-index bit), so the cost
    /// is `ceil(2^t / 64)` passes instead of `2^t` tree walks.
    ///
    /// # Errors
    ///
    /// Fails if `e` is not pure bitwise, mentions a variable outside
    /// `vars`, or `vars` has more than [`TruthTable::MAX_VARS`] entries
    /// (or duplicates).
    pub fn of(e: &Expr, vars: &[Ident]) -> Result<TruthTable, NotBitwiseError> {
        Self::validate(e, vars)?;
        Ok(Self::of_program(&EvalProgram::compile(e), vars))
    }

    /// Computes the truth table of an arena-interned subtree — the
    /// id-level twin of [`TruthTable::of`], byte-identical to
    /// `TruthTable::of(&arena.extract(id), vars)` on every input.
    /// Preconditions are checked from the arena's precomputed metadata
    /// (O(1) purity, O(vars) variable set) and the tape is compiled
    /// straight off the node store
    /// ([`EvalProgram::compile_arena`]), so no `Box`-tree is
    /// materialized on the hot path.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`TruthTable::of`] fails on the extracted
    /// tree.
    pub fn of_arena(
        arena: &ExprArena,
        id: NodeId,
        vars: &[Ident],
    ) -> Result<TruthTable, NotBitwiseError> {
        Self::validate_arena(arena, id, vars)?;
        Ok(Self::of_program(
            &EvalProgram::compile_arena(arena, id),
            vars,
        ))
    }

    /// Shared table-building body of [`TruthTable::of`] and
    /// [`TruthTable::of_arena`]: runs a validated, compiled tape over
    /// every row block.
    fn of_program(program: &EvalProgram, vars: &[Ident]) -> TruthTable {
        let t = vars.len();
        let rows = 1usize << t;
        // Row-index bit position of each *program* variable slot: the
        // first variable in `vars` is the most significant bit (the
        // module-level row convention), and the program may use any
        // subset of `vars`.
        let positions: Vec<u32> = program
            .vars()
            .iter()
            .map(|v| {
                let j = vars.iter().position(|x| x == v).expect("validated above");
                (t - 1 - j) as u32
            })
            .collect();
        let mut words = vec![0u64; positions.len()];
        let mut blocks = vec![0u64; rows.div_ceil(64)];
        for (block, out) in blocks.iter_mut().enumerate() {
            for (word, &p) in words.iter_mut().zip(&positions) {
                *word = row_bit_pattern(p, block);
            }
            *out = program.eval_bits(&words);
        }
        if rows < 64 {
            // Lanes past the last row carry garbage; the table's Eq and
            // Hash read whole blocks, so mask them off.
            blocks[0] &= (1u64 << rows) - 1;
        }
        TruthTable {
            num_vars: t,
            blocks,
        }
    }

    /// The scalar reference implementation of [`TruthTable::of`]: one
    /// full tree walk per row under a per-row [`mba_expr::Valuation`].
    /// Kept as the differential-testing and benchmarking baseline for
    /// the bit-parallel path — `of` and `of_scalar` must agree on every
    /// input, byte for byte.
    ///
    /// # Errors
    ///
    /// Fails exactly when [`TruthTable::of`] fails.
    pub fn of_scalar(e: &Expr, vars: &[Ident]) -> Result<TruthTable, NotBitwiseError> {
        Self::validate(e, vars)?;
        let t = vars.len();
        let rows = 1usize << t;
        let mut blocks = vec![0u64; rows.div_ceil(64)];
        for row in 0..rows {
            let mut valuation = mba_expr::Valuation::new();
            for (j, var) in vars.iter().enumerate() {
                let bit = ((row >> (t - 1 - j)) & 1) as u64;
                valuation.set(var.clone(), bit);
            }
            if e.eval(&valuation, 1) == 1 {
                blocks[row / 64] |= 1 << (row % 64);
            }
        }
        Ok(TruthTable {
            num_vars: t,
            blocks,
        })
    }

    /// Shared precondition checks of [`TruthTable::of`] and
    /// [`TruthTable::of_scalar`].
    fn validate(e: &Expr, vars: &[Ident]) -> Result<(), NotBitwiseError> {
        if vars.len() > Self::MAX_VARS {
            return Err(NotBitwiseError {
                detail: format!(
                    "{} variables exceed the maximum of {}",
                    vars.len(),
                    Self::MAX_VARS
                ),
            });
        }
        for (i, v) in vars.iter().enumerate() {
            if vars[..i].contains(v) {
                return Err(NotBitwiseError {
                    detail: format!("duplicate variable `{v}` in order"),
                });
            }
        }
        if !e.is_pure_bitwise() {
            return Err(NotBitwiseError {
                detail: format!("`{e}` contains arithmetic operators or non-uniform constants"),
            });
        }
        if let Some(stray) = e.vars().iter().find(|v| !vars.contains(v)) {
            return Err(NotBitwiseError {
                detail: format!("variable `{stray}` not in the provided order"),
            });
        }
        Ok(())
    }

    /// Arena twin of [`TruthTable::validate`]: the same checks in the
    /// same order producing the same messages, but answered from the
    /// arena's precomputed metadata. The `Box`-tree is only rebuilt on
    /// the cold error path, where the message quotes the expression.
    fn validate_arena(
        arena: &ExprArena,
        id: NodeId,
        vars: &[Ident],
    ) -> Result<(), NotBitwiseError> {
        if vars.len() > Self::MAX_VARS {
            return Err(NotBitwiseError {
                detail: format!(
                    "{} variables exceed the maximum of {}",
                    vars.len(),
                    Self::MAX_VARS
                ),
            });
        }
        for (i, v) in vars.iter().enumerate() {
            if vars[..i].contains(v) {
                return Err(NotBitwiseError {
                    detail: format!("duplicate variable `{v}` in order"),
                });
            }
        }
        if !arena.is_pure_bitwise(id) {
            return Err(NotBitwiseError {
                detail: format!(
                    "`{}` contains arithmetic operators or non-uniform constants",
                    arena.extract(id)
                ),
            });
        }
        if let Some(stray) = arena.vars(id).iter().find(|v| !vars.contains(v)) {
            return Err(NotBitwiseError {
                detail: format!("variable `{stray}` not in the provided order"),
            });
        }
        Ok(())
    }

    /// Builds a truth table directly from a row bitmask (row `r` true iff
    /// bit `r` of `bits` is set). Only available for tables that fit one
    /// `u64` ([`TruthTable::PACKED_MAX_VARS`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > PACKED_MAX_VARS` or `bits` has bits set
    /// beyond row `2^num_vars - 1`.
    pub fn from_bits(num_vars: usize, bits: u64) -> TruthTable {
        assert!(num_vars <= Self::PACKED_MAX_VARS, "too many variables");
        let rows = 1u64 << num_vars;
        if rows < 64 {
            assert!(bits < (1u64 << rows), "bits outside table range");
        }
        TruthTable {
            num_vars,
            blocks: vec![bits],
        }
    }

    /// The raw row blocks backing the table (row `r` in bit `r % 64` of
    /// block `r / 64`) — the serialization counterpart of
    /// [`TruthTable::from_blocks`].
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// Rebuilds a table from `num_vars` and its raw row blocks — the
    /// inverse of [`TruthTable::blocks`], used by the cache snapshot
    /// loader. Unlike [`TruthTable::from_bits`] this covers the full
    /// [`TruthTable::MAX_VARS`] range.
    ///
    /// # Errors
    ///
    /// Rejects a variable count over the maximum, a block count that
    /// does not match `2^num_vars` rows, and set bits beyond the last
    /// row (which would break the table's `Eq`/`Hash` contract).
    pub fn from_blocks(num_vars: usize, blocks: Vec<u64>) -> Result<TruthTable, String> {
        if num_vars > Self::MAX_VARS {
            return Err(format!(
                "{num_vars} variables exceed the maximum of {}",
                Self::MAX_VARS
            ));
        }
        let rows = 1usize << num_vars;
        if blocks.len() != rows.div_ceil(64) {
            return Err(format!(
                "{} blocks do not hold exactly {rows} rows",
                blocks.len()
            ));
        }
        if rows < 64 && blocks[0] >= (1u64 << rows) {
            return Err("bits set beyond the last row".into());
        }
        Ok(TruthTable { num_vars, blocks })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of rows (`2^num_vars`).
    pub fn num_rows(&self) -> usize {
        1 << self.num_vars
    }

    /// The row bitmask (row `r` in bit `r`).
    ///
    /// # Panics
    ///
    /// Panics when the table has more than 64 rows; use
    /// [`TruthTable::row`] for wide tables.
    pub fn bits(&self) -> u64 {
        assert!(
            self.num_vars <= Self::PACKED_MAX_VARS,
            "table too wide for a packed bitmask"
        );
        self.blocks[0]
    }

    /// The boolean value at `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.num_rows()`.
    pub fn row(&self, row: usize) -> bool {
        assert!(row < self.num_rows(), "row out of range");
        (self.blocks[row / 64] >> (row % 64)) & 1 == 1
    }

    /// All rows as booleans, row 0 first.
    pub fn rows(&self) -> Vec<bool> {
        (0..self.num_rows()).map(|r| self.row(r)).collect()
    }

    /// The table as a 0/1 integer column — one column of the paper's
    /// matrix `M`.
    pub fn column(&self) -> Vec<i128> {
        (0..self.num_rows())
            .map(|r| i128::from(self.row(r)))
            .collect()
    }
}

impl fmt::Display for TruthTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<String> = self.column().iter().map(i128::to_string).collect();
        write!(f, "({})", rows.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars2() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y")]
    }

    fn tt(src: &str) -> TruthTable {
        TruthTable::of(&src.parse().unwrap(), &vars2()).unwrap()
    }

    #[test]
    fn basic_tables_match_paper_example_1() {
        assert_eq!(tt("x").column(), [0, 0, 1, 1]);
        assert_eq!(tt("y").column(), [0, 1, 0, 1]);
        assert_eq!(tt("x ^ y").column(), [0, 1, 1, 0]);
        assert_eq!(tt("x | ~y").column(), [1, 0, 1, 1]);
        assert_eq!(tt("-1").column(), [1, 1, 1, 1]);
    }

    #[test]
    fn table_3_base_vectors() {
        assert_eq!(tt("~x & ~y").column(), [1, 0, 0, 0]);
        assert_eq!(tt("~x & y").column(), [0, 1, 0, 0]);
        assert_eq!(tt("x & ~y").column(), [0, 0, 1, 0]);
        assert_eq!(tt("x & y").column(), [0, 0, 0, 1]);
    }

    #[test]
    fn constants() {
        assert_eq!(tt("0").column(), [0, 0, 0, 0]);
        assert_eq!(tt("x & 0").column(), [0, 0, 0, 0]);
        assert_eq!(tt("x | -1").column(), [1, 1, 1, 1]);
    }

    #[test]
    fn single_variable_table() {
        let vars = [Ident::new("x")];
        let t = TruthTable::of(&"~x".parse().unwrap(), &vars).unwrap();
        assert_eq!(t.column(), [1, 0]);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn three_variable_majority() {
        let vars = [Ident::new("x"), Ident::new("y"), Ident::new("z")];
        let e: Expr = "(x&y) | (y&z) | (x&z)".parse().unwrap();
        let t = TruthTable::of(&e, &vars).unwrap();
        // Rows xyz = 000,001,010,011,100,101,110,111.
        assert_eq!(t.column(), [0, 0, 0, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn rejects_arithmetic() {
        let err = TruthTable::of(&"x + y".parse().unwrap(), &vars2()).unwrap_err();
        assert!(err.to_string().contains("no truth table"));
        assert!(TruthTable::of(&"x & 3".parse().unwrap(), &vars2()).is_err());
    }

    #[test]
    fn rejects_stray_variable() {
        assert!(TruthTable::of(&"x & z".parse().unwrap(), &vars2()).is_err());
    }

    #[test]
    fn rejects_duplicate_vars() {
        let dup = [Ident::new("x"), Ident::new("x")];
        assert!(TruthTable::of(&"x".parse().unwrap(), &dup).is_err());
    }

    #[test]
    fn rejects_too_many_vars() {
        let many: Vec<Ident> = (0..13).map(|i| Ident::new(format!("v{i}"))).collect();
        assert!(TruthTable::of(&"v0".parse().unwrap(), &many).is_err());
    }

    #[test]
    fn wide_tables_use_block_storage() {
        // 8 variables: 256 rows, 4 blocks.
        let vars: Vec<Ident> = (0..8).map(|i| Ident::new(format!("v{i}"))).collect();
        let conj = vars[1..]
            .iter()
            .fold("v0".parse::<Expr>().unwrap(), |acc, v| {
                acc & Expr::var(v.clone())
            });
        let t = TruthTable::of(&conj, &vars).unwrap();
        assert_eq!(t.num_rows(), 256);
        // Only the all-ones row is true.
        assert!(t.row(255));
        assert_eq!((0..256).filter(|&r| t.row(r)).count(), 1);
        // Packed access must refuse.
        let result = std::panic::catch_unwind(|| t.bits());
        assert!(result.is_err());
    }

    #[test]
    fn bit_parallel_matches_scalar_reference() {
        // The bit-parallel path and the row-per-tree-walk reference must
        // be byte-identical, across packed (≤64 rows) and block (>64
        // rows) storage.
        let vars: Vec<Ident> = (0..7).map(|i| Ident::new(format!("v{i}"))).collect();
        let cases = [
            "v0",
            "~v0",
            "v0 & v1",
            "(v0 ^ v1) | ~(v2 & v3)",
            "((v0 | v1) & (v2 | v3)) ^ (v4 & ~v5)",
            "~(v0 ^ v1 ^ v2 ^ v3 ^ v4 ^ v5 ^ v6)",
            "(v0 & -1) | (v1 & 0)",
        ];
        for src in cases {
            let e: Expr = src.parse().unwrap();
            for t in [1, 2, 3, 6, 7] {
                if e.vars().len() > t {
                    continue;
                }
                let order = &vars[..t];
                let fast = TruthTable::of(&e, order).unwrap();
                let slow = TruthTable::of_scalar(&e, order).unwrap();
                assert_eq!(fast, slow, "{src} over {t} vars");
            }
        }
    }

    #[test]
    fn scalar_reference_rejects_what_of_rejects() {
        assert!(TruthTable::of_scalar(&"x + y".parse().unwrap(), &vars2()).is_err());
        assert!(TruthTable::of_scalar(&"x & z".parse().unwrap(), &vars2()).is_err());
    }

    #[test]
    fn of_arena_is_byte_identical_to_of() {
        let arena = ExprArena::new();
        let vars: Vec<Ident> = (0..7).map(|i| Ident::new(format!("v{i}"))).collect();
        for src in [
            "v0",
            "~v0",
            "v0 & v1",
            "(v0 ^ v1) | ~(v2 & v3)",
            "((v0 | v1) & (v2 | v3)) ^ (v4 & ~v5)",
            "(v0 & -1) | (v1 & 0)",
        ] {
            let e: Expr = src.parse().unwrap();
            let id = arena.intern(&e);
            for t in [1, 2, 4, 7] {
                if e.vars().len() > t {
                    continue;
                }
                let order = &vars[..t];
                assert_eq!(
                    TruthTable::of_arena(&arena, id, order).unwrap(),
                    TruthTable::of(&e, order).unwrap(),
                    "{src} over {t} vars"
                );
            }
        }
    }

    #[test]
    fn of_arena_rejects_what_of_rejects() {
        let arena = ExprArena::new();
        for src in ["x + y", "x & 3", "x & z"] {
            let e: Expr = src.parse().unwrap();
            let id = arena.intern(&e);
            let tree = TruthTable::of(&e, &vars2()).unwrap_err();
            let from_arena = TruthTable::of_arena(&arena, id, &vars2()).unwrap_err();
            assert_eq!(from_arena, tree, "error divergence for `{src}`");
        }
        let dup = [Ident::new("x"), Ident::new("x")];
        let id = arena.intern(&"x".parse().unwrap());
        assert!(TruthTable::of_arena(&arena, id, &dup).is_err());
    }

    #[test]
    fn blocks_roundtrip_through_from_blocks() {
        // Packed (4 rows) and block (256 rows) tables both survive the
        // serialization round-trip byte-identically.
        let small = tt("x ^ y");
        let again = TruthTable::from_blocks(2, small.blocks().to_vec()).unwrap();
        assert_eq!(small, again);
        let vars: Vec<Ident> = (0..8).map(|i| Ident::new(format!("v{i}"))).collect();
        let wide = TruthTable::of(&"v0 ^ v7".parse().unwrap(), &vars).unwrap();
        let again = TruthTable::from_blocks(8, wide.blocks().to_vec()).unwrap();
        assert_eq!(wide, again);
        // Structural validation refuses malformed inputs.
        assert!(TruthTable::from_blocks(13, vec![0; 64]).is_err());
        assert!(TruthTable::from_blocks(8, vec![0; 3]).is_err());
        assert!(TruthTable::from_blocks(2, vec![0b10000]).is_err());
    }

    #[test]
    fn from_bits_roundtrip() {
        let t = TruthTable::from_bits(2, 0b0110);
        assert_eq!(t.column(), [0, 1, 1, 0]);
        assert_eq!(t, tt("x ^ y"));
        assert_eq!(t.bits(), 0b0110);
    }

    #[test]
    #[should_panic(expected = "bits outside table range")]
    fn from_bits_rejects_extra_bits() {
        TruthTable::from_bits(1, 0b100);
    }

    #[test]
    fn display_shows_rows() {
        assert_eq!(tt("x & y").to_string(), "(0,0,0,1)");
    }
}
