//! Minimal bitwise expressions for every boolean function of up to three
//! variables.
//!
//! The final-step optimization (§4.5) replaces a signature that equals a
//! scaled truth-table column with a *single* bitwise expression — e.g.
//! `x + y − 2(x∧y)` folds to `x ⊕ y`. That requires mapping an arbitrary
//! truth table to its smallest `{∧, ∨, ⊕, ¬}` expression. This module
//! enumerates all `2^(2^t)` boolean functions (for `t ≤ 3`) breadth-first
//! by expression size and memoizes the results process-wide.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use mba_expr::{BinOp, Expr, Ident, UnOp};

use crate::truth::TruthTable;

/// Maximum variable count the catalog enumerates. `2^(2^3) = 256`
/// functions is instant; four variables (65 536 functions) would still be
/// feasible but is beyond what the final-step optimization needs in
/// practice, matching the paper's prototype.
pub const MAX_CATALOG_VARS: usize = 3;

/// A table of minimal bitwise expressions, one per boolean function of
/// `num_vars` variables.
///
/// ```
/// use mba_expr::Ident;
/// use mba_sig::{catalog::Catalog, TruthTable};
/// let vars = [Ident::new("x"), Ident::new("y")];
/// let catalog = Catalog::build(&vars);
/// let xor = TruthTable::from_bits(2, 0b0110);
/// assert_eq!(catalog.minimal_expr(&xor).unwrap().to_string(), "x^y");
/// ```
#[derive(Debug, Clone)]
pub struct Catalog {
    num_vars: usize,
    /// Indexed by truth-table bitmask; `num_vars ≤ 3` keeps this ≤ 256.
    exprs: Vec<Option<Expr>>,
    costs: Vec<usize>,
}

impl Catalog {
    /// Enumerates minimal expressions for all boolean functions over
    /// `vars`.
    ///
    /// Cost is measured in AST nodes; ties resolve to whichever
    /// expression the search reaches first, which prefers `∧ ∨ ⊕` over
    /// nested negations.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is empty or has more than
    /// [`MAX_CATALOG_VARS`] entries.
    pub fn build(vars: &[Ident]) -> Catalog {
        assert!(
            (1..=MAX_CATALOG_VARS).contains(&vars.len()),
            "catalog supports 1..={MAX_CATALOG_VARS} variables"
        );
        let t = vars.len();
        let num_rows = 1usize << t;
        let num_funcs = 1usize << num_rows;
        let full_mask = if num_rows == 64 {
            u64::MAX
        } else {
            (1u64 << num_rows) - 1
        };

        let mut exprs: Vec<Option<Expr>> = vec![None; num_funcs];
        let mut costs: Vec<usize> = vec![usize::MAX; num_funcs];
        // by_cost[c] lists the function masks first reached at cost c.
        let mut by_cost: Vec<Vec<u64>> = vec![Vec::new(); 2];

        let insert = |mask: u64,
                      cost: usize,
                      expr: Expr,
                      exprs: &mut Vec<Option<Expr>>,
                      costs: &mut Vec<usize>,
                      by_cost: &mut Vec<Vec<u64>>|
         -> bool {
            let idx = mask as usize;
            if costs[idx] <= cost {
                return false;
            }
            costs[idx] = cost;
            exprs[idx] = Some(expr);
            if by_cost.len() <= cost {
                by_cost.resize(cost + 1, Vec::new());
            }
            by_cost[cost].push(mask);
            true
        };

        // Seeds: variables, and the bit-uniform constants 0 and -1.
        for (j, v) in vars.iter().enumerate() {
            let mut mask = 0u64;
            for r in 0..num_rows {
                if r & (1 << (t - 1 - j)) != 0 {
                    mask |= 1 << r;
                }
            }
            insert(
                mask,
                1,
                Expr::var(v.clone()),
                &mut exprs,
                &mut costs,
                &mut by_cost,
            );
        }
        insert(0, 1, Expr::zero(), &mut exprs, &mut costs, &mut by_cost);
        insert(
            full_mask,
            1,
            Expr::minus_one(),
            &mut exprs,
            &mut costs,
            &mut by_cost,
        );

        let mut found = by_cost.iter().map(Vec::len).sum::<usize>();
        let mut cost = 2;
        // Node-count cap: every 3-variable function is reachable well
        // under 20 nodes; the cap guards against an infinite loop if the
        // grammar were ever restricted.
        while found < num_funcs && cost <= 24 {
            if by_cost.len() <= cost {
                by_cost.resize(cost + 1, Vec::new());
            }
            // Unary: ¬e with e of cost-1.
            let from: Vec<u64> = by_cost[cost - 1].clone();
            for mask in from {
                let inner = exprs[mask as usize].clone().expect("present");
                if insert(
                    !mask & full_mask,
                    cost,
                    Expr::unary(UnOp::Not, inner),
                    &mut exprs,
                    &mut costs,
                    &mut by_cost,
                ) {
                    found += 1;
                }
            }
            // Binary: cost = a + b + 1.
            for ca in 1..cost - 1 {
                let cb = cost - 1 - ca;
                if cb < ca {
                    break;
                }
                let left: Vec<u64> = by_cost[ca].clone();
                let right: Vec<u64> = by_cost[cb].clone();
                for &ma in &left {
                    for &mb in &right {
                        let ea = exprs[ma as usize].clone().expect("present");
                        let eb = exprs[mb as usize].clone().expect("present");
                        for (op, mask) in [
                            (BinOp::And, ma & mb),
                            (BinOp::Or, ma | mb),
                            (BinOp::Xor, ma ^ mb),
                        ] {
                            if costs[mask as usize] > cost
                                && insert(
                                    mask,
                                    cost,
                                    Expr::binary(op, ea.clone(), eb.clone()),
                                    &mut exprs,
                                    &mut costs,
                                    &mut by_cost,
                                )
                            {
                                found += 1;
                            }
                        }
                    }
                }
            }
            cost += 1;
        }

        Catalog {
            num_vars: t,
            exprs,
            costs,
        }
    }

    /// Number of variables this catalog covers.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The minimal expression realizing the boolean function of `tt`, or
    /// `None` when `tt` is over a different variable count.
    pub fn minimal_expr(&self, tt: &TruthTable) -> Option<&Expr> {
        if tt.num_vars() != self.num_vars {
            return None;
        }
        self.exprs[tt.bits() as usize].as_ref()
    }

    /// The node count of the minimal expression for `tt`.
    pub fn cost(&self, tt: &TruthTable) -> Option<usize> {
        if tt.num_vars() != self.num_vars {
            return None;
        }
        let c = self.costs[tt.bits() as usize];
        (c != usize::MAX).then_some(c)
    }
}

/// Returns the process-wide shared catalog for the given variable order,
/// building it on first use. Returns `None` when the variable count is
/// outside `1..=MAX_CATALOG_VARS`.
pub fn shared(vars: &[Ident]) -> Option<Arc<Catalog>> {
    if !(1..=MAX_CATALOG_VARS).contains(&vars.len()) {
        return None;
    }
    static CACHE: Mutex<Option<HashMap<Vec<String>, Arc<Catalog>>>> = Mutex::new(None);
    let key: Vec<String> = vars.iter().map(|v| v.as_str().to_owned()).collect();
    // A panicking build inserts nothing, so the map stays valid.
    let mut guard = CACHE.lock().unwrap_or_else(PoisonError::into_inner);
    let map = guard.get_or_insert_with(HashMap::new);
    Some(Arc::clone(
        map.entry(key)
            .or_insert_with(|| Arc::new(Catalog::build(vars))),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mba_expr::Valuation;

    fn vars2() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y")]
    }

    fn vars3() -> Vec<Ident> {
        vec![Ident::new("x"), Ident::new("y"), Ident::new("z")]
    }

    #[test]
    fn covers_all_two_variable_functions() {
        let c = Catalog::build(&vars2());
        for mask in 0u64..16 {
            let tt = TruthTable::from_bits(2, mask);
            assert!(
                c.minimal_expr(&tt).is_some(),
                "missing function {mask:#06b}"
            );
        }
    }

    #[test]
    fn covers_all_three_variable_functions() {
        let c = Catalog::build(&vars3());
        for mask in 0u64..256 {
            let tt = TruthTable::from_bits(3, mask);
            assert!(
                c.minimal_expr(&tt).is_some(),
                "missing function {mask:#010b}"
            );
        }
    }

    #[test]
    fn catalog_entries_have_the_right_truth_table() {
        let vars = vars3();
        let c = Catalog::build(&vars);
        for mask in 0u64..256 {
            let tt = TruthTable::from_bits(3, mask);
            let e = c.minimal_expr(&tt).unwrap();
            assert_eq!(
                TruthTable::of(e, &vars).unwrap(),
                tt,
                "wrong table for {}",
                e
            );
        }
    }

    #[test]
    fn common_functions_get_their_canonical_forms() {
        let c = Catalog::build(&vars2());
        let cases: &[(u64, usize)] = &[
            (0b0110, 3), // x^y: one binary op
            (0b1000, 3), // x&y
            (0b1110, 3), // x|y
            (0b0011, 2), // ~y? rows 00,01 true => x=0 => ~x
            (0b1001, 4), // xnor: ~(x^y) or x^~y
        ];
        for &(mask, max_cost) in cases {
            let tt = TruthTable::from_bits(2, mask);
            let cost = c.cost(&tt).unwrap();
            assert!(
                cost <= max_cost,
                "function {mask:#06b} got cost {cost}, expected <= {max_cost} ({})",
                c.minimal_expr(&tt).unwrap()
            );
        }
    }

    #[test]
    fn costs_are_consistent_with_node_count() {
        let c = Catalog::build(&vars2());
        for mask in 0u64..16 {
            let tt = TruthTable::from_bits(2, mask);
            assert_eq!(
                c.cost(&tt).unwrap(),
                c.minimal_expr(&tt).unwrap().node_count()
            );
        }
    }

    #[test]
    fn entries_are_minimal_among_random_equivalents() {
        // The BFS guarantees minimality by construction; sanity-check a
        // couple of hand cases: nothing of 2 nodes computes xor.
        let c = Catalog::build(&vars2());
        let xor = TruthTable::from_bits(2, 0b0110);
        assert_eq!(c.cost(&xor).unwrap(), 3);
    }

    #[test]
    fn shared_caches_by_variable_names() {
        let a = shared(&vars2()).unwrap();
        let b = shared(&vars2()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let other = shared(&[Ident::new("p"), Ident::new("q")]).unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
        assert!(shared(&[]).is_none());
    }

    #[test]
    fn minimal_exprs_evaluate_like_their_function() {
        let vars = vars2();
        let c = Catalog::build(&vars);
        for mask in 0u64..16 {
            let tt = TruthTable::from_bits(2, mask);
            let e = c.minimal_expr(&tt).unwrap();
            for (x, y) in [(0u64, 0u64), (0, 1), (1, 0), (1, 1)] {
                let v = Valuation::new().with("x", x).with("y", y);
                let row = (x << 1 | y) as usize;
                assert_eq!(e.eval(&v, 1) == 1, tt.row(row), "{e} row {row}");
            }
        }
    }
}
