//! Differential testing: the CDCL solver must agree with brute-force
//! enumeration on random small CNF formulas, and every `Sat` model must
//! satisfy the formula.

use mba_sat::{Lit, SolveResult, Solver};
use proptest::prelude::*;

type Cnf = Vec<Vec<(usize, bool)>>; // (var index, positive)

fn arb_cnf(max_vars: usize) -> impl Strategy<Value = (usize, Cnf)> {
    (2..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec((0..n, any::<bool>()), 1..=3);
        proptest::collection::vec(clause, 1..=24).prop_map(move |cnf| (n, cnf))
    })
}

fn brute_force_sat(n: usize, cnf: &Cnf) -> bool {
    (0u32..(1 << n)).any(|m| {
        cnf.iter()
            .all(|clause| clause.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos))
    })
}

fn run_solver(n: usize, cnf: &Cnf) -> (SolveResult, Solver, Vec<mba_sat::Var>) {
    run_solver_cfg(n, cnf, false)
}

fn run_solver_cfg(
    n: usize,
    cnf: &Cnf,
    preprocess: bool,
) -> (SolveResult, Solver, Vec<mba_sat::Var>) {
    let mut s = Solver::new();
    s.set_preprocessing(preprocess);
    let vars: Vec<_> = (0..n).map(|_| s.new_var()).collect();
    for clause in cnf {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, pos)| Lit::new(vars[v], pos))
            .collect();
        s.add_clause(&lits);
    }
    let r = s.solve();
    (r, s, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// CDCL agrees with brute force on every random instance.
    #[test]
    fn agrees_with_brute_force((n, cnf) in arb_cnf(8)) {
        let expected = brute_force_sat(n, &cnf);
        let (result, _, _) = run_solver(n, &cnf);
        let got = match result {
            SolveResult::Sat => true,
            SolveResult::Unsat => false,
            SolveResult::Unknown => return Err(TestCaseError::fail("unexpected Unknown")),
        };
        prop_assert_eq!(got, expected, "cnf = {:?}", cnf);
    }

    /// Every Sat verdict comes with a genuinely satisfying model.
    #[test]
    fn models_satisfy_the_formula((n, cnf) in arb_cnf(10)) {
        let (result, solver, vars) = run_solver(n, &cnf);
        if result == SolveResult::Sat {
            for clause in &cnf {
                let ok = clause.iter().any(|&(v, pos)| {
                    solver.value(vars[v]).expect("assigned") == pos
                });
                prop_assert!(ok, "model violates {:?}", clause);
            }
        }
    }

    /// Variable elimination preserves verdicts, and reconstructed
    /// models satisfy the *original* formula (eliminated clauses
    /// included).
    #[test]
    fn preprocessing_agrees_with_brute_force((n, cnf) in arb_cnf(8)) {
        let expected = brute_force_sat(n, &cnf);
        let (result, solver, vars) = run_solver_cfg(n, &cnf, true);
        match result {
            SolveResult::Sat => {
                prop_assert!(expected, "false Sat with preprocessing");
                for clause in &cnf {
                    let ok = clause.iter().any(|&(v, pos)| {
                        solver.value(vars[v]).expect("assigned") == pos
                    });
                    prop_assert!(ok, "reconstructed model violates {:?}", clause);
                }
            }
            SolveResult::Unsat => prop_assert!(!expected, "false Unsat with preprocessing"),
            SolveResult::Unknown =>
                return Err(TestCaseError::fail("unexpected Unknown")),
        }
    }
}
