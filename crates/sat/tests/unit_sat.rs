//! Deterministic unit tests for the CDCL core (ISSUE satellite):
//! hand-written SAT/UNSAT formulas with known answers, DIMACS
//! round-tripping, and the budget-exhaustion contract (`Unknown`,
//! never a wrong answer).

use mba_sat::{dimacs, Lit, SolveResult, Solver};

fn pos(v: u32) -> Lit {
    Lit::positive(v)
}

fn neg(v: u32) -> Lit {
    Lit::negative(v)
}

/// `(x ∨ y) ∧ (¬x ∨ y) ∧ (x ∨ ¬y)` forces `x = y = 1`.
#[test]
fn known_sat_formula_with_forced_model() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    s.add_clause(&[pos(x), pos(y)]);
    s.add_clause(&[neg(x), pos(y)]);
    s.add_clause(&[pos(x), neg(y)]);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(x), Some(true));
    assert_eq!(s.value(y), Some(true));
}

/// The full cube over {x, y}: all four sign combinations — classic
/// minimal UNSAT requiring one resolution step.
#[test]
fn known_unsat_all_sign_combinations() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    s.add_clause(&[pos(x), pos(y)]);
    s.add_clause(&[pos(x), neg(y)]);
    s.add_clause(&[neg(x), pos(y)]);
    s.add_clause(&[neg(x), neg(y)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// Contradictory unit clauses are UNSAT at clause-addition/propagation
/// time — no search required.
#[test]
fn contradictory_units_are_unsat() {
    let mut s = Solver::new();
    let x = s.new_var();
    s.add_clause(&[pos(x)]);
    s.add_clause(&[neg(x)]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// An empty clause makes the formula UNSAT regardless of anything else.
#[test]
fn empty_clause_is_unsat() {
    let mut s = Solver::new();
    let _ = s.new_var();
    assert!(!s.add_clause(&[]));
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// A formula with no clauses is trivially SAT.
#[test]
fn empty_formula_is_sat() {
    let mut s = Solver::new();
    let _ = s.new_var();
    assert_eq!(s.solve(), SolveResult::Sat);
}

/// A pigeonhole-style chain: x1 → x2 → ... → xn plus ¬xn and x1.
/// UNSAT by pure unit propagation over a long implication chain.
#[test]
fn implication_chain_unsat() {
    let mut s = Solver::new();
    let vars: Vec<_> = (0..32).map(|_| s.new_var()).collect();
    for w in vars.windows(2) {
        s.add_clause(&[neg(w[0]), pos(w[1])]);
    }
    s.add_clause(&[pos(vars[0])]);
    s.add_clause(&[neg(*vars.last().unwrap())]);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

/// PHP(3, 2): three pigeons, two holes, one resolution-hard-ish UNSAT
/// instance that needs actual conflict analysis (not just propagation).
fn pigeonhole_3_2() -> (Solver, Vec<u32>) {
    let mut s = Solver::new();
    // p[i][j] = pigeon i sits in hole j.
    let p: Vec<Vec<u32>> = (0..3)
        .map(|_| (0..2).map(|_| s.new_var()).collect())
        .collect();
    for row in &p {
        s.add_clause(&[pos(row[0]), pos(row[1])]); // every pigeon has a hole
    }
    for a in 0..3 {
        for b in (a + 1)..3 {
            for (&pa, &pb) in p[a].iter().zip(&p[b]) {
                s.add_clause(&[neg(pa), neg(pb)]); // holes hold one pigeon
            }
        }
    }
    let flat = p.into_iter().flatten().collect();
    (s, flat)
}

#[test]
fn pigeonhole_is_unsat() {
    let (mut s, _) = pigeonhole_3_2();
    assert_eq!(s.solve(), SolveResult::Unsat);
    assert!(s.stats().conflicts > 0, "PHP needs real conflicts");
}

/// Budget exhaustion must return `Unknown` — never Sat or Unsat — and
/// lifting the budget must then produce the real answer.
#[test]
fn conflict_budget_exhaustion_returns_unknown() {
    let (mut s, _) = pigeonhole_3_2();
    s.set_preprocessing(false);
    s.set_conflict_budget(Some(0));
    assert_eq!(s.solve(), SolveResult::Unknown);
    s.backtrack_to_root();
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
}

#[test]
fn propagation_budget_exhaustion_returns_unknown() {
    let (mut s, _) = pigeonhole_3_2();
    s.set_preprocessing(false);
    s.set_propagation_budget(Some(0));
    assert_eq!(s.solve(), SolveResult::Unknown);
}

#[test]
fn zero_timeout_returns_unknown() {
    let (mut s, _) = pigeonhole_3_2();
    s.set_preprocessing(false);
    s.set_timeout(Some(std::time::Duration::ZERO));
    assert_eq!(s.solve(), SolveResult::Unknown);
}

/// DIMACS serialization matches the spec byte-for-byte on a known
/// formula.
#[test]
fn dimacs_rendering_is_exact() {
    let clauses = vec![vec![pos(0), neg(1)], vec![neg(0), pos(1), pos(2)]];
    assert_eq!(
        dimacs::to_dimacs(3, &clauses),
        "p cnf 3 2\n1 -2 0\n-1 2 3 0\n"
    );
}

/// to_dimacs → parse round-trips: the reparsed solver agrees with the
/// original on satisfiability (both polarity conventions exercised).
#[test]
fn dimacs_roundtrip_preserves_satisfiability() {
    let sat_clauses = vec![
        vec![pos(0), pos(1)],
        vec![neg(0), pos(1)],
        vec![pos(0), neg(1)],
    ];
    let unsat_clauses = vec![
        vec![pos(0), pos(1)],
        vec![pos(0), neg(1)],
        vec![neg(0), pos(1)],
        vec![neg(0), neg(1)],
    ];
    for (clauses, expected) in [
        (sat_clauses, SolveResult::Sat),
        (unsat_clauses, SolveResult::Unsat),
    ] {
        let text = dimacs::to_dimacs(2, &clauses);
        let (mut reparsed, vars) = dimacs::parse(&text).expect("round-trip parses");
        assert_eq!(vars.len(), 2);
        assert_eq!(reparsed.solve(), expected, "for DIMACS:\n{text}");
    }
}

/// Parser accepts comments, multi-line clauses, and on-demand variable
/// allocation; rejects malformed tokens.
#[test]
fn dimacs_parser_edge_cases() {
    let (mut s, vars) =
        dimacs::parse("c comment\np cnf 2 2\n1\n2 0\n-1 0\n").expect("multi-line clause");
    assert_eq!(vars.len(), 2);
    assert_eq!(s.solve(), SolveResult::Sat);
    assert_eq!(s.value(vars[1]), Some(true), "x2 forced by resolution");

    // Variable 5 exceeds the header's count of 1: allocated on demand.
    let (mut s, vars) = dimacs::parse("p cnf 1 1\n5 0\n").expect("on-demand vars");
    assert!(vars.len() >= 5);
    assert_eq!(s.solve(), SolveResult::Sat);

    assert!(dimacs::parse("p cnf 1 1\n1 zero\n").is_err());
}

/// Stats are cumulative and monotone across solve calls.
#[test]
fn stats_accumulate_across_solves() {
    let (mut s, _) = pigeonhole_3_2();
    s.set_preprocessing(false);
    s.set_conflict_budget(Some(1));
    assert_eq!(s.solve(), SolveResult::Unknown);
    let first = s.stats();
    s.backtrack_to_root();
    s.set_conflict_budget(None);
    assert_eq!(s.solve(), SolveResult::Unsat);
    let second = s.stats();
    assert!(second.conflicts >= first.conflicts);
    assert!(second.propagations >= first.propagations);
}
