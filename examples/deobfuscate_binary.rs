//! Scenario: reverse engineering MBA-protected data flow.
//!
//! A malware analyst lifts arithmetic out of an obfuscated binary (the
//! paper's §2.2 motivation: DRM systems, Tigress output, malware
//! compilation chains) and wants to know what each expression *really*
//! computes. This example walks a batch of captured expressions through
//! MBA-Solver and cross-checks every answer three ways: random testing,
//! the polynomial certificate, and an SMT proof.
//!
//! ```text
//! cargo run --example deobfuscate_binary
//! ```

use mba::expr::{Expr, Metrics, Valuation};
use mba::smt::{CheckOutcome, SmtSolver, SolverProfile};
use mba::solver::Simplifier;

/// Expressions "lifted from the binary": real MBA obfuscations of simple
/// operations, in the shapes Tigress/Irdeto-style protectors emit.
const CAPTURED: &[&str] = &[
    // x + y, three different encodings.
    "(x | y) + (~x | y) - ~x",
    "(x ^ y) + 2*y - 2*(~x & y)",
    "y + (x & ~y) + (x & y)",
    // x - y via the HAKMEM identity.
    "(x ^ y) - 2*(~x & y)",
    // Figure 1: x * y.
    "(x&~y)*(~x&y) + (x&y)*(x|y)",
    // An opaque constant: always 0, used for bogus control flow.
    "(x | ~x) + 1",
    // Non-poly obfuscation of x - y + z (§4.5's running example).
    "((x&~y) - (~x&y) | z) + ((x&~y) - (~x&y) & z)",
];

fn main() {
    let simplifier = Simplifier::new();
    let prover = SmtSolver::new(SolverProfile::boolector_style());

    println!(
        "{:<52} {:>6} -> recovered semantics",
        "captured expression", "alt"
    );
    for src in CAPTURED {
        let captured: Expr = src.parse().expect("lifted expression parses");
        let metrics = Metrics::of(&captured);
        let recovered = simplifier.simplify(&captured);

        // Cross-check 1: random differential testing at two widths.
        let vals = [
            Valuation::new()
                .with("x", 0xdead_beef)
                .with("y", 0x1234)
                .with("z", 7),
            Valuation::new()
                .with("x", u64::MAX)
                .with("y", 1)
                .with("z", 0),
        ];
        for v in &vals {
            assert_eq!(captured.eval(v, 64), recovered.eval(v, 64));
            assert_eq!(captured.eval(v, 8), recovered.eval(v, 8));
        }

        // Cross-check 2: polynomial certificate (Theorem 1 machinery).
        assert_eq!(
            simplifier.proves_equivalent(&captured, &recovered),
            Some(true),
            "certificate failed for {src}"
        );

        // Cross-check 3: independent SMT proof. Width 6 keeps even the
        // multiplication miters quick while still being a real proof
        // for that ring (the identities are width-generic anyway).
        let proof = prover.check_equivalence(&captured, &recovered, 6, None);
        assert_eq!(proof.outcome, CheckOutcome::Equivalent, "SMT refused {src}");

        println!("{src:<52} {:>6} -> {recovered}", metrics.alternation);
    }
    println!("\nall recoveries triple-checked (random, certificate, SMT)");
}
