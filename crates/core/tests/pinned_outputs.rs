//! Output pin for the id route: the simplifier's outputs over seeded
//! corpora from every `mba-gen` source — obfuscated linear/semi-linear/
//! poly targets, free-form random ASTs, the mask-steered semi-linear
//! distribution, and the negated-literal regression shapes — hash to a
//! digest recorded from the tree-walking implementation the arena route
//! replaced. Sequential and batch entry points at every worker count
//! must reproduce it at widths 8/16/32/64, so any change of an output
//! byte, or any leak of scheduling or id assignment into outputs, fails
//! here.

use mba_expr::{BinOp, Expr, UnOp};
use mba_gen::random::{random_expr, RandomExprConfig};
use mba_gen::{ObfuscationKind, Obfuscator};
use mba_solver::{Simplifier, SimplifyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const WIDTHS: [u32; 4] = [8, 16, 32, 64];

/// FNV-1a over every output, each followed by a newline, in the order
/// width, corpus, case.
const PINNED_DIGEST: u64 = 0xf890_c89e_4f92_fe72;

fn obfuscated_corpus() -> Vec<Expr> {
    let mut rng = StdRng::seed_from_u64(42);
    let ob = Obfuscator::new();
    let targets: Vec<Expr> = ["x", "x + y", "x & y", "x ^ y", "2*x - y", "x + y + z"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let mut cases = Vec::new();
    for kind in [
        ObfuscationKind::Linear,
        ObfuscationKind::SemiLinear,
        ObfuscationKind::Polynomial,
        ObfuscationKind::NonPolynomial,
    ] {
        for t in &targets {
            for _ in 0..4 {
                cases.push(ob.obfuscate(t, kind, &mut rng));
            }
        }
    }
    cases
}

fn random_corpus(config: &RandomExprConfig) -> Vec<Expr> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..150).map(|_| random_expr(&mut rng, config)).collect()
}

/// The `-0` and `- -1` chains that `is_pure_bitwise` folds to
/// bit-uniform constants: the skeleton must admit exactly the
/// constants the classifier admits.
fn negated_literal_corpus() -> Vec<Expr> {
    let x = || Expr::Var("x".into());
    let factor = Expr::binary(
        BinOp::And,
        Expr::binary(
            BinOp::Or,
            Expr::binary(BinOp::Xor, Expr::Const(-1), x()),
            Expr::unary(UnOp::Neg, Expr::Const(0)),
        ),
        Expr::binary(
            BinOp::Or,
            Expr::unary(UnOp::Not, x()),
            Expr::binary(BinOp::And, Expr::Var("z".into()), Expr::Var("y".into())),
        ),
    );
    vec![
        Expr::binary(BinOp::Or, factor.clone(), Expr::Const(-4)),
        factor,
        Expr::binary(
            BinOp::Xor,
            Expr::unary(UnOp::Neg, Expr::unary(UnOp::Neg, Expr::Const(-1))),
            x(),
        ),
    ]
}

fn cases() -> Vec<Expr> {
    let mut cases = obfuscated_corpus();
    cases.extend(random_corpus(&RandomExprConfig::default()));
    cases.extend(negated_literal_corpus());
    cases.extend(random_corpus(&RandomExprConfig {
        mask_const_prob: 0.5,
        ..RandomExprConfig::default()
    }));
    cases
}

fn fnv1a(digest: &mut u64, output: &Expr) {
    for b in output.to_string().bytes().chain([b'\n']) {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn simplifier(width: u32) -> Simplifier {
    Simplifier::with_config(SimplifyConfig {
        width,
        ..SimplifyConfig::default()
    })
}

#[test]
fn sequential_outputs_match_the_pinned_digest() {
    let cases = cases();
    let mut digest = FNV_OFFSET;
    for width in WIDTHS {
        let s = simplifier(width);
        for e in &cases {
            fnv1a(&mut digest, &s.simplify_detailed(e).output);
        }
    }
    assert_eq!(
        digest, PINNED_DIGEST,
        "outputs changed: digest {digest:#018x}"
    );
}

#[test]
fn batch_outputs_match_the_pinned_digest_at_every_worker_count() {
    let cases = cases();
    let refs: Vec<&Expr> = cases.iter().collect();
    for jobs in [0usize, 1, 64] {
        let (mut owned, mut by_ref) = (FNV_OFFSET, FNV_OFFSET);
        for width in WIDTHS {
            for r in simplifier(width).simplify_batch_with_jobs(&cases, jobs) {
                fnv1a(&mut owned, &r.output);
            }
            for r in simplifier(width).simplify_batch_refs(&refs, jobs) {
                fnv1a(&mut by_ref, &r.output);
            }
        }
        assert_eq!(
            owned, PINNED_DIGEST,
            "owned batch at jobs={jobs}: {owned:#018x}"
        );
        assert_eq!(
            by_ref, PINNED_DIGEST,
            "ref batch at jobs={jobs}: {by_ref:#018x}"
        );
    }
}
