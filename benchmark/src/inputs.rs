//! Seeded workload inputs. Every input is a pure function of the seed
//! and the requested sizes; the program under test only ever sees the
//! rendered text.

use std::collections::HashSet;

use mba_expr::{BinOp, Expr, UnOp};
use mba_gen::random::{random_expr, RandomExprConfig};
use mba_gen::{Corpus, CorpusConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One input: its text and, when the generator knows it, the simple
/// expression it is equivalent to.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub text: String,
    pub truth: Option<Expr>,
}

impl Input {
    fn new(e: &Expr, truth: Option<Expr>) -> Input {
        Input {
            text: e.to_string(),
            truth,
        }
    }
}

/// An independent stream for each part of a workload, so that changing
/// one part's size leaves the others' inputs alone.
fn stream(seed: u64, part: u64) -> StdRng {
    let mut z = seed ^ part.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// Merges groups so that each is spread evenly through the result: every
/// prefix has the groups' proportions. A timed run that stops early
/// then sees the same mix as a longer one, and the mix does not vary
/// from seed to seed; only the inputs within each group do.
fn interleave(groups: Vec<Vec<Input>>) -> Vec<Input> {
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let mut iters: Vec<_> = groups.into_iter().map(Vec::into_iter).collect();
    let mut taken = vec![0usize; sizes.len()];
    let mut out = Vec::with_capacity(sizes.iter().sum());
    let lag = |g: usize, taken: &[usize]| (taken[g] as f64 + 0.5) / sizes[g] as f64;
    while let Some(g) = (0..sizes.len())
        .filter(|&g| taken[g] < sizes[g])
        .min_by(|&a, &b| lag(a, &taken).total_cmp(&lag(b, &taken)))
    {
        taken[g] += 1;
        out.extend(iters[g].next());
    }
    out
}

/// Linear, polynomial and non-polynomial identities of the paper's
/// corpus, `per_category` each.
fn paper_groups(seed: u64, per_category: usize) -> Vec<Vec<Input>> {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: stream(seed, 1).gen(),
        per_category,
    });
    corpus
        .samples()
        .chunks(per_category.max(1))
        .map(|kind| {
            kind.iter()
                .map(|s| Input::new(&s.obfuscated, Some(s.ground_truth.clone())))
                .collect()
        })
        .collect()
}

/// Parity-wrapped residuals (synthesis), wide redundant bitwise chains
/// (BDD), random arithmetic depth-6 ASTs over 4 variables (polynomial
/// expansion) and products too large to expand (the monomial cap).
fn tail_groups(
    seed: u64,
    residual: usize,
    wide: usize,
    random: usize,
    capped: usize,
) -> Vec<Vec<Input>> {
    let corpus = Corpus::generate_residual(&CorpusConfig {
        seed: stream(seed, 3).gen(),
        per_category: residual,
    });
    let residuals = corpus
        .samples()
        .iter()
        .map(|s| Input::new(&s.obfuscated, Some(s.ground_truth.clone())))
        .collect();
    let mut rng = stream(seed, 4);
    let chains = (0..wide)
        .map(|_| {
            let (e, truth) = wide_chain(&mut rng);
            Input::new(&e, Some(truth))
        })
        .collect();
    // Arithmetic only: mixed random ASTs are now and then zero on all
    // but a sliver of inputs, and the synthesis tier's probe check then
    // accepts a wrong output for them (about 1 in 75,000; reproducers in
    // README.md). A workload must not fail, so the mixed kind is left
    // out until that is fixed.
    let config = RandomExprConfig {
        max_depth: 6,
        num_vars: 4,
        arith_bias: 1.0,
        ..RandomExprConfig::default()
    };
    let mut rng = stream(seed, 5);
    let random = (0..random)
        .map(|_| Input::new(&random_expr(&mut rng, &config), None))
        .collect();
    let mut rng = stream(seed, 6);
    let products = (0..capped)
        .map(|_| Input::new(&cap_product(&mut rng), None))
        .collect();
    vec![residuals, chains, random, products]
}

/// The paper's corpus: `per_category` identities of each kind.
pub fn paper(seed: u64, per_category: usize) -> Vec<Input> {
    interleave(paper_groups(seed, per_category))
}

/// Inputs that reach the tiers behind the algebraic pipeline and its
/// monomial cap.
pub fn tail(seed: u64, residual: usize, wide: usize, random: usize, capped: usize) -> Vec<Input> {
    interleave(tail_groups(seed, residual, wide, random, capped))
}

/// `n` distinct inputs for the server: 60% paper identities (a third of
/// each kind), 15% residuals, 20% random ASTs and 5% wide chains.
pub fn serve_mix(seed: u64, n: usize) -> Vec<Input> {
    let count = |pct: usize| (n * pct).div_ceil(100);
    // Over-generate, since repeats are dropped: about a fifth of the
    // residuals and a third of the random ASTs repeat an earlier one.
    let more = |pct: usize| count(pct) * 11 / 10 + 1;
    let mut groups = paper_groups(seed, more(20));
    let tail = tail_groups(seed, 2 * more(15), more(5), 2 * more(20), 0);
    groups.extend(tail.into_iter().take(3));
    let mut seen = HashSet::new();
    let groups = groups
        .into_iter()
        .zip([20, 20, 20, 15, 5, 20])
        .map(|(group, pct)| {
            group
                .into_iter()
                .filter(|i| seen.insert(i.text.clone()))
                .take(count(pct))
                .collect()
        })
        .collect();
    let mut mix = interleave(groups);
    mix.truncate(n);
    mix
}

/// `n` requests over `items` pool entries with Zipf(1.0) popularity:
/// entry `k` is drawn with probability proportional to `1/(k+1)`. The
/// pool is interleaved, so each kind holds its share of every
/// popularity band.
pub fn zipf_picks(seed: u64, items: usize, n: usize) -> Vec<usize> {
    let cdf: Vec<f64> = (1..=items)
        .scan(0.0, |acc, k| {
            *acc += 1.0 / k as f64;
            Some(*acc)
        })
        .collect();
    let total = cdf.last().copied().unwrap_or(0.0);
    let mut rng = stream(seed, 8);
    (0..n)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            cdf.partition_point(|&c| c <= u).min(items - 1)
        })
        .collect()
}

/// Send times, in seconds from the start, of `n` requests arriving at
/// `rate` per second as a Poisson process (many independent users),
/// scaled so the last one is due at exactly `n / rate`: every seed
/// offers the same load.
pub fn arrivals(seed: u64, n: usize, rate: f64) -> Vec<f64> {
    let mut rng = stream(seed, 9);
    let mut t = 0.0;
    let mut due: Vec<f64> = (0..n)
        .map(|_| {
            t += -(1.0 - rng.gen::<f64>()).ln();
            t
        })
        .collect();
    let scale = n as f64 / rate / t;
    for d in &mut due {
        *d *= scale;
    }
    due
}

/// A pure-bitwise chain over 13..=16 variables in variable order
/// (optionally complemented), inflated with semantics-preserving
/// redundancy. Returns `(inflated, chain)`; the chain is the ground
/// truth. Too wide for any truth-table tier, so only the BDD tier can
/// canonicalize it.
fn wide_chain(rng: &mut StdRng) -> (Expr, Expr) {
    let t = rng.gen_range(13..=16usize);
    let names: Vec<String> = (0..t)
        .map(|i| char::from(b'a' + i as u8).to_string())
        .collect();
    let var = |i: usize| Expr::var(names[i].as_str());
    let mut chain = var(0);
    for i in 1..t {
        let op = [BinOp::And, BinOp::Or, BinOp::Xor][rng.gen_range(0..3usize)];
        chain = Expr::binary(op, chain, var(i));
    }
    if rng.gen_bool(0.5) {
        chain = Expr::unary(UnOp::Not, chain);
    }
    let mut e = chain.clone();
    for _ in 0..rng.gen_range(2..=4) {
        if e.node_count() > 96 {
            break;
        }
        e = match rng.gen_range(0..5) {
            0 => Expr::binary(BinOp::And, e.clone(), e),
            1 => Expr::binary(BinOp::Or, e.clone(), e),
            2 => Expr::unary(UnOp::Not, Expr::unary(UnOp::Not, e)),
            3 => {
                let v = var(rng.gen_range(0..t));
                Expr::binary(BinOp::Or, e.clone(), Expr::binary(BinOp::And, e, v))
            }
            _ => {
                let v = var(rng.gen_range(0..t));
                Expr::binary(BinOp::And, e.clone(), Expr::binary(BinOp::Or, e, v))
            }
        };
    }
    (e, chain)
}

/// A product of four sums of nine variables, no variable in two sums,
/// with small random coefficients. Expanding it takes 9^4 = 6561
/// monomials, more than the simplifier's cap of 4096, so its polynomial
/// pass gives up and keeps the input.
fn cap_product(rng: &mut StdRng) -> Expr {
    let factors = ['p', 'q', 'r', 's'].map(|f| {
        (0..9)
            .map(|i| {
                let v = Expr::var(format!("{f}{i}"));
                match rng.gen_range(1..=3i128) {
                    1 => v,
                    c => Expr::binary(BinOp::Mul, Expr::constant(c), v),
                }
            })
            .reduce(|a, b| Expr::binary(BinOp::Add, a, b))
            .expect("nine terms")
    });
    factors
        .into_iter()
        .reduce(|a, b| Expr::binary(BinOp::Mul, a, b))
        .expect("four factors")
}

/// Share of `texts` equal to an earlier one.
pub fn repeat_frac<'a>(texts: impl IntoIterator<Item = &'a str>) -> f64 {
    let mut seen = HashSet::new();
    let (mut n, mut repeats) = (0usize, 0usize);
    for t in texts {
        n += 1;
        repeats += usize::from(!seen.insert(t));
    }
    crate::stats::per(repeats as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(paper(1, 20), paper(1, 20));
        assert_ne!(paper(1, 20), paper(2, 20));
        assert_eq!(tail(1, 10, 5, 10, 2), tail(1, 10, 5, 10, 2));
        assert_ne!(tail(1, 10, 5, 10, 2), tail(2, 10, 5, 10, 2));
        assert_eq!(serve_mix(3, 200), serve_mix(3, 200));
        assert_ne!(serve_mix(3, 200), serve_mix(4, 200));
    }

    #[test]
    fn interleaving_keeps_every_prefix_in_proportion() {
        let group = |tag: &str, n: usize| -> Vec<Input> {
            (0..n)
                .map(|i| Input {
                    text: format!("{tag}{i}"),
                    truth: None,
                })
                .collect()
        };
        let mixed = interleave(vec![group("r", 50), group("w", 10), group("x", 50)]);
        assert_eq!(mixed.len(), 110);
        for k in 1..=mixed.len() {
            let wide = mixed[..k]
                .iter()
                .filter(|i| i.text.starts_with('w'))
                .count();
            assert!(
                (wide as f64 - k as f64 / 11.0).abs() <= 1.0,
                "prefix {k} has {wide}"
            );
        }
    }

    #[test]
    fn arrivals_keep_the_rate_and_vary_the_gaps() {
        let due = arrivals(4, 1000, 400.0);
        assert!((due[999] - 2.5).abs() < 1e-9);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().any(|&g| g > 0.005) && gaps.iter().any(|&g| g < 0.001));
        assert_eq!(due, arrivals(4, 1000, 400.0));
    }

    #[test]
    fn serve_mix_is_distinct_and_sized() {
        let mix = serve_mix(9, 400);
        assert_eq!(mix.len(), 400);
        assert_eq!(repeat_frac(mix.iter().map(|i| i.text.as_str())), 0.0);
    }

    #[test]
    fn wide_chains_are_wide_and_equal_to_their_truth() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let (e, chain) = wide_chain(&mut rng);
            assert!(e.vars().len() >= 13);
            assert!(crate::check::agrees(&e, &chain));
        }
    }

    #[test]
    fn cap_products_hit_the_monomial_cap() {
        let mut rng = StdRng::seed_from_u64(6);
        let simplifier = mba_solver::Simplifier::new();
        for _ in 0..3 {
            let e = cap_product(&mut rng);
            assert_eq!(e.vars().len(), 36);
            let text = e.to_string();
            let r = simplifier.simplify_detailed(&text.parse().unwrap());
            assert!(r.bailed, "{text} did not reach the cap");
            assert!(crate::check::agrees(&e, &r.output));
        }
    }
}
