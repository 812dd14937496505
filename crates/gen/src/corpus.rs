//! The deterministic evaluation corpus: 3 × `per_category` verified MBA
//! identity equations mirroring the paper's 3 000-sample dataset (§3.1).

use std::fmt;

use mba_expr::{Expr, Metrics, Valuation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::obfuscate::{ObfuscationKind, Obfuscator, ObfuscatorConfig};

/// One corpus entry: an MBA identity equation
/// `obfuscated == ground_truth`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Stable index within the corpus.
    pub id: usize,
    /// The category the obfuscator was asked for (and verified to hit).
    pub kind: ObfuscationKind,
    /// The simple expression the identity hides.
    pub ground_truth: Expr,
    /// The obfuscated, equivalent expression.
    pub obfuscated: Expr,
}

impl Sample {
    /// Verifies the identity by randomized evaluation: `trials` random
    /// inputs at widths 8, 32 and 64 bits.
    pub fn verify(&self, rng: &mut impl Rng, trials: usize) -> bool {
        let vars = self.obfuscated.vars();
        for _ in 0..trials {
            let v: Valuation = vars.iter().map(|n| (n.clone(), rng.gen())).collect();
            for w in [8u32, 32, 64] {
                if self.ground_truth.eval(&v, w) != self.obfuscated.eval(&v, w) {
                    return false;
                }
            }
        }
        true
    }

    /// Complexity metrics of the obfuscated side.
    pub fn metrics(&self) -> Metrics {
        Metrics::of(&self.obfuscated)
    }
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} [{}] {} == {}",
            self.id, self.kind, self.obfuscated, self.ground_truth
        )
    }
}

/// Corpus generation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusConfig {
    /// RNG seed; the same seed reproduces the same corpus bit-for-bit.
    pub seed: u64,
    /// Samples per category (the paper uses 1000).
    pub per_category: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x4d42_4153,
            per_category: 1000,
        }
    }
}

/// The evaluation corpus: `per_category` samples of each MBA category,
/// every one verified at generation time.
#[derive(Debug, Clone)]
pub struct Corpus {
    samples: Vec<Sample>,
}

/// Ground-truth pool, spanning 1–4 variables like the paper's corpus
/// (Table 1: 1 ≤ #vars ≤ 4). Linear/non-poly targets; the generator
/// appends product targets for the poly category.
const LINEAR_TARGETS: &[&str] = &[
    "x + y",
    "x - y",
    "x ^ y",
    "x | y",
    "x & y",
    "x",
    "-x",
    "2*x + y",
    "x + y + z",
    "x - y + z",
    "x + 2*y - z",
    "x ^ (y | z)",
    "x + y - z + w",
    "x + 7",
];

const POLY_TARGETS: &[&str] = &[
    "x*y",
    "x*y + z",
    "x*y - x",
    "x*x",
    "x*y + x + y",
    "2*x*y - z",
];

/// Ground truths for the residual profile: small enough (≤ 5 nodes,
/// ≤ 3 variables) that an enumerative synthesis tier with a modest
/// node budget can re-discover them once the algebraic pipeline gives
/// up on the parity-wrapped obfuscation.
const RESIDUAL_TARGETS: &[&str] = &[
    "x + y",
    "x - y",
    "x ^ y",
    "x & y",
    "x | y",
    "2*x",
    "x + 1",
    "x + y + z",
];

impl Corpus {
    /// Generates the corpus for `config`. Complexity knobs are drawn per
    /// sample to reproduce the spread of Table 1 (terms, alternation,
    /// coefficients).
    ///
    /// # Panics
    ///
    /// Panics if a generated sample fails its randomized verification —
    /// which would indicate a bug in the obfuscator, not bad luck.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut samples = Vec::with_capacity(config.per_category * 3);
        let kinds = [
            ObfuscationKind::Linear,
            ObfuscationKind::Polynomial,
            ObfuscationKind::NonPolynomial,
        ];
        for kind in kinds {
            for i in 0..config.per_category {
                let sample = Self::generate_one(samples.len(), kind, i, &mut rng);
                assert!(
                    sample.verify(&mut rng, 6),
                    "generated sample failed verification: {sample}"
                );
                samples.push(sample);
            }
        }
        Corpus { samples }
    }

    /// Generates the residual-profile corpus (`--profile residual`):
    /// `per_category` samples whose ground truths are small expressions
    /// wrapped in parity opaque zeros so `classify()` lands outside
    /// `Linear`/`SemiLinear` and the algebraic pipeline leaves them for
    /// the enumerative synthesis tier.
    ///
    /// # Panics
    ///
    /// Panics if a generated sample fails its randomized verification.
    pub fn generate_residual(config: &CorpusConfig) -> Corpus {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut samples = Vec::with_capacity(config.per_category);
        for i in 0..config.per_category {
            let sample = Self::generate_one(samples.len(), ObfuscationKind::Residual, i, &mut rng);
            assert!(
                sample.verify(&mut rng, 6),
                "generated residual sample failed verification: {sample}"
            );
            samples.push(sample);
        }
        Corpus { samples }
    }

    fn generate_one(id: usize, kind: ObfuscationKind, index: usize, rng: &mut StdRng) -> Sample {
        let pool: &[&str] = match kind {
            ObfuscationKind::Polynomial => POLY_TARGETS,
            ObfuscationKind::Residual => RESIDUAL_TARGETS,
            _ => LINEAR_TARGETS,
        };
        let ground_truth: Expr = pool[index % pool.len()].parse().expect("pool parses");

        // Complexity draw: linear/poly average ~9 alternation, non-poly
        // roughly double with a long tail (Table 1).
        let config = match kind {
            ObfuscationKind::Linear | ObfuscationKind::SemiLinear => ObfuscatorConfig {
                linear_extra_terms: rng.gen_range(4..=13),
                bitwise_depth: rng.gen_range(1..=3),
                ..ObfuscatorConfig::default()
            },
            ObfuscationKind::Polynomial => ObfuscatorConfig {
                linear_extra_terms: rng.gen_range(2..=6),
                bitwise_depth: rng.gen_range(1..=2),
                zero_identity_terms: rng.gen_range(3..=6),
                ..ObfuscatorConfig::default()
            },
            ObfuscationKind::NonPolynomial => ObfuscatorConfig {
                linear_extra_terms: rng.gen_range(2..=6),
                bitwise_depth: rng.gen_range(1..=2),
                rewrite_rounds: rng.gen_range(1..=4),
                ..ObfuscatorConfig::default()
            },
            // The residual wrapper ignores the complexity knobs; its
            // whole point is to stay small.
            ObfuscationKind::Residual => ObfuscatorConfig::default(),
        };
        let obfuscator = Obfuscator::with_config(config);
        let obfuscated = obfuscator.obfuscate(&ground_truth, kind, rng);
        // Record the class the output actually landed in (the obfuscator
        // may upgrade, e.g. a poly request whose junk vanished). The
        // residual profile keeps its label: `mba_class()` has no
        // "residual" answer, and the label is what `by_kind` filters on.
        let kind = if kind == ObfuscationKind::Residual {
            debug_assert_eq!(
                obfuscated.mba_class(),
                mba_expr::MbaClass::NonPolynomial,
                "residual wrapper must land outside Linear/SemiLinear: {obfuscated}"
            );
            kind
        } else {
            match obfuscated.mba_class() {
                mba_expr::MbaClass::Linear => ObfuscationKind::Linear,
                mba_expr::MbaClass::SemiLinear => ObfuscationKind::SemiLinear,
                mba_expr::MbaClass::Polynomial => ObfuscationKind::Polynomial,
                mba_expr::MbaClass::NonPolynomial => ObfuscationKind::NonPolynomial,
            }
        };
        Sample {
            id,
            kind,
            ground_truth,
            obfuscated,
        }
    }

    /// All samples, in generation order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterates over the samples of one category.
    pub fn by_kind(&self, kind: ObfuscationKind) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.kind == kind)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serializes to a tab-separated text form (`kind\ttruth\tobf`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.samples {
            out.push_str(&format!(
                "{}\t{}\t{}\n",
                s.kind, s.ground_truth, s.obfuscated
            ));
        }
        out
    }

    /// Parses the text form produced by [`Corpus::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<Corpus, String> {
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split('\t');
            let (Some(kind), Some(truth), Some(obf)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(format!(
                    "line {}: expected 3 tab-separated fields",
                    lineno + 1
                ));
            };
            let kind = match kind {
                "linear" => ObfuscationKind::Linear,
                "semi-linear" => ObfuscationKind::SemiLinear,
                "poly" => ObfuscationKind::Polynomial,
                "non-poly" => ObfuscationKind::NonPolynomial,
                "residual" => ObfuscationKind::Residual,
                other => return Err(format!("line {}: unknown kind `{other}`", lineno + 1)),
            };
            let ground_truth: Expr = truth
                .parse()
                .map_err(|e| format!("line {}: bad ground truth: {e}", lineno + 1))?;
            let obfuscated: Expr = obf
                .parse()
                .map_err(|e| format!("line {}: bad obfuscation: {e}", lineno + 1))?;
            samples.push(Sample {
                id: samples.len(),
                kind,
                ground_truth,
                obfuscated,
            });
        }
        Ok(Corpus { samples })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig {
            seed: 1,
            per_category: 12,
        })
    }

    #[test]
    fn generates_requested_counts() {
        let c = small();
        assert_eq!(c.len(), 36);
        assert!(!c.is_empty());
        // Category totals add up even when the obfuscator re-labels.
        let total: usize = [
            ObfuscationKind::Linear,
            ObfuscationKind::Polynomial,
            ObfuscationKind::NonPolynomial,
        ]
        .iter()
        .map(|&k| c.by_kind(k).count())
        .sum();
        assert_eq!(total, 36);
    }

    #[test]
    fn kinds_match_actual_class() {
        for s in small().samples() {
            let class = s.obfuscated.mba_class();
            let expected = match s.kind {
                ObfuscationKind::Linear => mba_expr::MbaClass::Linear,
                ObfuscationKind::SemiLinear => mba_expr::MbaClass::SemiLinear,
                ObfuscationKind::Polynomial => mba_expr::MbaClass::Polynomial,
                ObfuscationKind::NonPolynomial => mba_expr::MbaClass::NonPolynomial,
                ObfuscationKind::Residual => mba_expr::MbaClass::NonPolynomial,
            };
            assert_eq!(class, expected, "sample {s}");
        }
    }

    #[test]
    fn every_category_is_populated() {
        let c = small();
        assert!(c.by_kind(ObfuscationKind::Linear).count() >= 10);
        assert!(c.by_kind(ObfuscationKind::Polynomial).count() >= 10);
        assert!(c.by_kind(ObfuscationKind::NonPolynomial).count() >= 10);
    }

    #[test]
    fn residual_profile_generates_labeled_nonpoly_samples() {
        let c = Corpus::generate_residual(&CorpusConfig {
            seed: 2,
            per_category: 16,
        });
        assert_eq!(c.len(), 16);
        let mut rng = StdRng::seed_from_u64(77);
        for s in c.samples() {
            assert_eq!(s.kind, ObfuscationKind::Residual, "sample {s}");
            assert_eq!(
                s.obfuscated.mba_class(),
                mba_expr::MbaClass::NonPolynomial,
                "sample {s}"
            );
            assert!(
                s.ground_truth.node_count() <= 5,
                "residual ground truths must stay synthesizable: {s}"
            );
            assert!(s.verify(&mut rng, 8), "sample failed: {s}");
        }
        // The label survives the text round trip.
        let parsed = Corpus::from_text(&c.to_text()).expect("roundtrip parses");
        assert!(parsed
            .samples()
            .iter()
            .all(|s| s.kind == ObfuscationKind::Residual));
    }

    #[test]
    fn samples_survive_independent_verification() {
        let mut rng = StdRng::seed_from_u64(999);
        for s in small().samples() {
            assert!(s.verify(&mut rng, 8), "sample failed: {s}");
        }
    }

    #[test]
    fn same_seed_same_corpus() {
        let a = Corpus::generate(&CorpusConfig {
            seed: 5,
            per_category: 4,
        });
        let b = Corpus::generate(&CorpusConfig {
            seed: 5,
            per_category: 4,
        });
        assert_eq!(a.samples(), b.samples());
        let c = Corpus::generate(&CorpusConfig {
            seed: 6,
            per_category: 4,
        });
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn text_roundtrip() {
        let c = small();
        let text = c.to_text();
        let parsed = Corpus::from_text(&text).expect("roundtrip parses");
        assert_eq!(parsed.len(), c.len());
        for (a, b) in c.samples().iter().zip(parsed.samples()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.ground_truth, b.ground_truth);
            assert_eq!(a.obfuscated, b.obfuscated);
        }
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Corpus::from_text("linear\tonly-two-fields").is_err());
        assert!(Corpus::from_text("weird\tx\ty").is_err());
        assert!(Corpus::from_text("linear\t((\tx").is_err());
        // Blank lines are fine.
        assert!(Corpus::from_text("\n\n").unwrap().is_empty());
    }

    #[test]
    fn obfuscation_complexity_is_substantial() {
        let c = small();
        let avg_alt: f64 = c
            .samples()
            .iter()
            .map(|s| s.metrics().alternation as f64)
            .sum::<f64>()
            / c.len() as f64;
        assert!(avg_alt >= 4.0, "average alternation only {avg_alt:.1}");
    }
}
