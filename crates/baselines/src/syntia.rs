//! Syntia-style stochastic synthesis: Monte-Carlo tree search over an
//! expression grammar, guided by input/output samples.
//!
//! The synthesizer never looks inside the obfuscated expression — it
//! only queries it as a black box on sampled inputs, exactly like the
//! original tool observes instruction traces. Consequently the result
//! is only as correct as the samples are discriminating: an expression
//! that matches all samples may still differ elsewhere, which is the
//! incorrectness mode Table 7 quantifies.

use mba_expr::{BinOp, Expr, Ident, UnOp, Valuation};
use rand::Rng;

/// Tuning knobs for [`Syntia`].
#[derive(Debug, Clone, PartialEq)]
pub struct SyntiaConfig {
    /// Number of I/O samples drawn from the oracle.
    pub samples: usize,
    /// MCTS iterations before giving up.
    pub iterations: usize,
    /// Maximum derivation depth of candidate expressions.
    pub max_depth: usize,
    /// Bit width at which the oracle is sampled.
    pub width: u32,
    /// Constants available to the grammar.
    pub constants: Vec<i128>,
    /// UCT exploration parameter.
    pub exploration: f64,
}

impl Default for SyntiaConfig {
    fn default() -> Self {
        SyntiaConfig {
            samples: 24,
            iterations: 1500,
            max_depth: 3,
            width: 64,
            constants: vec![0, 1, 2],
            exploration: 1.2,
        }
    }
}

/// The outcome of a synthesis run.
#[derive(Debug, Clone)]
pub struct SyntiaResult {
    /// The best candidate found (highest sample similarity, smallest
    /// size among ties).
    pub expr: Expr,
    /// Whether the candidate reproduces the oracle on *every* sample.
    /// Even `true` does not guarantee equivalence — that is the point.
    pub matches_all_samples: bool,
    /// Iterations actually spent.
    pub iterations_used: usize,
    /// Final similarity score in `[0, 1]`.
    pub score: f64,
}

/// The Syntia-like synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Syntia {
    config: SyntiaConfig,
}

/// A partial expression: a grammar derivation with holes.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PNode {
    Hole,
    Var(usize),
    Const(i128),
    Un(UnOp, Box<PNode>),
    Bin(BinOp, Box<PNode>, Box<PNode>),
}

impl PNode {
    fn has_hole(&self) -> bool {
        match self {
            PNode::Hole => true,
            PNode::Var(_) | PNode::Const(_) => false,
            PNode::Un(_, a) => a.has_hole(),
            PNode::Bin(_, a, b) => a.has_hole() || b.has_hole(),
        }
    }

    fn size(&self) -> usize {
        match self {
            PNode::Hole | PNode::Var(_) | PNode::Const(_) => 1,
            PNode::Un(_, a) => 1 + a.size(),
            PNode::Bin(_, a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Replaces the leftmost hole with `production`; returns `None` when
    /// there is no hole. `depth` is the hole's depth (for the limit).
    fn fill_leftmost(&self, production: &PNode) -> Option<PNode> {
        match self {
            PNode::Hole => Some(production.clone()),
            PNode::Var(_) | PNode::Const(_) => None,
            PNode::Un(op, a) => a
                .fill_leftmost(production)
                .map(|a2| PNode::Un(*op, Box::new(a2))),
            PNode::Bin(op, a, b) => {
                if let Some(a2) = a.fill_leftmost(production) {
                    Some(PNode::Bin(*op, Box::new(a2), b.clone()))
                } else {
                    b.fill_leftmost(production)
                        .map(|b2| PNode::Bin(*op, a.clone(), Box::new(b2)))
                }
            }
        }
    }

    /// Depth of the leftmost hole (root = 0), or `None` when complete.
    fn leftmost_hole_depth(&self) -> Option<usize> {
        match self {
            PNode::Hole => Some(0),
            PNode::Var(_) | PNode::Const(_) => None,
            PNode::Un(_, a) => a.leftmost_hole_depth().map(|d| d + 1),
            PNode::Bin(_, a, b) => a
                .leftmost_hole_depth()
                .or_else(|| b.leftmost_hole_depth())
                .map(|d| d + 1),
        }
    }

    fn eval(&self, inputs: &[u64], width: u32) -> u64 {
        let v = match self {
            PNode::Hole => 0,
            PNode::Var(i) => inputs[*i],
            PNode::Const(c) => *c as u64,
            PNode::Un(op, a) => {
                let x = a.eval(inputs, width);
                match op {
                    UnOp::Neg => x.wrapping_neg(),
                    UnOp::Not => !x,
                }
            }
            PNode::Bin(op, a, b) => {
                let x = a.eval(inputs, width);
                let y = b.eval(inputs, width);
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::And => x & y,
                    BinOp::Or => x | y,
                    BinOp::Xor => x ^ y,
                }
            }
        };
        mba_expr::mask(v, width)
    }

    fn to_expr(&self, vars: &[Ident]) -> Expr {
        match self {
            PNode::Hole => Expr::zero(),
            PNode::Var(i) => Expr::Var(vars[*i].clone()),
            PNode::Const(c) => Expr::Const(*c),
            PNode::Un(op, a) => Expr::unary(*op, a.to_expr(vars)),
            PNode::Bin(op, a, b) => Expr::binary(*op, a.to_expr(vars), b.to_expr(vars)),
        }
    }
}

/// One MCTS tree node.
struct McNode {
    state: PNode,
    children: Vec<usize>,
    untried: Vec<PNode>,
    visits: f64,
    total_reward: f64,
}

impl Syntia {
    /// Synthesizer with default settings.
    pub fn new() -> Syntia {
        Syntia::default()
    }

    /// Synthesizer with explicit settings.
    pub fn with_config(config: SyntiaConfig) -> Syntia {
        Syntia { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SyntiaConfig {
        &self.config
    }

    /// Synthesizes a simple expression approximating `oracle`'s
    /// semantics from sampled I/O behaviour.
    pub fn synthesize(&self, oracle: &Expr, rng: &mut impl Rng) -> SyntiaResult {
        let vars: Vec<Ident> = oracle.vars().into_iter().collect();
        let width = self.config.width;

        // Sample the oracle: structured corners plus random points.
        let mut inputs: Vec<Vec<u64>> = vec![
            vec![0; vars.len()],
            vec![1; vars.len()],
            vec![mba_expr::mask(u64::MAX, width); vars.len()],
        ];
        while inputs.len() < self.config.samples.max(4) {
            inputs.push((0..vars.len()).map(|_| rng.gen::<u64>()).collect());
        }
        let expected: Vec<u64> = inputs
            .iter()
            .map(|point| {
                let v: Valuation = vars.iter().cloned().zip(point.iter().copied()).collect();
                oracle.eval(&v, width)
            })
            .collect();

        let score_of = |candidate: &PNode| -> f64 {
            let mut total = 0.0;
            for (point, &want) in inputs.iter().zip(&expected) {
                let got = candidate.eval(point, width);
                let differing = (got ^ want).count_ones().min(width) as f64;
                total += 1.0 - differing / width as f64;
            }
            total / inputs.len() as f64
        };
        let exact = |candidate: &PNode| -> bool {
            inputs
                .iter()
                .zip(&expected)
                .all(|(point, &want)| candidate.eval(point, width) == want)
        };

        // MCTS over grammar derivations.
        let mut arena: Vec<McNode> = vec![self.make_node(PNode::Hole, &vars)];
        let mut best: (f64, PNode) = (f64::MIN, PNode::Const(0));
        let mut iterations_used = self.config.iterations;

        for iteration in 0..self.config.iterations {
            // 1. Selection: walk down fully expanded nodes by UCT.
            let mut path = vec![0usize];
            loop {
                let node = &arena[*path.last().expect("non-empty")];
                if !node.untried.is_empty() || node.children.is_empty() {
                    break;
                }
                let ln_n = node.visits.max(1.0).ln();
                let c = self.config.exploration;
                let next = *node
                    .children
                    .iter()
                    .max_by(|&&a, &&b| {
                        let ua = uct(&arena[a], ln_n, c);
                        let ub = uct(&arena[b], ln_n, c);
                        ua.partial_cmp(&ub).expect("no NaN")
                    })
                    .expect("children non-empty");
                path.push(next);
            }
            // 2. Expansion.
            let leaf = *path.last().expect("non-empty");
            let current = if let Some(production) = {
                let node = &mut arena[leaf];
                node.untried.pop()
            } {
                let state = arena[leaf]
                    .state
                    .fill_leftmost(&production)
                    .unwrap_or_else(|| production.clone());
                let idx = arena.len();
                arena.push(self.make_node(state, &vars));
                arena[leaf].children.push(idx);
                path.push(idx);
                idx
            } else {
                leaf
            };
            // 3. Simulation: randomly complete the derivation.
            let mut rollout = arena[current].state.clone();
            while rollout.has_hole() {
                let depth = rollout.leftmost_hole_depth().expect("has hole");
                let productions = self.productions(&vars, depth);
                let pick = &productions[rng.gen_range(0..productions.len())];
                rollout = rollout.fill_leftmost(pick).expect("has hole");
            }
            let reward = score_of(&rollout);
            if reward > best.0 || (reward == best.0 && rollout.size() < best.1.size()) {
                best = (reward, rollout.clone());
            }
            // 4. Backpropagation.
            for &idx in &path {
                arena[idx].visits += 1.0;
                arena[idx].total_reward += reward;
            }
            if exact(&best.1) {
                iterations_used = iteration + 1;
                break;
            }
        }

        let matches_all_samples = exact(&best.1);
        SyntiaResult {
            expr: best.1.to_expr(&vars),
            matches_all_samples,
            iterations_used,
            score: best.0,
        }
    }

    fn make_node(&self, state: PNode, vars: &[Ident]) -> McNode {
        let untried = match state.leftmost_hole_depth() {
            Some(depth) => self.productions(vars, depth),
            None => Vec::new(),
        };
        McNode {
            state,
            children: Vec::new(),
            untried,
            visits: 0.0,
            total_reward: 0.0,
        }
    }

    /// Grammar productions available for a hole at `depth`.
    fn productions(&self, vars: &[Ident], depth: usize) -> Vec<PNode> {
        let mut out: Vec<PNode> = Vec::new();
        for i in 0..vars.len() {
            out.push(PNode::Var(i));
        }
        for &c in &self.config.constants {
            out.push(PNode::Const(c));
        }
        if depth < self.config.max_depth {
            let hole = || Box::new(PNode::Hole);
            out.push(PNode::Un(UnOp::Not, hole()));
            out.push(PNode::Un(UnOp::Neg, hole()));
            for op in [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
            ] {
                out.push(PNode::Bin(op, hole(), hole()));
            }
        }
        out
    }
}

fn uct(node: &McNode, ln_parent: f64, exploration: f64) -> f64 {
    if node.visits == 0.0 {
        return f64::INFINITY;
    }
    node.total_reward / node.visits + exploration * (ln_parent / node.visits).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn synth(oracle: &str, seed: u64) -> SyntiaResult {
        let syntia = Syntia::new();
        let mut rng = StdRng::seed_from_u64(seed);
        syntia.synthesize(&oracle.parse().unwrap(), &mut rng)
    }

    #[test]
    fn recovers_simple_semantics_from_obfuscated_oracle() {
        // (x|y)+(x&y) behaves exactly like x+y; MCTS should find a
        // 3-node candidate that matches all samples.
        let r = synth("(x | y) + (x & y)", 42);
        assert!(r.matches_all_samples, "score {}: {}", r.score, r.expr);
        // The first exact hit wins (like the original tool), so the
        // candidate is small but not necessarily minimal.
        assert!(r.expr.node_count() <= 9, "over-sized: {}", r.expr);
        // And the candidate is genuinely x + y on fresh inputs.
        let v = Valuation::new().with("x", 1234).with("y", 98765);
        assert_eq!(r.expr.eval(&v, 64), 1234 + 98765);
    }

    #[test]
    fn recovers_single_variable_identity() {
        let r = synth("x + 0 + 0", 1);
        assert!(r.matches_all_samples);
        let v = Valuation::new().with("x", 777);
        assert_eq!(r.expr.eval(&v, 64), 777);
    }

    #[test]
    fn early_stops_once_exact() {
        let r = synth("x & y", 7);
        assert!(r.matches_all_samples);
        assert!(
            r.iterations_used < SyntiaConfig::default().iterations,
            "no early stop: {} iterations",
            r.iterations_used
        );
    }

    #[test]
    fn reports_imperfect_candidates_honestly() {
        // A 4-variable polynomial oracle is far outside the depth-3
        // grammar budget at 300 iterations; the result must be flagged.
        let syntia = Syntia::with_config(SyntiaConfig {
            iterations: 300,
            ..SyntiaConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let oracle: Expr = "(x&~y)*(~w&z) + (x^w)*(y|z) + 12345*w".parse().unwrap();
        let r = syntia.synthesize(&oracle, &mut rng);
        assert!(!r.matches_all_samples, "implausibly exact: {}", r.expr);
        assert!(r.score < 1.0);
    }

    #[test]
    fn determinism_per_seed() {
        let a = synth("(x ^ y) + 2*(x & y)", 11);
        let b = synth("(x ^ y) + 2*(x & y)", 11);
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.iterations_used, b.iterations_used);
    }

    #[test]
    fn score_is_within_bounds() {
        let r = synth("x * y + z", 5);
        assert!((0.0..=1.0).contains(&r.score), "score {}", r.score);
    }

    #[test]
    fn constant_oracle() {
        let r = synth("7 - 7 + 1", 9);
        assert!(r.matches_all_samples);
        assert_eq!(
            r.expr.eval(&Valuation::new(), 64),
            1,
            "constant oracle missed: {}",
            r.expr
        );
    }
}
