//! The CDCL search engine.

use std::time::{Duration, Instant};

use crate::lit::{Lit, Var};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// A budget (conflicts, propagations, or wall clock) ran out first.
    Unknown,
}

/// Search statistics, cumulative across [`Solver::solve`] calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: u64,
    /// Learnt clauses deleted by database reduction.
    pub deleted: u64,
}

const UNDEF_CLAUSE: u32 = u32::MAX;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    lbd: u32,
    deleted: bool,
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// Activity-ordered variable heap (indexed binary max-heap).
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<Var>,
    position: Vec<i32>,
}

impl VarHeap {
    fn grow_to(&mut self, n: usize) {
        self.position.resize(n, -1);
    }

    fn contains(&self, v: Var) -> bool {
        self.position[v as usize] >= 0
    }

    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.position[v as usize] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.position[top as usize] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn on_bump(&mut self, v: Var, activity: &[f64]) {
        let pos = self.position[v as usize];
        if pos >= 0 {
            self.sift_up(pos as usize, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = a as i32;
        self.position[self.heap[b] as usize] = b as i32;
    }
}

/// A CDCL SAT solver; see the crate docs for the feature list.
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watcher>>,
    /// Per-variable assignment: 0 = unassigned, 1 = true, -1 = false.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    saved_phase: Vec<bool>,
    heap: VarHeap,
    seen: Vec<bool>,
    ok: bool,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    propagation_budget: Option<u64>,
    timeout: Option<Duration>,
    num_learnts: usize,
    restart_base: u64,
    var_decay: f64,
    preprocess: bool,
    preprocessed: bool,
    eliminated: Vec<bool>,
    elim_stack: Vec<ElimRecord>,
}

/// Bookkeeping for one eliminated variable: the original clauses it
/// occurred in, kept for model reconstruction.
#[derive(Debug)]
struct ElimRecord {
    var: Var,
    saved: Vec<Vec<Lit>>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ok: true,
            var_inc: 1.0,
            cla_inc: 1.0,
            restart_base: 100,
            var_decay: 0.95,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(0);
        self.level.push(0);
        self.reason.push(UNDEF_CLAUSE);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.eliminated.push(false);
        self.heap.grow_to(self.assign.len());
        self.heap.insert(v, &self.activity);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of problem (non-learnt) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| !c.learnt && !c.deleted)
            .count()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Limits the next [`Solver::solve`] to at most `conflicts`
    /// conflicts (cumulative count); `None` removes the limit.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.conflict_budget = conflicts.map(|c| self.stats.conflicts + c);
    }

    /// Limits the next [`Solver::solve`] to at most `propagations`
    /// propagated literals; `None` removes the limit.
    pub fn set_propagation_budget(&mut self, propagations: Option<u64>) {
        self.propagation_budget = propagations.map(|p| self.stats.propagations + p);
    }

    /// Wall-clock limit for the next [`Solver::solve`].
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Base interval (in conflicts) of the Luby restart schedule.
    ///
    /// # Panics
    ///
    /// Panics if `base` is 0.
    pub fn set_restart_base(&mut self, base: u64) {
        assert!(base > 0, "restart base must be positive");
        self.restart_base = base;
    }

    /// VSIDS activity decay factor (0 < decay < 1; smaller decays
    /// faster, focusing the search harder on recent conflicts).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < decay < 1`.
    pub fn set_var_decay(&mut self, decay: f64) {
        assert!(decay > 0.0 && decay < 1.0, "decay must be in (0, 1)");
        self.var_decay = decay;
    }

    /// Adds a clause. Returns `false` when the formula became trivially
    /// unsatisfiable (empty clause after level-0 simplification).
    ///
    /// # Panics
    ///
    /// Panics if called after a solving run has left decisions on the
    /// trail (this solver does not support incremental use) or if a
    /// literal's variable was never allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses must be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        // Deduplicate, drop false literals, detect tautologies.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort();
        sorted.dedup();
        for &l in &sorted {
            assert!((l.var() as usize) < self.assign.len(), "unknown variable");
            if sorted.contains(&!l) && l.is_positive() {
                return true; // tautology: x ∨ ¬x
            }
            match self.lit_value(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => {}          // drop
                None => clause.push(l),
            }
        }
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(clause[0], UNDEF_CLAUSE);
                // Propagate eagerly so later add_clause sees the
                // implications.
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(clause, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learnt: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        let w0 = Watcher {
            clause: cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        if learnt {
            self.num_learnts += 1;
            self.stats.learnts += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
            lbd,
            deleted: false,
        });
        cref
    }

    /// The current value of a variable (meaningful after `Sat`).
    pub fn value(&self, var: Var) -> Option<bool> {
        match self.assign[var as usize] {
            1 => Some(true),
            -1 => Some(false),
            _ => None,
        }
    }

    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.value(lit.var()).map(|v| v == lit.is_positive())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: u32) {
        debug_assert!(self.lit_value(lit).is_none());
        let v = lit.var() as usize;
        self.assign[v] = if lit.is_positive() { 1 } else { -1 };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation; returns the conflicting clause reference if a
    /// conflict arises.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut i = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.lit_value(w.blocker) == Some(true) {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let cref = w.clause as usize;
                if self.clauses[cref].deleted {
                    continue; // lazily drop watchers of deleted clauses
                }
                // Normalize: the false literal (¬p) goes to slot 1.
                if self.clauses[cref].lits[0] == !p {
                    self.clauses[cref].lits.swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cref].lits[1], !p);
                let first = self.clauses[cref].lits[0];
                let w_new = Watcher {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[kept] = w_new;
                    kept += 1;
                    continue;
                }
                // Search a replacement watch.
                for k in 2..self.clauses[cref].lits.len() {
                    let candidate = self.clauses[cref].lits[k];
                    if self.lit_value(candidate) != Some(false) {
                        self.clauses[cref].lits.swap(1, k);
                        self.watches[(!candidate).index()].push(w_new);
                        continue 'watchers;
                    }
                }
                // Unit or conflict.
                ws[kept] = w_new;
                kept += 1;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(w.clause);
                    // Keep the remaining watchers and stop.
                    while i < ws.len() {
                        ws[kept] = ws[i];
                        kept += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                } else {
                    self.enqueue(first, w.clause);
                }
            }
            ws.truncate(kept);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(0)]; // slot 0 placeholder
        let mut to_clear: Vec<Var> = Vec::new();
        let mut path_count = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            let cref = confl as usize;
            if self.clauses[cref].learnt {
                self.bump_clause(cref);
            }
            let start = usize::from(p.is_some());
            for k in start..self.clauses[cref].lits.len() {
                let q = self.clauses[cref].lits[k];
                let v = q.var();
                if !self.seen[v as usize] && self.level[v as usize] > 0 {
                    self.seen[v as usize] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v as usize] >= self.decision_level() {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            self.seen[pl.var() as usize] = false;
            path_count -= 1;
            if path_count == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.reason[pl.var() as usize];
            debug_assert_ne!(confl, UNDEF_CLAUSE);
        }

        // Clause minimization: drop literals implied by the rest.
        let original = learnt.clone();
        learnt.retain(|&l| {
            if l == learnt_first(&original) {
                return true;
            }
            !self.is_redundant(l)
        });

        // Compute the backtrack level and move its literal to slot 1.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var() as usize]
        };

        for v in to_clear {
            self.seen[v as usize] = false;
        }
        (learnt, bt_level)
    }

    /// A literal is redundant in the learnt clause if its reason exists
    /// and every literal of that reason is already seen (or at level 0).
    fn is_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var() as usize];
        if r == UNDEF_CLAUSE {
            return false;
        }
        self.clauses[r as usize]
            .lits
            .iter()
            .skip(1)
            .all(|&q| self.seen[q.var() as usize] || self.level[q.var() as usize] == 0)
    }

    fn lbd_of(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits.iter().map(|l| self.level[l.var() as usize]).collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        while self.trail.len() > bound {
            let lit = self.trail.pop().expect("non-empty trail");
            let v = lit.var() as usize;
            self.saved_phase[v] = lit.is_positive();
            self.assign[v] = 0;
            self.reason[v] = UNDEF_CLAUSE;
            self.heap.insert(lit.var(), &self.activity);
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v as usize] += self.var_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.on_bump(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: usize) {
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learnt) {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Removes the worst half of the learnt clauses (by LBD, then
    /// activity), keeping reasons and glue clauses.
    fn reduce_db(&mut self) {
        let mut locked = vec![false; self.clauses.len()];
        for l in &self.trail {
            let r = self.reason[l.var() as usize];
            if r != UNDEF_CLAUSE {
                locked[r as usize] = true;
            }
        }
        let mut candidates: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| {
                let c = &self.clauses[i];
                c.learnt && !c.deleted && !locked[i] && c.lbd > 2 && c.lits.len() > 2
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let ca = &self.clauses[a];
            let cb = &self.clauses[b];
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).expect("no NaN"))
        });
        let to_delete = candidates.len() / 2;
        for &i in candidates.iter().take(to_delete) {
            self.clauses[i].deleted = true;
            self.clauses[i].lits.clear();
            self.clauses[i].lits.shrink_to_fit();
            self.num_learnts -= 1;
            self.stats.deleted += 1;
        }
        // Watchers pointing at deleted clauses are dropped lazily in
        // propagate().
    }

    /// Enables SatELite-style bounded variable elimination as a
    /// preprocessing step of the next [`Solver::solve`] call (run once).
    pub fn set_preprocessing(&mut self, enabled: bool) {
        self.preprocess = enabled;
    }

    /// Bounded variable elimination: a variable whose positive/negative
    /// occurrences resolve into no more clauses than they replace is
    /// eliminated by resolution. Dramatically shrinks Tseitin CNF.
    ///
    /// Must run at decision level 0 before any learning. Eliminated
    /// variables are excluded from decisions and reconstructed into the
    /// model on `Sat`.
    fn eliminate_variables(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        // Occurrence lists over non-deleted problem clauses.
        let mut occ: Vec<Vec<usize>> = vec![Vec::new(); self.assign.len() * 2];
        for (i, c) in self.clauses.iter().enumerate() {
            if c.deleted || c.learnt {
                continue;
            }
            for &l in &c.lits {
                occ[l.index()].push(i);
            }
        }
        let mut order: Vec<Var> = (0..self.assign.len() as Var).collect();
        order.sort_by_key(|&v| {
            occ[Lit::positive(v).index()].len() + occ[Lit::negative(v).index()].len()
        });

        for v in order {
            if self.assign[v as usize] != 0 || self.eliminated[v as usize] {
                continue;
            }
            let live = |clauses: &Vec<Clause>, list: &[usize]| -> Vec<usize> {
                list.iter()
                    .copied()
                    .filter(|&i| !clauses[i].deleted)
                    .collect()
            };
            let pos = live(&self.clauses, &occ[Lit::positive(v).index()]);
            let neg = live(&self.clauses, &occ[Lit::negative(v).index()]);
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            // Cost bound: skip high-degree variables.
            if pos.len() * neg.len() > 16 || pos.len() + neg.len() > 12 {
                continue;
            }
            // Build all non-tautological resolvents on v.
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut too_many = false;
            'outer: for &pi in &pos {
                for &ni in &neg {
                    let mut r: Vec<Lit> = Vec::new();
                    let mut tautology = false;
                    for &l in self.clauses[pi]
                        .lits
                        .iter()
                        .chain(self.clauses[ni].lits.iter())
                    {
                        if l.var() == v {
                            continue;
                        }
                        if r.contains(&!l) {
                            tautology = true;
                            break;
                        }
                        if !r.contains(&l) {
                            r.push(l);
                        }
                    }
                    if tautology {
                        continue;
                    }
                    if r.len() > 12 {
                        too_many = true;
                        break 'outer;
                    }
                    resolvents.push(r);
                    if resolvents.len() > pos.len() + neg.len() {
                        too_many = true;
                        break 'outer;
                    }
                }
            }
            if too_many {
                continue;
            }
            // Commit: save originals, delete them, add resolvents.
            let mut saved = Vec::with_capacity(pos.len() + neg.len());
            for &i in pos.iter().chain(neg.iter()) {
                saved.push(self.clauses[i].lits.clone());
                self.clauses[i].deleted = true;
                self.clauses[i].lits.clear();
            }
            self.elim_stack.push(ElimRecord { var: v, saved });
            self.eliminated[v as usize] = true;
            for r in resolvents {
                // Route through add_clause: it drops level-0-false
                // literals, skips satisfied clauses, and propagates
                // units — attaching a raw clause whose watched literal
                // is already false would break the two-watched-literal
                // invariant and let the search miss the clause entirely.
                let before = self.clauses.len();
                if !self.add_clause(&r) {
                    return; // ok is already false
                }
                if self.clauses.len() > before {
                    let idx = before;
                    let lits = self.clauses[idx].lits.clone();
                    for &l in &lits {
                        occ[l.index()].push(idx);
                    }
                }
            }
        }
    }

    /// Extends a satisfying assignment over eliminated variables, in
    /// reverse elimination order (the SatELite reconstruction rule).
    fn reconstruct_model(&mut self) {
        for rec_idx in (0..self.elim_stack.len()).rev() {
            let v = self.elim_stack[rec_idx].var;
            // Default false; flip to true if some saved clause with the
            // positive literal is otherwise unsatisfied.
            let mut value = false;
            for ci in 0..self.elim_stack[rec_idx].saved.len() {
                let clause = &self.elim_stack[rec_idx].saved[ci];
                if !clause.contains(&Lit::positive(v)) {
                    continue;
                }
                let satisfied_by_rest = clause
                    .iter()
                    .any(|&l| l.var() != v && self.lit_value(l) == Some(true));
                if !satisfied_by_rest {
                    value = true;
                    break;
                }
            }
            self.assign[v as usize] = if value { 1 } else { -1 };
        }
    }

    /// Solves the formula under the configured budgets.
    pub fn solve(&mut self) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        let start = Instant::now();
        let mut restart_count: u64 = 0;
        let mut conflicts_since_restart: u64 = 0;
        let mut next_reduce: u64 = self.stats.conflicts + 2000;
        let mut next_timeout_props: u64 = self.stats.propagations + 4096;

        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        if self.preprocess && !self.preprocessed {
            self.preprocessed = true;
            self.eliminate_variables();
            if !self.ok {
                return SolveResult::Unsat;
            }
        }

        loop {
            // Budget checks (cheap enough to run per iteration).
            if self
                .conflict_budget
                .is_some_and(|b| self.stats.conflicts >= b)
                || self
                    .propagation_budget
                    .is_some_and(|b| self.stats.propagations >= b)
                || self.timeout.is_some_and(|t| {
                    // The clock is polled on conflict multiples *and*
                    // every ~4096 propagations: a unit-propagation-heavy
                    // instance can sit between conflicts indefinitely,
                    // and the conflict gate alone would never look at
                    // the clock again.
                    let due = self.stats.conflicts.is_multiple_of(64)
                        || self.stats.propagations >= next_timeout_props;
                    if self.stats.propagations >= next_timeout_props {
                        next_timeout_props = self.stats.propagations + 4096;
                    }
                    due && start.elapsed() >= t
                })
            {
                self.cancel_until(0);
                return SolveResult::Unknown;
            }

            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], UNDEF_CLAUSE);
                } else {
                    let lbd = self.lbd_of(&learnt);
                    let first = learnt[0];
                    let cref = self.attach_clause(learnt, true, lbd);
                    self.enqueue(first, cref);
                }
                self.var_inc /= self.var_decay;
                self.cla_inc /= 0.999;
                if self.stats.conflicts >= next_reduce {
                    self.reduce_db();
                    next_reduce = self.stats.conflicts + 2000 + 300 * self.stats.deleted / 100;
                }
            } else {
                // Restart?
                let limit = luby(restart_count) * self.restart_base;
                if conflicts_since_restart >= limit {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_since_restart = 0;
                    self.cancel_until(0);
                    continue;
                }
                // Decide.
                let mut decision = None;
                while let Some(v) = self.heap.pop_max(&self.activity) {
                    if self.assign[v as usize] == 0 && !self.eliminated[v as usize] {
                        decision = Some(v);
                        break;
                    }
                }
                let Some(v) = decision else {
                    self.reconstruct_model();
                    return SolveResult::Sat; // all variables assigned
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit::new(v, self.saved_phase[v as usize]), UNDEF_CLAUSE);
            }
        }
    }

    /// Resets the trail so the solver can be reused for another solve
    /// with the same clauses (e.g. after an `Unknown`).
    pub fn backtrack_to_root(&mut self) {
        self.cancel_until(0);
    }
}

fn learnt_first(learnt: &[Lit]) -> Lit {
    learnt[0]
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut x: u64) -> u64 {
    // Find the finite subsequence that contains index x and its size.
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(solver_vars: &[Var], i: i32) -> Lit {
        let v = solver_vars[(i.unsigned_abs() - 1) as usize];
        Lit::new(v, i > 0)
    }

    /// Builds a solver over `n` vars from DIMACS-style clause literals.
    fn build(n: usize, clauses: &[&[i32]]) -> (Solver, Vec<Var>) {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(&vars, i)).collect();
            s.add_clause(&lits);
        }
        (s, vars)
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivially_sat() {
        let (mut s, vars) = build(1, &[&[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(vars[0]), Some(true));
    }

    #[test]
    fn trivially_unsat() {
        let (mut s, _) = build(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let (mut s, _) = build(3, &[]);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn implication_chain_forces_assignment() {
        // 1, 1→2, 2→3, 3→4.
        let (mut s, vars) = build(4, &[&[1], &[-1, 2], &[-2, 3], &[-3, 4]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn xor_chain_sat_model_is_consistent() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1 encoded in CNF.
        let (mut s, vars) = build(3, &[&[1, 2], &[-1, -2], &[2, 3], &[-2, -3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let m: Vec<bool> = vars.iter().map(|&v| s.value(v).unwrap()).collect();
        assert_ne!(m[0], m[1]);
        assert_ne!(m[1], m[2]);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p_{i,j}: pigeon i in hole j. Vars 1..=6 as (i-1)*2 + j.
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        // Every pigeon in some hole.
        for i in 0..3 {
            clauses.push(vec![i * 2 + 1, i * 2 + 2]);
        }
        // No two pigeons share a hole.
        for j in 1..=2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    clauses.push(vec![-(a * 2 + j), -(b * 2 + j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let (mut s, _) = build(6, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let pigeons = 5i32;
        let holes = 4i32;
        let var = |i: i32, j: i32| i * holes + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| var(i, j)).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    clauses.push(vec![-var(a, j), -var(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let (mut s, _) = build((pigeons * holes) as usize, &refs);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn tautologies_and_duplicates_are_handled() {
        let (mut s, vars) = build(2, &[&[1, -1], &[2, 2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(vars[1]), Some(true));
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard instance with budget 0 conflicts must return Unknown
        // (unless solved by pure propagation — pigeonhole is not).
        let pigeons = 7i32;
        let holes = 6i32;
        let var = |i: i32, j: i32| i * holes + j + 1;
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for i in 0..pigeons {
            clauses.push((0..holes).map(|j| var(i, j)).collect());
        }
        for j in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    clauses.push(vec![-var(a, j), -var(b, j)]);
                }
            }
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let (mut s, _) = build((pigeons * holes) as usize, &refs);
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Remove the budget: solvable now.
        s.backtrack_to_root();
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn timeout_zero_yields_unknown_on_nontrivial_instance() {
        let (mut s, _) = build(3, &[&[1, 2], &[-1, 3], &[-3, -2], &[2, 3]]);
        s.set_timeout(Some(Duration::from_secs(0)));
        let r = s.solve();
        // Either it solved within the first propagation-only pass or it
        // reported Unknown; both are legal, but Unsat is not.
        assert_ne!(r, SolveResult::Unsat);
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, _) = build(3, &[&[1, 2, 3], &[-1, -2], &[-2, -3], &[-1, -3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert!(s.stats().decisions > 0);
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn model_satisfies_all_clauses_random_3sat() {
        // Deterministic pseudo-random 3-SAT at ratio ~3.0 (satisfiable
        // with high probability); verify the returned model.
        let n = 30usize;
        let m = 90usize;
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut clauses: Vec<Vec<i32>> = Vec::new();
        for _ in 0..m {
            let mut c = Vec::new();
            while c.len() < 3 {
                let v = (next() % n as u64) as i32 + 1;
                let l = if next() % 2 == 0 { v } else { -v };
                if !c.contains(&l) && !c.contains(&-l) {
                    c.push(l);
                }
            }
            clauses.push(c);
        }
        let refs: Vec<&[i32]> = clauses.iter().map(Vec::as_slice).collect();
        let (mut s, vars) = build(n, &refs);
        if s.solve() == SolveResult::Sat {
            for c in &clauses {
                let satisfied = c.iter().any(|&l| {
                    let value = s.value(vars[(l.unsigned_abs() - 1) as usize]).unwrap();
                    value == (l > 0)
                });
                assert!(satisfied, "model violates clause {c:?}");
            }
        } else {
            panic!("ratio-3.0 instance unexpectedly unsat/unknown");
        }
    }
}
