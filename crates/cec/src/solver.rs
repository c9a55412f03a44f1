//! A hand-rolled CDCL SAT solver.
//!
//! The solver is deliberately small but implements the complete modern
//! core: two-literal watched propagation, first-UIP conflict-clause
//! learning, VSIDS-style variable activities with phase saving, Luby
//! restarts, incremental solving under assumptions, and a conflict budget
//! that turns an over-hard query into [`SolveResult::Unknown`] instead of
//! running away.
//!
//! There is no clause-database reduction, no learnt-clause minimisation and
//! no blocker literal, and that is a debt, not a design.  It no longer
//! shows on this workspace's benchmark: the sweep loads each query's cone
//! alone and merges by structure, so every miter's sweep finishes inside
//! its half of a 3 000-conflict budget (`log2`'s too) and leaves the final
//! query little to search.  Minimisation is not the next lever either: a
//! MiniSat-style recursive minimisation, tried on the search before cone
//! loading, raised `log2`'s conflicts from 1 775 to 1 851 and its time with
//! them.  Each such lever changes which conflicts the search meets, so each
//! lands with its own before/after on the conflict counts (ROADMAP item 6);
//! what this module fixes is the cost *per* conflict.
//!
//! # Containers
//!
//! * **Branching order** — an indexed binary max-heap of variables
//!   (`VarHeap`) with a position per variable, keyed by `(activity bits,
//!   variable)`.  A bump sifts the variable up in place, a backtrack
//!   re-inserts only the variables that are absent, a decision pops; the keys
//!   are read from the activity table when two entries are compared, so the
//!   heap holds at most one entry per variable and never a stale key.
//! * **Clauses** — one flat literal arena with a `(start, len)` header per
//!   clause; watch lists and implication reasons hold `u32` clause indices.
//!   The watched literals are a clause's slots 0 and 1.
//! * **Watch lists** — one `u32` store holding every literal's list as a
//!   segment (`Watches`).  A full list moves to the end of the store with
//!   twice the room, keeping its order, so a list pushes and swap-removes as
//!   a `Vec` of its own would, and a variable costs no allocation.
//! * **Assignment** — one `LBool` per *literal*, written for both
//!   polarities when a variable is assigned, so reading a literal's value is
//!   one load.
//!
//! # The identity contract
//!
//! Up to the first activity rescale this solver takes the decisions, learns
//! the clauses and counts the conflicts of its predecessor, which kept the
//! order in a lazy `BinaryHeap<(u64, u32)>` (one entry per bump and per
//! unassignment, stale ones skipped on pop) and a `Vec` per clause: a key is a
//! total order, an unassigned variable always had a live entry with its
//! current key, and stale keys were smaller, so both heaps pop the same
//! variable; propagation keeps the same slot normalisation, replacement scan
//! and `swap_remove`, so watch order, trail order and the literal order
//! conflict analysis reads are the same.  `tests/cec_counts.rs` pins the
//! resulting counts.  At a rescale (`var_inc` passes `1e100`, ≈ 4 500
//! conflicts into one solver) the predecessor's stale entries kept their
//! pre-rescale bits and outranked every live key until they drained; here the
//! heap is re-ordered on the rescaled activities, which is the intended
//! order, and the two searches part ways.  The two also part where a
//! budget runs out: the predecessor gave up right after the conflict that
//! spent it, this solver at the next decision (see [`Solver::solve`]).
//!
//! The clause database persists across [`Solver::solve`] calls, which is
//! what makes the fraig-style sweep in [`crate::check_equivalence_with`]
//! incremental: the sweep adds clauses between calls as it loads new
//! cones, and every clause learnt along the way serves the later queries.

use std::ops::Not;

/// A propositional variable, created by [`Solver::new_var`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// The variable's dense 0-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> SatLit {
        SatLit(self.0 << 1)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> SatLit {
        SatLit(self.0 << 1 | 1)
    }

    /// The literal that is true exactly when the variable takes `value`.
    pub fn lit(self, value: bool) -> SatLit {
        if value {
            self.positive()
        } else {
            self.negative()
        }
    }
}

/// A literal: a [`Var`] or its negation, encoded as `2 * var + negated`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SatLit(u32);

impl SatLit {
    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// `true` for the negative literal.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// Dense index for watch lists and the value table.
    fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for SatLit {
    type Output = SatLit;

    fn not(self) -> SatLit {
        SatLit(self.0 ^ 1)
    }
}

/// Three-valued assignment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Outcome of one [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment exists (query the model with
    /// [`Solver::model_value`]).
    Sat,
    /// No satisfying assignment exists under the given assumptions.
    Unsat,
    /// The conflict budget ran out before a decision was reached.
    Unknown,
}

/// Restart interval base, multiplied by the Luby sequence.
const RESTART_BASE: u64 = 256;

/// VSIDS decay: activities shrink by this factor per conflict (implemented
/// by growing the increment).
const VAR_DECAY: f64 = 0.95;

/// When an activity passes `RESCALE_LIMIT`, all of them and the increment are
/// multiplied by `RESCALE`.
const RESCALE_LIMIT: f64 = 1e100;
const RESCALE: f64 = 1e-100;

/// Heap position of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// Indexed binary max-heap of branching candidates (see the module docs).
/// Every unassigned variable is in it; assigned ones may be, and are skipped
/// when popped.
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<u32>,
    /// Per variable: its index in `heap`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl VarHeap {
    /// Positive finite activities compare correctly through their bits; the
    /// variable breaks ties, so the order is total.
    fn key(activity: &[f64], v: u32) -> (u64, u32) {
        (activity[v as usize].to_bits(), v)
    }

    /// Registers a new variable (the next dense index) and inserts it.
    fn push_var(&mut self, activity: &[f64]) {
        let v = self.pos.len() as u32;
        self.pos.push(ABSENT);
        self.insert(v, activity);
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] == ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the order after `v`'s activity grew.
    fn increased(&mut self, v: u32, activity: &[f64]) {
        let at = self.pos[v as usize];
        if at != ABSENT {
            self.sift_up(at as usize, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            self.pos[last as usize] = ABSENT;
            return Some(last);
        };
        self.pos[top as usize] = ABSENT;
        self.heap[0] = last;
        self.sift_down(0, activity);
        Some(top)
    }

    /// Re-establishes the heap order from scratch (after a rescale, whose
    /// rounding may merge two activities that differed).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    /// Moves the entry at `i` towards the root until its parent outranks it.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let key = Self::key(activity, v);
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if Self::key(activity, above) > key {
                break;
            }
            self.heap[i] = above;
            self.pos[above as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Moves the entry at `i` towards the leaves until it outranks both
    /// children.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let key = Self::key(activity, v);
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::key(activity, self.heap[right]) > Self::key(activity, self.heap[left])
            {
                right
            } else {
                left
            };
            let below = self.heap[child];
            if key > Self::key(activity, below) {
                break;
            }
            self.heap[i] = below;
            self.pos[below as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

/// Per-literal watch lists as segments of one store (see the module docs).
#[derive(Debug, Default)]
struct Watches {
    store: Vec<u32>,
    /// Per literal code: `(start, len, capacity)` of its segment.
    lists: Vec<(u32, u32, u32)>,
}

impl Watches {
    /// Appends `clause` to `lit`'s list, first moving a full list to the end
    /// of the store with twice the room (at least four).
    fn push(&mut self, lit: SatLit, clause: u32) {
        let (mut start, len, cap) = self.lists[lit.code()];
        if len == cap {
            let cap = (2 * cap).max(4);
            assert!(self.store.len() + cap as usize <= u32::MAX as usize);
            let moved = self.store.len();
            self.store
                .extend_from_within(start as usize..(start + len) as usize);
            self.store.resize(moved + cap as usize, 0);
            start = moved as u32;
            self.lists[lit.code()] = (start, len, cap);
        }
        self.store[(start + len) as usize] = clause;
        self.lists[lit.code()].1 += 1;
    }

    /// Removes entry `i` of `lit`'s list; its last entry takes the place.
    fn swap_remove(&mut self, lit: SatLit, i: u32) {
        let (start, len, _) = &mut self.lists[lit.code()];
        *len -= 1;
        self.store[(*start + i) as usize] = self.store[(*start + *len) as usize];
    }
}

/// The CDCL solver (see the module docs).
#[derive(Debug, Default)]
pub struct Solver {
    /// The literals of every clause, original and learnt, back to back.
    lits: Vec<SatLit>,
    /// Per clause: `(start, len)` of its literals in `lits`; the watched
    /// literals are the first two.
    headers: Vec<(u32, u32)>,
    /// Per literal code: indices of clauses currently watching that literal.
    watches: Watches,
    /// Per literal code: current value (both polarities are kept in step).
    vals: Vec<LBool>,
    /// Per variable: last assigned polarity (phase saving).
    phase: Vec<bool>,
    /// Per variable: VSIDS activity.
    activity: Vec<f64>,
    var_inc: f64,
    /// Branching candidates by activity.
    order: VarHeap,
    trail: Vec<SatLit>,
    trail_lim: Vec<usize>,
    /// Per variable: index of the clause that implied it (`None` for
    /// decisions and assumption/level-0 enqueues).
    reason: Vec<Option<u32>>,
    /// Per variable: decision level of the assignment.
    level: Vec<u32>,
    /// Next trail position to propagate.
    qhead: usize,
    /// Scratch flags of conflict analysis.
    seen: Vec<bool>,
    /// The clause conflict analysis learnt last (asserting literal in slot
    /// 0), and the normalised clause inside `add_clause`.
    scratch: Vec<SatLit>,
    /// Model of the last `Sat` answer, per variable.
    model: Vec<bool>,
    /// The formula was proved unsatisfiable without assumptions.
    unsat: bool,
    /// Total conflicts over the solver's lifetime.
    conflicts: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ..Solver::default()
        }
    }

    /// Creates a fresh unassigned variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.phase.len() as u32;
        self.vals.extend([LBool::Undef; 2]);
        self.phase.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.lists.extend([(0, 0, 0); 2]);
        self.order.push_var(&self.activity);
        Var(v)
    }

    /// Makes room for `vars` more variables, and their three Tseitin
    /// clauses each, without growing a per-variable table or the arena.
    pub(crate) fn reserve(&mut self, vars: usize) {
        self.vals.reserve(2 * vars);
        self.phase.reserve(vars);
        self.activity.reserve(vars);
        self.reason.reserve(vars);
        self.level.reserve(vars);
        self.seen.reserve(vars);
        self.watches.lists.reserve(2 * vars);
        self.order.heap.reserve(vars);
        self.order.pos.reserve(vars);
        self.headers.reserve(3 * vars);
        self.lits.reserve(7 * vars);
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.phase.len()
    }

    /// Number of clauses held (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.headers.len()
    }

    /// Total conflicts across all [`Solver::solve`] calls.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Adds a clause (a disjunction of literals).  Returns `false` when the
    /// formula is now unsatisfiable without assumptions (an empty clause
    /// arose), `true` otherwise.  Tautologies and clauses already satisfied
    /// at level 0 are dropped silently.
    pub fn add_clause(&mut self, lits: &[SatLit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        if self.unsat {
            return false;
        }
        let mut clause = std::mem::take(&mut self.scratch);
        clause.clear();
        clause.extend_from_slice(lits);
        clause.sort_unstable();
        clause.dedup();
        // After sorting, a variable and its negation are adjacent.
        let redundant = clause.windows(2).any(|w| w[0].var() == w[1].var())
            || clause.iter().any(|&l| self.value(l) == LBool::True);
        if !redundant {
            clause.retain(|&l| self.value(l) != LBool::False);
            match clause.len() {
                0 => self.unsat = true,
                1 => {
                    self.enqueue(clause[0], None);
                    self.unsat = self.propagate().is_some();
                }
                _ => {
                    self.attach(&clause);
                }
            }
        }
        self.scratch = clause;
        !self.unsat
    }

    /// A fresh variable `n` tied to `a & b` by the three Tseitin clauses
    /// `(!n | a)`, `(!n | b)` and `(n | !a | !b)`, each stored exactly as
    /// [`Solver::add_clause`] would store it.  When `a` and `b` are unassigned
    /// literals of two variables, no clause has a literal to drop and `n` is
    /// the newest variable, so each clause is sorted once `!a` and `!b` are:
    /// they are attached as they stand.  Any other case takes `add_clause`.
    pub(crate) fn new_and(&mut self, a: SatLit, b: SatLit) -> Var {
        let n = self.new_var();
        if self.unsat
            || a.var() == b.var()
            || self.value(a) != LBool::Undef
            || self.value(b) != LBool::Undef
        {
            self.add_clause(&[n.negative(), a]);
            self.add_clause(&[n.negative(), b]);
            self.add_clause(&[n.positive(), !a, !b]);
        } else {
            self.attach(&[a, n.negative()]);
            self.attach(&[b, n.negative()]);
            let (x, y) = if !a < !b { (!a, !b) } else { (!b, !a) };
            self.attach(&[x, y, n.positive()]);
        }
        n
    }

    /// Solves under `assumptions` (each forced true for this call only),
    /// under a budget of `max_conflicts` conflicts when one is given.
    ///
    /// The budget is checked where MiniSat's `withinBudget` sits: before a
    /// decision.  [`SolveResult::Unknown`] comes at the first decision after
    /// the budget is spent, so whatever the clauses learnt so far decide by
    /// propagation alone (a failed assumption, a conflict at level 0, a full
    /// assignment) is still answered.  Conflicts met by that propagation may
    /// take the count past the budget, by at most the decision levels open
    /// when it was reached.
    ///
    /// The solver is left at decision level 0 afterwards: learnt clauses are
    /// kept, so repeated calls get cheaper, and [`Solver::add_clause`] may
    /// be called between solves.
    pub fn solve(&mut self, assumptions: &[SatLit], max_conflicts: Option<u64>) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        debug_assert!(self.trail_lim.is_empty());
        if self.propagate().is_some() {
            self.unsat = true;
            return SolveResult::Unsat;
        }
        let budget_end = max_conflicts.map(|b| self.conflicts.saturating_add(b));
        let mut restarts = 0u32;
        let mut limit = luby(restarts) * RESTART_BASE;
        let mut conflicts_in_restart = 0u64;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_in_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SolveResult::Unsat;
                }
                let backtrack = self.analyze(conflict);
                self.cancel_until(backtrack);
                self.record_learnt();
                self.var_inc /= VAR_DECAY;
                if conflicts_in_restart >= limit {
                    conflicts_in_restart = 0;
                    restarts += 1;
                    limit = luby(restarts) * RESTART_BASE;
                    self.cancel_until(0);
                }
            } else {
                // Assumptions occupy the first decision levels; already-true
                // assumptions get an empty level so indices line up.
                let mut next = None;
                let mut failed = false;
                while self.decision_level() < assumptions.len() {
                    let p = assumptions[self.decision_level()];
                    match self.value(p) {
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        LBool::False => {
                            failed = true;
                            break;
                        }
                        LBool::Undef => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                if failed {
                    self.cancel_until(0);
                    return SolveResult::Unsat;
                }
                let decision = match next {
                    Some(p) => Some(p),
                    None => self.pick_branch(),
                };
                match decision {
                    Some(p) if budget_end.is_some_and(|end| self.conflicts >= end) => {
                        // A branch was popped from the heap: put it back.
                        self.order.insert(p.var().0, &self.activity);
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                    Some(p) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(p, None);
                    }
                    None => {
                        self.model.clear();
                        let positive = self.vals.iter().step_by(2);
                        self.model.extend(positive.map(|&v| v == LBool::True));
                        self.cancel_until(0);
                        return SolveResult::Sat;
                    }
                }
            }
        }
    }

    /// The value of `var` in the model of the last `Sat` answer (`false`
    /// when the variable did not exist yet, or was never assigned).
    pub fn model_value(&self, var: Var) -> bool {
        self.model.get(var.index()).copied().unwrap_or(false)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn value(&self, lit: SatLit) -> LBool {
        self.vals[lit.code()]
    }

    fn enqueue(&mut self, lit: SatLit, reason: Option<u32>) {
        let v = lit.var().index();
        debug_assert_eq!(self.value(lit), LBool::Undef);
        self.vals[lit.code()] = LBool::True;
        self.vals[(!lit).code()] = LBool::False;
        self.phase[v] = !lit.is_negated();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(lit);
    }

    /// Appends a clause of at least two literals to the arena, watching its
    /// first two; returns its index.
    fn attach(&mut self, clause: &[SatLit]) -> u32 {
        // Clause references and arena offsets are `u32`s.
        assert!(self.lits.len() + clause.len() <= u32::MAX as usize);
        let index = self.headers.len() as u32;
        self.watches.push(clause[0], index);
        self.watches.push(clause[1], index);
        self.headers
            .push((self.lits.len() as u32, clause.len() as u32));
        self.lits.extend_from_slice(clause);
        index
    }

    /// Propagates all queued assignments; returns the index of a falsified
    /// clause on conflict.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            // Pushes go to other lists, so this one stays where it is.
            let watching = self.watches.lists[false_lit.code()].0;
            let mut i = 0;
            let mut conflict = None;
            'clauses: while i < self.watches.lists[false_lit.code()].1 {
                let ci = self.watches.store[(watching + i) as usize];
                let (start, len) = self.headers[ci as usize];
                let clause = &mut self.lits[start as usize..(start + len) as usize];
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                let first = clause[0];
                if self.vals[first.code()] == LBool::True {
                    i += 1;
                    continue;
                }
                for k in 2..clause.len() {
                    if self.vals[clause[k].code()] != LBool::False {
                        clause.swap(1, k);
                        // `clause[1]` is not false, so it cannot be
                        // `false_lit` and never targets the list walked.
                        self.watches.push(clause[1], ci);
                        self.watches.swap_remove(false_lit, i);
                        continue 'clauses;
                    }
                }
                if self.vals[first.code()] == LBool::False {
                    conflict = Some(ci);
                    break;
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis: leaves the learnt clause in `scratch`
    /// (asserting literal in slot 0, deepest remaining literal in slot 1)
    /// and returns the backtrack level.
    fn analyze(&mut self, conflict: u32) -> usize {
        let current = self.decision_level() as u32;
        let mut learnt = std::mem::take(&mut self.scratch);
        learnt.clear();
        learnt.push(SatLit(0));
        let mut counter = 0usize;
        let mut along_trail = false;
        let mut index = self.trail.len();
        let mut clause = conflict;
        loop {
            // A reason clause implies its slot-0 literal — skip it when
            // walking backwards along the trail.
            let (start, len) = self.headers[clause as usize];
            let skip = start + u32::from(along_trail);
            for pos in skip..start + len {
                let q = self.lits[pos as usize];
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            let uip_candidate = loop {
                index -= 1;
                let lit = self.trail[index];
                if self.seen[lit.var().index()] {
                    break lit;
                }
            };
            self.seen[uip_candidate.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !uip_candidate;
                break;
            }
            clause = match self.reason[uip_candidate.var().index()] {
                Some(r) => r,
                None => unreachable!("a non-UIP conflict-level literal is always implied"),
            };
            along_trail = true;
        }
        let backtrack = if learnt.len() == 1 {
            0
        } else {
            let mut deepest = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[deepest].var().index()] {
                    deepest = i;
                }
            }
            learnt.swap(1, deepest);
            self.level[learnt[1].var().index()] as usize
        };
        for &q in &learnt[1..] {
            self.seen[q.var().index()] = false;
        }
        self.scratch = learnt;
        backtrack
    }

    /// Installs the clause `analyze` left in `scratch` and enqueues its
    /// asserting literal.
    fn record_learnt(&mut self) {
        let learnt = std::mem::take(&mut self.scratch);
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            self.enqueue(learnt[0], None);
        } else {
            let index = self.attach(&learnt);
            self.enqueue(learnt[0], Some(index));
        }
        self.scratch = learnt;
    }

    fn cancel_until(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let target = self.trail_lim[target_level];
        for &lit in &self.trail[target..] {
            let v = lit.var();
            self.vals[lit.code()] = LBool::Undef;
            self.vals[(!lit).code()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.order.insert(v.0, &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<SatLit> {
        while let Some(v) = self.order.pop(&self.activity) {
            let var = Var(v);
            if self.value(var.positive()) == LBool::Undef {
                return Some(var.lit(self.phase[var.index()]));
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= RESCALE;
            }
            self.var_inc *= RESCALE;
            self.order.rebuild(&self.activity);
        } else {
            self.order.increased(v as u32, &self.activity);
        }
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, ... (as powers of two).
fn luby(x: u32) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < u64::from(x) + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    let mut x = u64::from(x);
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        assert!(solver.add_clause(&[v[0].positive(), v[1].positive()]));
        assert_eq!(solver.solve(&[], None), SolveResult::Sat);
        assert!(solver.model_value(v[0]) || solver.model_value(v[1]));

        assert!(solver.add_clause(&[v[0].negative()]));
        // `!v0` forces `v1` at level 0, so `!v1` is the empty clause.
        assert!(!solver.add_clause(&[v[1].negative()]));
        assert_eq!(solver.solve(&[], None), SolveResult::Unsat);
        // Once unsat, always unsat.
        assert_eq!(solver.solve(&[], None), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_transient() {
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        // v0 -> v1
        assert!(solver.add_clause(&[v[0].negative(), v[1].positive()]));
        assert_eq!(
            solver.solve(&[v[0].positive(), v[1].negative()], None),
            SolveResult::Unsat
        );
        // Without the contradictory assumptions the formula is satisfiable.
        assert_eq!(solver.solve(&[], None), SolveResult::Sat);
        assert_eq!(solver.solve(&[v[0].positive()], None), SolveResult::Sat);
        assert!(solver.model_value(v[1]));
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // Two pigeons, one hole: p0 and p1 both in hole, but not together.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        assert!(solver.add_clause(&[v[0].positive()]));
        assert!(solver.add_clause(&[v[1].positive()]));
        assert!(!solver.add_clause(&[v[0].negative(), v[1].negative()]));
        assert_eq!(solver.solve(&[], None), SolveResult::Unsat);
    }

    #[test]
    fn php_3_pigeons_2_holes_needs_real_search() {
        // var p_{i,h}: pigeon i sits in hole h.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 6);
        let p = |i: usize, h: usize| v[i * 2 + h];
        for i in 0..3 {
            assert!(solver.add_clause(&[p(i, 0).positive(), p(i, 1).positive()]));
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    assert!(solver.add_clause(&[p(i, h).negative(), p(j, h).negative()]));
                }
            }
        }
        assert_eq!(solver.solve(&[], None), SolveResult::Unsat);
        assert!(solver.num_conflicts() > 0);
    }

    /// Pigeonhole: `pigeons` into `pigeons - 1` holes, unsatisfiable and
    /// resolution-hard enough to need dozens of conflicts.
    fn pigeonhole(solver: &mut Solver, pigeons: usize) {
        let holes = pigeons - 1;
        let v = vars(solver, pigeons * holes);
        let p = |i: usize, h: usize| v[i * holes + h];
        for i in 0..pigeons {
            let somewhere: Vec<SatLit> = (0..holes).map(|h| p(i, h).positive()).collect();
            assert!(solver.add_clause(&somewhere));
        }
        for h in 0..holes {
            for i in 0..pigeons {
                for j in (i + 1)..pigeons {
                    assert!(solver.add_clause(&[p(i, h).negative(), p(j, h).negative()]));
                }
            }
        }
    }

    /// Every unassigned variable is in the heap, positions and entries agree,
    /// and no child outranks its parent.
    fn assert_heap_is_consistent(solver: &Solver) {
        let VarHeap { heap, pos } = &solver.order;
        assert_eq!(pos.len(), solver.num_vars());
        for (i, &v) in heap.iter().enumerate() {
            assert_eq!(pos[v as usize], i as u32, "entry {i} and its position");
            if i > 0 {
                let parent = heap[(i - 1) / 2];
                assert!(
                    VarHeap::key(&solver.activity, parent) > VarHeap::key(&solver.activity, v),
                    "variable {v} outranks its parent {parent}"
                );
            }
        }
        for (v, &at) in pos.iter().enumerate() {
            assert!(at == ABSENT || heap[at as usize] == v as u32);
            if solver.value(Var(v as u32).positive()) == LBool::Undef {
                assert_ne!(at, ABSENT, "unassigned variable {v} left the heap");
            }
        }
    }

    #[test]
    fn the_branching_heap_survives_an_activity_rescale() {
        let mut solver = Solver::new();
        pigeonhole(&mut solver, 6);
        // A dozen bumps from the limit: the search rescales almost at once,
        // and several times before it is done.
        solver.var_inc = RESCALE_LIMIT / 16.0;
        assert_eq!(solver.solve(&[], Some(40)), SolveResult::Unknown);
        assert!(solver.var_inc < 1.0, "no rescale happened");
        assert!(solver.activity.iter().all(|&a| a <= RESCALE_LIMIT));
        assert_heap_is_consistent(&solver);

        assert_eq!(solver.solve(&[], None), SolveResult::Unsat);
        assert_heap_is_consistent(&solver);
    }

    #[test]
    fn a_zero_budget_query_returns_unknown_on_hard_instances() {
        // A random-ish 3-SAT instance that needs at least one conflict.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 8);
        let lit = |i: usize, sign: bool| v[i % 8].lit(sign);
        for i in 0..24 {
            let c = [
                lit(i, i % 3 == 0),
                lit(i + 3, i % 2 == 0),
                lit(i + 5, i % 5 == 0),
            ];
            solver.add_clause(&c);
        }
        let result = solver.solve(&[], Some(0));
        assert!(
            result == SolveResult::Unknown || result == SolveResult::Sat,
            "a zero budget may only fail by running out, got {result:?}"
        );
        // With an ample budget the same instance resolves definitively.
        let result = solver.solve(&[], Some(1_000_000));
        assert_ne!(result, SolveResult::Unknown);
    }

    #[test]
    fn a_budget_of_one_still_answers_what_its_learnt_clause_decides() {
        // (a | b)(a | !b)(!a | b)(!a | !b): the first decision conflicts,
        // the learnt unit then conflicts at level 0 by propagation alone.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 2);
        let (a, b) = (v[0], v[1]);
        for (x, y) in [(true, true), (true, false), (false, true), (false, false)] {
            assert!(solver.add_clause(&[a.lit(x), b.lit(y)]));
        }
        assert_eq!(solver.solve(&[], Some(1)), SolveResult::Unsat);
        assert_eq!(solver.num_conflicts(), 2);
    }

    #[test]
    fn xor_chain_equivalence_is_unsat() {
        // Tseitin-style: y = a ^ b encoded twice, outputs constrained to
        // differ — unsatisfiable.
        let mut solver = Solver::new();
        let v = vars(&mut solver, 4); // a, b, y1, y2
        let (a, b, y1, y2) = (v[0], v[1], v[2], v[3]);
        for y in [y1, y2] {
            assert!(solver.add_clause(&[y.negative(), a.positive(), b.positive()]));
            assert!(solver.add_clause(&[y.negative(), a.negative(), b.negative()]));
            assert!(solver.add_clause(&[y.positive(), a.negative(), b.positive()]));
            assert!(solver.add_clause(&[y.positive(), a.positive(), b.negative()]));
        }
        assert_eq!(
            solver.solve(&[y1.positive(), y2.negative()], None),
            SolveResult::Unsat
        );
        assert_eq!(
            solver.solve(&[y1.negative(), y2.positive()], None),
            SolveResult::Unsat
        );
        assert_eq!(solver.solve(&[y1.positive()], None), SolveResult::Sat);
        assert!(solver.model_value(a) != solver.model_value(b));
    }
}
