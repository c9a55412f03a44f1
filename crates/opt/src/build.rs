//! Shared helpers for cut resynthesis: evaluating a cut's function and
//! counting or building the AIG implementation of a factored form.
//!
//! [`build_expr`] walks the form's arena from the root by index, first
//! operand before second, a gate after its operands: node ids follow the
//! order `Aig::and` is called in, so that order is part of every fingerprint
//! (the arena itself lists a balanced tree level by level, which is not it).
//!
//! # Counting in arena order
//!
//! Counting does not edit the graph, so what it finds for a gate — the
//! literal it already exists as, its level, and whether it is new or reused
//! — depends on the gate's two operands only, and an operand names a
//! literal, a constant or an earlier gate.  [`ArenaCount`] therefore counts
//! the gates in the order the arena lists them, one entry per gate, and
//! reaches the total and the root level the walk from the root reaches: the
//! form is a tree whose every gate is used once, so the two orders visit the
//! same gates with the same operands.  [`count_new_nodes`] is that count
//! over the whole arena.
//!
//! # Counting stops where the reading cannot win
//!
//! A reading of the form gains `saved − new`, where `saved` is the size of
//! the cut-bounded MFFC and `new` the nodes the form adds.  The operator
//! takes a reading only when its gain reaches a *floor*: 1 (0 under
//! `zero_gain`), and one more than the best gain already found — the first
//! reading of a cut for the second, and rewrite's earlier cuts of the same
//! root.  So [`weigh`] counts each reading under the limit
//! `saved − floor` and drops it once past it, as ABC's
//! `Dec_GraphToNetworkCount` stops at `NodeMax` (Mishchenko et al.,
//! "DAG-aware AIG rewriting", DAC'06).  It counts *while the form is
//! written*: the cache shows it each gate as factoring appends it (or a hit
//! replays it), and the factoring stops at the gate where every reading has
//! passed its limit — on most cuts a few gates into a form of ~60.  A count
//! only grows, and the count of a prefix of the arena is at most the count
//! of the whole, so a dropped reading would have gained less than the floor,
//! and a reading counted to the end has its exact count and level.  Both
//! readings are counted under the floor the cut started with; the second is
//! then held to the floor the first one raised.  Every accept and commit is
//! therefore the one the unbounded count makes — node for node, as the
//! `#[cfg(test)]` reference of this file checks.
//!
//! A miss on an enabled cache stops where the count stops too, and stores
//! the prefix it wrote; a later count that outlives the prefix has the class
//! factored to the end ([`crate::cache`]).  So a cut costs only the
//! factoring its count reads.  The cut's function and its NPN representative
//! are written into two tables of the pass scratch, so weighing a cut
//! allocates no table.

use elf_aig::{Aig, Cut, Lit, NodeId};
use elf_sop::{FactoredForm, Gate, Term, TruthTable, MAX_VARS};

use crate::cache::{canonicalize_both, CutCache, NpnTransform};
use crate::operator::PassScratch;

/// A `u32` per graph slot that forgets every entry at once: an entry is
/// live while its epoch is the map's, so starting over costs an increment,
/// not a pass over the graph.
#[derive(Debug)]
pub(crate) struct SlotMap {
    entries: Vec<(u32, u32)>,
    /// Never 0, the epoch of a slot no entry was written to.
    epoch: u32,
}

impl Default for SlotMap {
    fn default() -> Self {
        SlotMap {
            entries: Vec::new(),
            epoch: 1,
        }
    }
}

impl SlotMap {
    /// Forgets every entry and makes room for each slot of `aig` (commits
    /// add nodes while a pass runs).
    pub(crate) fn clear(&mut self, aig: &Aig) {
        self.grow(aig);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: entries of epochs 1, 2, … would come back to life.
            self.entries.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Makes room for each slot of `aig`, keeping every entry; the new
    /// slots start unmapped.
    pub(crate) fn grow(&mut self, aig: &Aig) {
        if self.entries.len() < aig.num_slots() {
            self.entries.resize(aig.num_slots(), (0, 0));
        }
    }

    pub(crate) fn insert(&mut self, id: NodeId, value: u32) {
        self.entries[id.as_usize()] = (self.epoch, value);
    }

    pub(crate) fn get(&self, id: NodeId) -> Option<u32> {
        let (epoch, value) = self.entries[id.as_usize()];
        (epoch == self.epoch).then_some(value)
    }
}

/// The buffers a cut is simulated in: the order of its cone, one table per
/// leaf and cone node, where each one's table sits, and the walk that
/// orders the cone.
#[derive(Debug, Default)]
pub(crate) struct Simulation {
    /// The cone in evaluation order, the root last.
    pub(crate) order: Vec<NodeId>,
    /// The tables, laid out as [`simulate_cut`] documents.
    pub(crate) tables: Vec<u64>,
    /// The table slot of each leaf and cone node, by graph slot.
    pub(crate) slots: SlotMap,
    /// The depth-first stack of nodes to place.
    walk: Vec<NodeId>,
}

/// Computes the truth table of the cut's root as a function of its leaves.
///
/// Leaf `i` of the cut corresponds to truth-table variable `i`.  Each call
/// simulates in fresh buffers, the slot map among them, which is sized to
/// the graph; the operators reuse theirs across a pass.
///
/// # Panics
///
/// Panics if the cut has more than [`elf_sop::MAX_VARS`] leaves.
pub fn cut_truth_table(aig: &Aig, cut: &Cut) -> TruthTable {
    let mut truth = TruthTable::zeros(cut.num_leaves());
    cut_truth_table_in(aig, cut, &mut Simulation::default(), &mut truth);
    truth
}

/// [`cut_truth_table`] simulating in the caller's buffers and writing into
/// the caller's `truth`, so a pass that evaluates many cuts does not
/// allocate per cut.
pub(crate) fn cut_truth_table_in(
    aig: &Aig,
    cut: &Cut,
    simulation: &mut Simulation,
    truth: &mut TruthTable,
) {
    let words = simulate_cut(aig, cut, simulation);
    let tables = &simulation.tables;
    // The copy drops the bits a table of fewer than six variables lacks.
    truth.copy_from_words(&tables[tables.len() - words..], cut.num_leaves());
}

/// Simulates every cone node of `cut` over the cut's leaves, once, leaves the
/// cone in evaluation order in `simulation.order` and returns the number of
/// words per table.
///
/// The order is a depth-first walk from the root that stops at the leaves,
/// second fanin first, a node placed after its fanins (every fanin of a cone
/// node is a leaf or a cone node).  `simulation.tables` becomes one flat
/// buffer sized to the cut — per-call work must not scale with the arena.
/// Slot 0 stays constant false, slot `1 + i` holds leaf `i`'s projection and
/// slot `1 + num_leaves + j` the `j`-th node of the order;
/// `simulation.slots` maps the constant, each leaf and each cone node to its
/// slot, so a fanin is found in O(1).  Below six leaves a slot's single word
/// repeats the `2^n`-bit table to fill all 64 bits, so two slots are equal
/// as words exactly when they are equal as functions.
///
/// # Panics
///
/// Panics if the cut has more than [`elf_sop::MAX_VARS`] leaves.
pub(crate) fn simulate_cut(aig: &Aig, cut: &Cut, simulation: &mut Simulation) -> usize {
    let Simulation {
        order,
        tables,
        slots,
        walk,
    } = simulation;
    let num_vars = cut.num_leaves();
    assert!(
        num_vars <= elf_sop::MAX_VARS,
        "cut with {num_vars} leaves exceeds the supported truth-table width"
    );
    slots.clear(aig);
    for (&leaf, slot) in cut.leaves.iter().zip(1..) {
        slots.insert(leaf, slot);
    }
    slots.insert(NodeId::CONST0, 0);
    let words = 1usize << num_vars.saturating_sub(6);
    tables.clear();
    // Sized for the cone the cut lists, grown if the walk places more.
    tables.resize((1 + num_vars + cut.cone.len()) * words, 0);
    for (var, table) in tables[words..]
        .chunks_exact_mut(words)
        .take(num_vars)
        .enumerate()
    {
        for (index, word) in table.iter_mut().enumerate() {
            *word = TruthTable::var_word(var, index);
        }
    }
    // A node is placed once both its fanins have a slot: at once when they
    // have one, or else after the walk, to which it goes back under its
    // fanins (the second on top), has placed them.
    order.clear();
    walk.clear();
    walk.push(cut.root);
    while let Some(id) = walk.pop() {
        if slots.get(id).is_some() {
            continue;
        }
        let (f0, f1) = aig.fanins(id);
        let (Some(slot0), Some(slot1)) = (slots.get(f0.node()), slots.get(f1.node())) else {
            walk.extend([id, f0.node(), f1.node()]);
            continue;
        };
        // Where a fanin's table starts, and the mask that complements it.
        let operand = |lit: Lit, slot: u32| {
            let flip = if lit.is_complemented() { !0 } else { 0 };
            (slot as usize * words, flip)
        };
        let (at0, flip0) = operand(f0, slot0);
        let (at1, flip1) = operand(f1, slot1);
        let slot = 1 + num_vars + order.len();
        if tables.len() < (slot + 1) * words {
            tables.resize((slot + 1) * words, 0);
        }
        let (earlier, table) = tables.split_at_mut(slot * words);
        for (index, word) in table[..words].iter_mut().enumerate() {
            *word = (earlier[at0 + index] ^ flip0) & (earlier[at1 + index] ^ flip1);
        }
        slots.insert(id, slot as u32);
        order.push(id);
    }
    assert_eq!(
        order.last(),
        Some(&cut.root),
        "root is part of its own cone"
    );
    tables.truncate((1 + num_vars + order.len()) * words);
    words
}

/// Result of estimating the cost of implementing a factored form in an AIG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplementationCost {
    /// Number of new AND nodes that would have to be created (nodes already
    /// present in the graph are free).
    pub new_nodes: usize,
    /// Estimated level of the new root (based on current fanin levels).
    pub level: u32,
}

/// Estimates how many new AND nodes are needed to implement `expr` on top of
/// `leaf_lits`, reusing structurally hashed nodes that already exist.
///
/// Mirrors ABC's `Dec_GraphToNetworkCount`: it does not modify the graph.
/// `root` is the node being resynthesized; when the caller has dereferenced
/// the root's MFFC (the normal usage during gain evaluation), nodes inside
/// the MFFC — which are scheduled for deletion — are counted as *new* even
/// though they still exist in the hash table.  This makes the degenerate
/// candidate "rebuild the existing structure" cost exactly as much as it
/// saves, so its gain is zero.
pub fn count_new_nodes(
    aig: &Aig,
    expr: &FactoredForm,
    leaf_lits: &[Lit],
    root: Option<NodeId>,
) -> ImplementationCost {
    // A budget of one node per gate never runs out: each gate spends at
    // most one.
    let gates = expr.gates().len();
    let mut count = ArenaCount::default();
    count.start(leaf_lits, Some(gates));
    for &gate in expr.gates() {
        count.gate(aig, root, gate);
    }
    let new_nodes = count.budget.map_or(gates, |left| gates - left);
    let level = count.term(aig, expr.root()).1;
    ImplementationCost { new_nodes, level }
}

/// One reading's count of the nodes a form adds, taken gate by gate in
/// arena order (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ArenaCount {
    /// The literals the form's variables are read as.
    lits: [Lit; MAX_VARS],
    /// Per gate counted: the literal it already exists as, if any, and its
    /// estimated level.
    gates: Vec<(Option<Lit>, u32)>,
    /// How many more new nodes the reading may add; `None` once it has lost.
    budget: Option<usize>,
}

impl ArenaCount {
    fn start(&mut self, lits: &[Lit], budget: Option<usize>) {
        for (slot, &lit) in self.lits.iter_mut().zip(lits) {
            *slot = lit;
        }
        self.gates.clear();
        self.budget = budget;
    }

    /// What `term` already exists as, if anything, and its estimated level.
    fn term(&self, aig: &Aig, term: Term) -> (Option<Lit>, u32) {
        match term {
            Term::Const(value) => (Some(aig.constant(value)), 0),
            Term::Literal { var, negated } => {
                let lit = self.lits[usize::from(var)].complement_if(negated);
                (Some(lit), aig.level(lit.node()))
            }
            Term::Gate(index) => self.gates[index as usize],
        }
    }

    /// Counts the form's next gate; `root` is the node being resynthesized
    /// (see [`count_new_nodes`]).
    fn gate(&mut self, aig: &Aig, root: Option<NodeId>, gate: Gate) {
        let Gate {
            or,
            operands: [a, b],
        } = gate;
        let (la, level_a) = self.term(aig, a);
        let (lb, level_b) = self.term(aig, b);
        let found = match (la, lb) {
            // a | b is the complement of !a & !b.
            (Some(x), Some(y)) => aig.and_lookup(x.complement_if(or), y.complement_if(or)),
            _ => None,
        };
        // Nodes in the dereferenced MFFC (refs == 0) and the root itself
        // will be deleted by the commit, so reusing them still costs one
        // node.
        let reused = found
            .map(Lit::node)
            .is_some_and(|node| Some(node) != root && !(aig.is_and(node) && aig.refs(node) == 0));
        if !reused {
            self.budget = self.budget.and_then(|left| left.checked_sub(1));
        }
        self.gates.push(match found {
            None => (None, 1 + level_a.max(level_b)),
            // Constant folding may collapse the operator; the existing
            // literal's own level is a better estimate.
            Some(lit) => (Some(lit.complement_if(or)), aig.level(lit.node())),
        });
    }
}

/// Builds the AIG implementation of `expr` over `leaf_lits`, returning the
/// literal of the new root.
pub fn build_expr(aig: &mut Aig, expr: &FactoredForm, leaf_lits: &[Lit]) -> Lit {
    build_rec(aig, expr, expr.root(), leaf_lits)
}

fn build_rec(aig: &mut Aig, expr: &FactoredForm, term: Term, leaf_lits: &[Lit]) -> Lit {
    match term {
        Term::Const(value) => aig.constant(value),
        Term::Literal { var, negated } => leaf_lits[usize::from(var)].complement_if(negated),
        Term::Gate(index) => {
            let Gate {
                or,
                operands: [a, b],
            } = expr.gates()[index as usize];
            let x = build_rec(aig, expr, a, leaf_lits);
            let y = build_rec(aig, expr, b, leaf_lits);
            if or {
                aig.or(x, y)
            } else {
                aig.and(x, y)
            }
        }
    }
}

/// One way to implement a cut off the form of its NPN representative (the
/// reading rule of [`crate::cache`]'s module docs), and what it is worth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reading {
    /// The cut's leaf literals as the representative's variables.
    pub(crate) lits: [Lit; MAX_VARS],
    /// Whether the literal `build_expr` returns is complemented.
    pub(crate) complemented: bool,
    /// Nodes the commit frees minus nodes it adds.
    pub(crate) gain: i64,
}

/// Resynthesizes `scratch.cut`, whose root's cut-bounded MFFC — `saved`
/// nodes — is dereferenced: simulates the cut into `scratch.truth`,
/// canonicalizes it into `scratch.canonical` and [`weigh`]s its readings.
pub(crate) fn best_reading(
    aig: &Aig,
    cache: &CutCache,
    scratch: &mut PassScratch,
    saved: i64,
    bounds: (u32, i64),
) -> Option<Reading> {
    let cut = &scratch.cut;
    cut_truth_table_in(aig, cut, &mut scratch.simulation, &mut scratch.truth);
    let cut = (cut.root, leaf_lits(&cut.leaves));
    let readings = canonicalize_both(&scratch.truth, &mut scratch.canonical);
    weigh(aig, cache, scratch, cut, readings, saved, bounds)
}

/// The leaves' literals, in a table as wide as a cut's function can be.
pub(crate) fn leaf_lits(leaves: &[NodeId]) -> [Lit; MAX_VARS] {
    let mut lits = [Lit::FALSE; MAX_VARS];
    for (lit, leaf) in lits.iter_mut().zip(leaves) {
        *lit = leaf.lit();
    }
    lits
}

/// Weighs the readings of a cut of `root` over the leaves `leaf_lits` whose
/// function's NPN representative is `scratch.canonical` and `readings` its
/// transforms (as `canonicalize_both` returns them): the function's and,
/// where it is one of its own, the complement's.  The root's cut-bounded
/// MFFC — `saved` nodes — is dereferenced.  Maps the leaves for each
/// reading and counts both while `cache` writes the representative's form
/// into `scratch.form`, which stops at the gate where both have lost (see
/// the module docs).  Returns the reading of highest gain among those that
/// meet both bounds — a level not above `level_bound` and a gain of at
/// least `floor` — the first on a tie; `scratch.form` is whole whenever one
/// is returned.
pub(crate) fn weigh(
    aig: &Aig,
    cache: &CutCache,
    scratch: &mut PassScratch,
    (root, leaf_lits): (NodeId, [Lit; MAX_VARS]),
    (transform, complement): (NpnTransform, Option<NpnTransform>),
    saved: i64,
    (level_bound, floor): (u32, i64),
) -> Option<Reading> {
    let counts = &mut scratch.counts;
    let readings = [Some(transform), complement];
    // Past `saved - floor` new nodes the gain is below the floor.
    let limit = usize::try_from(saved - floor).ok();
    for (count, reading) in counts.iter_mut().zip(readings) {
        let lits = reading.map_or([Lit::FALSE; MAX_VARS], |t| t.leaf_map(&leaf_lits));
        count.start(&lits, reading.and(limit));
    }
    let form = &mut scratch.form;
    cache.form_into(&scratch.canonical, &mut scratch.factor, form, |form| {
        let gate = form.gates()[form.num_gates() - 1];
        let mut live = false;
        for count in counts.iter_mut().filter(|count| count.budget.is_some()) {
            count.gate(aig, Some(root), gate);
            live |= count.budget.is_some();
        }
        live
    });
    let (mut best, mut raised) = (None, floor);
    for ((count, reading), complemented) in counts.iter().zip(readings).zip([false, true]) {
        // A reading with budget left was counted over the whole form.
        let (Some(transform), Some(left)) = (reading, count.budget) else {
            continue;
        };
        // It needed `left` fewer than the `saved - floor` new nodes allowed.
        let gain = floor + left as i64;
        let level = count.term(aig, form.root()).1;
        if gain < raised || level > level_bound {
            continue;
        }
        raised = gain + 1;
        best = Some(Reading {
            lits: count.lits,
            complemented: transform.output_negated() != complemented,
            gain,
        });
    }
    best
}

/// Builds a replacement for `node` speculatively through `build` and commits
/// it with [`Aig::replace`], returning the achieved gain in AND nodes.
///
/// A degenerate replacement — one that reproduces `node` or depends on it —
/// is dropped together with every node `build` created: the graph stays
/// unchanged and the result is `None`.
pub(crate) fn commit_replacement(
    aig: &mut Aig,
    operator: &str,
    node: NodeId,
    build: impl FnOnce(&mut Aig) -> Lit,
) -> Option<i64> {
    let ands_before = aig.num_ands() as i64;
    aig.begin_speculation();
    let new_lit = build(aig);
    if new_lit.node() == node || aig.cone_contains(new_lit.node(), node) {
        aig.reject_speculation();
        return None;
    }
    aig.commit_speculation();
    crate::operator::debug_assert_commit_equivalence(aig, operator, node, new_lit);
    aig.replace(node, new_lit);
    Some(ands_before - aig.num_ands() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CutCacheConfig;
    use elf_aig::CutParams;
    use elf_circuits::epfl::{arithmetic_suite, Scale};
    use elf_sop::{factor_truth_table, FactorScratch};
    use proptest::prelude::{any, prop_assert_eq, ProptestConfig};

    /// The oracle of the cone order: the depth-first walk `simulate_cut`
    /// orders the cone by, as `elf-aig` ran it — cone membership by a linear
    /// scan, one visited flag per cone position — kept verbatim.
    fn cone_topological_oracle(cut: &Cut, aig: &Aig) -> Vec<NodeId> {
        let mut visited = vec![false; cut.cone.len()];
        let mut order = Vec::with_capacity(cut.cone.len());
        let mut stack = vec![(cut.root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            let Some(position) = cut.cone.iter().position(|&member| member == id) else {
                continue;
            };
            if std::mem::replace(&mut visited[position], true) {
                continue;
            }
            stack.push((id, true));
            let (f0, f1) = aig.fanins(id);
            stack.push((f0.node(), false));
            stack.push((f1.node(), false));
        }
        order
    }

    /// The oracle of the tables: each fanin found by its position among the
    /// leaves and the earlier nodes of the oracle's order.
    fn tables_oracle(aig: &Aig, cut: &Cut) -> Vec<u64> {
        let order = cone_topological_oracle(cut, aig);
        let num_vars = cut.num_leaves();
        let words = 1usize << num_vars.saturating_sub(6);
        let mut tables = vec![0; words];
        for var in 0..num_vars {
            tables.extend((0..words).map(|index| TruthTable::var_word(var, index)));
        }
        for (done, &node) in order.iter().enumerate() {
            let (f0, f1) = aig.fanins(node);
            let word = |lit: Lit, index: usize| {
                let slot = if lit.node().is_const0() {
                    0
                } else {
                    let mut members = cut.leaves.iter().chain(&order[..done]);
                    1 + members.position(|&id| id == lit.node()).unwrap()
                };
                tables[slot * words + index] ^ if lit.is_complemented() { !0 } else { 0 }
            };
            let table: Vec<u64> = (0..words).map(|i| word(f0, i) & word(f1, i)).collect();
            tables.extend(table);
        }
        tables
    }

    /// `best_reading` as it was before the bound: the readings of a whole
    /// form, each counted in full, the strict maximum among those not above
    /// `level_bound`, with no floor — the caller applies the accept rule.
    fn best_reading_unbounded(
        aig: &Aig,
        form: &FactoredForm,
        (transform, complement): (NpnTransform, Option<NpnTransform>),
        leaf_lits: &[Lit],
        node: NodeId,
        saved: i64,
        level_bound: u32,
    ) -> Option<Reading> {
        let mut best: Option<Reading> = None;
        for (transform, complemented) in [(Some(transform), false), (complement, true)] {
            let Some(transform) = transform else { continue };
            let lits = transform.leaf_map(leaf_lits);
            let cost = count_new_nodes(aig, form, &lits, Some(node));
            if cost.level > level_bound {
                continue;
            }
            let gain = saved - cost.new_nodes as i64;
            if best.is_none_or(|best| gain > best.gain) {
                best = Some(Reading {
                    lits,
                    complemented: transform.output_negated() != complemented,
                    gain,
                });
            }
        }
        best
    }

    /// What a caller commits off a reading.
    fn decision(reading: Option<Reading>) -> Option<([Lit; MAX_VARS], bool, i64)> {
        reading.map(|r| (r.lits, r.complemented, r.gain))
    }

    /// The cone order is the oracle's walk, node for node, fanins before
    /// fanouts, the root last; and the tables are the oracle's.
    #[test]
    fn simulation_order_is_the_cone_walk_and_ends_with_root() {
        let mut simulation = Simulation::default();
        for (name, aig) in arithmetic_suite(Scale::Tiny) {
            let nodes: Vec<NodeId> = aig.and_ids().collect();
            for node in nodes {
                let cut = aig.reconvergence_cut(node, &CutParams::default());
                simulate_cut(&aig, &cut, &mut simulation);
                let order = &simulation.order;
                assert_eq!(
                    *order,
                    cone_topological_oracle(&cut, &aig),
                    "{name} {node:?}"
                );
                assert_eq!(order.len(), cut.cone.len(), "{name} {node:?}");
                assert_eq!(order.last(), Some(&node), "{name} {node:?}");
                for (i, &id) in order.iter().enumerate() {
                    let (f0, f1) = aig.fanins(id);
                    for fanin in [f0.node(), f1.node()] {
                        if let Some(at) = order.iter().position(|&x| x == fanin) {
                            assert!(at < i, "{name} {node:?}: fanin after fanout");
                        }
                    }
                }
                assert_eq!(
                    simulation.tables,
                    tables_oracle(&aig, &cut),
                    "{name} {node:?}"
                );
            }
        }
    }

    /// When the epoch wraps, every entry is forgotten — none of an old
    /// epoch comes back to life — and the tables stay right.
    #[test]
    fn slot_map_epoch_wrap_forgets_every_entry() {
        let (_, aig) = arithmetic_suite(Scale::Tiny).swap_remove(0);
        let nodes: Vec<NodeId> = aig.and_ids().collect();
        let cuts: Vec<Cut> = nodes
            .iter()
            .map(|&node| aig.reconvergence_cut(node, &CutParams::default()))
            .collect();
        let mut simulation = Simulation::default();
        // Epoch 1 maps the first cut's nodes, and the wrap lands on 1 again.
        simulation.slots.epoch = 0;
        simulate_cut(&aig, &cuts[0], &mut simulation);
        simulation.slots.epoch = u32::MAX;
        simulation.slots.clear(&aig);
        assert_eq!(simulation.slots.epoch, 1);
        assert!(cuts[0]
            .leaves
            .iter()
            .chain(&cuts[0].cone)
            .all(|&id| simulation.slots.get(id).is_none()));
        simulation.slots.epoch = u32::MAX - 2;
        for cut in cuts.iter().take(8) {
            simulate_cut(&aig, cut, &mut simulation);
            assert_eq!(
                simulation.tables,
                tables_oracle(&aig, cut),
                "{:?}",
                cut.root
            );
        }
        assert_eq!(simulation.slots.epoch, 6, "the map wrapped on the way");
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Counting while the form is written, under the floor, decides what
        /// counting every node of the whole form does: per cut with nothing
        /// found before it (refactor), and with the best of the root's
        /// earlier cuts raising the floor (rewrite) — the same reading taken,
        /// or none on both sides; on a disabled cache, and on one enabled
        /// cache met cold and then warm; with and without zero-gain commits.
        /// Whenever a reading is taken, the form it reads is the whole form.
        #[test]
        fn bounded_readings_decide_as_the_unbounded_count(
            script in elf_circuits::script_strategy(40),
            zero_gain in any::<bool>(),
        ) {
            let mut aig = elf_circuits::scripted_circuit(6, &script);
            let (mut scratch, mut factor) = (PassScratch::new(), FactorScratch::default());
            let mut whole = FactoredForm::default();
            let accepted = i64::from(!zero_gain);
            let nodes: Vec<NodeId> = aig.and_ids().filter(|&id| aig.refs(id) > 0).collect();
            let enabled = CutCache::new(CutCacheConfig::default());
            for cache in [CutCache::disabled(), enabled.clone(), enabled] {
                for &node in &nodes {
                    let level_bound = aig.level(node);
                    let (mut bounded, mut reference) = (None::<Reading>, None::<Reading>);
                    for max_leaves in [3, 4, 6, 8, 10] {
                        let cut = aig.reconvergence_cut(node, &CutParams::with_max_leaves(max_leaves));
                        let truth = cut_truth_table(&aig, &cut);
                        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
                        let (transform, complement) =
                            CutCache::disabled().factor_both_into(&truth, &mut factor, &mut whole);
                        let readings = (transform, complement);
                        let saved = aig.deref_mffc_bounded(node, &cut.leaves) as i64;
                        let full =
                            best_reading_unbounded(&aig, &whole, readings, &leaf_lits, node, saved, level_bound);
                        scratch.cut.clone_from(&cut);
                        let mut weigh = |floor| {
                            let reading =
                                best_reading(&aig, &cache, &mut scratch, saved, (level_bound, floor));
                            assert!(reading.is_none() || scratch.form == whole, "a reading of part of a form");
                            reading
                        };
                        prop_assert_eq!(
                            decision(weigh(accepted)),
                            decision(full.filter(|r| r.gain >= accepted))
                        );
                        if let Some(reading) = weigh(bounded.map_or(accepted, |best| best.gain + 1)) {
                            bounded = Some(reading);
                        }
                        if let Some(reading) = full.filter(|r| reference.is_none_or(|best| r.gain > best.gain)) {
                            reference = Some(reading);
                        }
                        aig.ref_mffc_bounded(node, &cut.leaves);
                    }
                    prop_assert_eq!(
                        decision(bounded),
                        decision(reference.filter(|r| r.gain >= accepted))
                    );
                }
            }
        }
    }

    fn or_of_ands() -> (Aig, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let t0 = aig.and(a, b);
        let t1 = aig.and(a, c);
        let f = aig.or(t0, t1);
        aig.add_output(f);
        (aig, f)
    }

    #[test]
    fn cut_truth_table_matches_simulation() {
        let (aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        // Leaves are the three inputs; verify against direct evaluation.
        assert_eq!(cut.num_leaves(), 3);
        for m in 0..8usize {
            let mut assignment = vec![false; 3];
            for (i, &leaf) in cut.leaves.iter().enumerate() {
                // Map leaf index back to its input position.
                let pos = aig
                    .inputs()
                    .iter()
                    .position(|&x| x == leaf)
                    .expect("leaf is an input");
                assignment[pos] = m >> i & 1 == 1;
            }
            // The primary output is the complemented root literal (an OR is
            // built as a complemented AND), so compare against the root node.
            let out = aig.evaluate(&assignment)[0];
            let expected = if f.is_complemented() { !out } else { out };
            assert_eq!(tt.get_bit(m), expected, "mismatch at minterm {m}");
        }
    }

    #[test]
    fn count_matches_build_and_function_is_preserved() {
        let (mut aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        let expr = factor_truth_table(&tt);
        let cost = count_new_nodes(&aig, &expr, &leaf_lits, None);
        // Factored form a(b+c) needs 2 gates; at most 2 are new.
        assert!(cost.new_nodes <= 2);
        let before = aig.num_ands();
        let lit = build_expr(&mut aig, &expr, &leaf_lits);
        assert_eq!(aig.num_ands(), before + cost.new_nodes);
        // The rebuilt literal must match the function of the original root
        // node (the primary output is the complemented root).
        let mut check = aig.clone();
        check.add_output(f.node().lit());
        check.add_output(lit);
        let tables = check.output_truth_tables();
        assert_eq!(tables[1], tables[2]);
    }

    #[test]
    fn count_treats_dereferenced_mffc_as_new() {
        // Rebuilding the existing structure of a node whose MFFC has been
        // dereferenced must cost as many nodes as the MFFC contains, so the
        // identity rewrite has zero gain.
        let (mut aig, f) = or_of_ands();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let tt = cut_truth_table(&aig, &cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        let expr = factor_truth_table(&tt);
        let saved = aig.deref_mffc_bounded(f.node(), &[]);
        let cost = count_new_nodes(&aig, &expr, &leaf_lits, Some(f.node()));
        aig.ref_mffc_bounded(f.node(), &[]);
        // a(b+c) needs 2 nodes; the whole 3-node MFFC is saved, so the gain
        // estimate is positive but bounded by the real improvement.
        assert!(saved as i64 - cost.new_nodes as i64 <= 1);
        assert!(cost.new_nodes >= 2);
    }

    #[test]
    fn build_expr_constants_and_literals() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let leaf_lits = vec![a];
        let mut leaf = |term| build_expr(&mut aig, &FactoredForm::leaf(term), &leaf_lits);
        assert_eq!(leaf(Term::Const(false)), Lit::FALSE);
        assert_eq!(leaf(Term::Const(true)), Lit::TRUE);
        let negated = true;
        assert_eq!(leaf(Term::Literal { var: 0, negated }), !a);
        assert_eq!(aig.num_ands(), 0);
    }
}
