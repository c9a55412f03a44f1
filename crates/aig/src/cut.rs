//! Reconvergence-driven cuts and the structural cut features used by ELF.
//!
//! The refactor operator forms one large cut per node using the
//! reconvergence-driven expansion of Mishchenko et al. (mirroring ABC's
//! `abcReconv.c`): starting from the fanins of the root, the leaf whose
//! expansion adds the fewest new leaves is repeatedly replaced by its fanins,
//! preferring expansions that close reconvergent paths.
//!
//! ELF represents every cut with six lightweight structural features (paper
//! Section III-C, Figure 2): root fanout, root level, total cut fanout, cut
//! size, number of reconvergent nodes and number of leaves.
//!
//! # Choosing the leaf to expand
//!
//! Each round replaces the leaf of lowest expansion cost (the number of its
//! fanins not yet in the cut) that the cost and leaf bounds still allow,
//! the first such leaf in the list on a tie, by its fanins (`swap_remove`,
//! then the new leaves pushed in fanin order).  A leaf's cost changes only
//! when one of its fanins is newly marked, so [`CutScratch`] keeps every
//! leaf's cost and fanins beside the leaf list, lowers a cost when an
//! expansion marks one of that leaf's fanins, and reads the graph only for
//! the leaves an expansion adds.  Both bounds cap the cost, so the pick is
//! the smallest `(cost, index)` key over all leaves — one compare per leaf,
//! no branch — followed by one check of that key's cost against the bounds.
//! The engine that re-evaluated every leaf's cost from the graph each round
//! survives under `#[cfg(test)]` as the oracle the cuts are compared with,
//! leaf for leaf and in order.
//!
//! # Counting the features from the fanin side
//!
//! Two of the features are defined over fanout edges: the *cut fanout* is
//! the number of edges leaving the cone (a cone node's fanout whose consumer
//! is outside the cone, primary outputs included), and a *reconvergent* node
//! is a leaf, or a cone node other than the root, with two or more consumers
//! inside the cone.  Walking fanout lists to count them costs the fanout of
//! every leaf — dozens of edges for a primary input of a multiplier — and a
//! cone lookup per edge.  [`Aig::cut_features_with`] reads the same numbers
//! off the cone's fanin edges instead:
//!
//! * every AND node has exactly two fanin edges, and the fanout list of a
//!   node holds exactly one record per fanin edge that names it plus one per
//!   primary output it drives — its `refs` (`Aig::check_invariants` asserts
//!   both);
//! * so the consumers of a node *inside the cone* are exactly the cone's
//!   fanin edges that name it: a node or leaf is reconvergent when two or
//!   more cone fanin edges name it (a consumer whose two fanins are the same
//!   node counts twice, as its two fanout records do);
//! * and the cut fanout is `Σ refs` over the cone minus the cone's fanin
//!   edges that land inside the cone.
//!
//! Each cone fanin edge is tallied once in a per-slot count column of the
//! scratch, each leaf and cone node reads its count, and the edges are
//! walked once more to put the column back to zero: `O(|cone| + |leaves|)`
//! per cut, whatever the leaves' fanout, where comparing every cone edge
//! with blocks of 64 leaves and cone nodes was `O(|cone| × (|cone| +
//! |leaves|) / 64)` lane compares.  The counts are equal, so the `f32`
//! features are bit-identical to the fanout scan, which survives as the
//! oracle of `crates/opt/tests/features.rs`.

use crate::aig::Aig;
use crate::lit::NodeId;

/// A reconvergence-driven cut rooted at a single AND node.
///
/// `leaves` are the boundary nodes (inputs of the cut), `cone` contains the
/// internal nodes including the root, in the order the cut engine collected
/// them — not an evaluation order: an operator that evaluates the cone
/// orders it itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The root node of the cut.
    pub root: NodeId,
    /// The cut boundary: every path from a primary input to the root passes
    /// through exactly one leaf.
    pub leaves: Vec<NodeId>,
    /// The internal nodes of the cut, including the root, excluding leaves.
    pub cone: Vec<NodeId>,
}

impl Cut {
    /// Creates an empty cut rooted at the constant node, intended as a
    /// reusable buffer for [`Aig::reconvergence_cut_into`].
    pub fn empty() -> Self {
        Cut {
            root: NodeId::CONST0,
            leaves: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// Number of leaves of the cut.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of nodes spanned by the cut (internal nodes plus leaves).
    pub fn size(&self) -> usize {
        self.cone.len() + self.leaves.len()
    }
}

/// Parameters of reconvergence-driven cut computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutParams {
    /// Maximum number of leaves (ABC's `nNodeSizeMax`, default 10 for refactor).
    pub max_leaves: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams { max_leaves: 10 }
    }
}

impl CutParams {
    /// Creates parameters with the given leaf bound.
    pub fn with_max_leaves(max_leaves: usize) -> Self {
        CutParams { max_leaves }
    }
}

/// The six structural cut features used by the ELF classifier (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CutFeatures {
    /// Fanout count of the root node.
    pub root_fanout: f32,
    /// Logic level of the root node.
    pub root_level: f32,
    /// Total number of edges leaving the cut's internal nodes (root included).
    pub cut_fanout: f32,
    /// Number of nodes spanned by the cut (internal nodes plus leaves).
    pub cut_size: f32,
    /// Number of internal nodes with two or more fanouts inside the cut,
    /// i.e. sources of locally reconvergent paths.
    pub reconvergent: f32,
    /// Number of leaves.
    pub leaves: f32,
}

/// Number of features in [`CutFeatures`].
pub const NUM_FEATURES: usize = 6;

/// Human-readable names of the six features, in the order produced by
/// [`CutFeatures::to_array`].
pub const FEATURE_NAMES: [&str; NUM_FEATURES] = [
    "root_fanout",
    "root_level",
    "cut_fanout",
    "cut_size",
    "reconvergent_nodes",
    "leaves",
];

impl CutFeatures {
    /// Returns the features as a fixed-size array, in [`FEATURE_NAMES`] order.
    pub fn to_array(&self) -> [f32; NUM_FEATURES] {
        [
            self.root_fanout,
            self.root_level,
            self.cut_fanout,
            self.cut_size,
            self.reconvergent,
            self.leaves,
        ]
    }
}

/// Reusable, graph-independent scratch state for read-only cut computation.
///
/// [`Aig::reconvergence_cut_with`] keeps its visited marks and DFS stack in
/// this value, never in the graph, so any number of threads can
/// compute cuts over a shared `&Aig` concurrently — each worker owns one
/// `CutScratch` (and one [`Cut`] buffer) and reuses it across nodes, keeping
/// steady-state cut computation allocation-free.
///
/// # Examples
///
/// ```
/// use elf_aig::{Aig, Cut, CutParams, CutScratch};
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a, b);
/// aig.add_output(f);
///
/// let mut scratch = CutScratch::new();
/// let mut cut = Cut::empty();
/// // Immutable graph access: safe to run from many threads at once.
/// aig.reconvergence_cut_with(f.node(), &CutParams::default(), &mut scratch, &mut cut);
/// assert_eq!(cut.num_leaves(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CutScratch {
    /// Per-slot visit marks, compared against `travid`.
    marks: Vec<u32>,
    travid: u32,
    /// Reusable DFS stack for cone collection.
    stack: Vec<NodeId>,
    /// Per leaf of the cut being formed, in leaf order: its expansion cost
    /// and the fanins that cost still counts.
    leaf_costs: Vec<LeafCost>,
    /// Per slot: the cone fanin edges naming it, zero between calls of
    /// [`Aig::cut_features_with`].
    counts: Vec<u32>,
}

/// What expanding one leaf of the cut being formed would cost.
#[derive(Debug, Clone, Copy)]
struct LeafCost {
    /// The leaf's fanins not yet in the cut ([`NO_EXPANSION`] for a leaf
    /// that is not an AND node).
    cost: u32,
    /// The fanins `cost` counts, a marked node (the leaf itself) standing in
    /// for one it never will: a repeated fanin, or both of a non-AND leaf.
    fanins: [NodeId; 2],
}

/// The cost of a leaf that cannot be expanded (an input or the constant).
/// Above every real cost (at most 2), so no bound ever admits it.
const NO_EXPANSION: u32 = 3;

/// Maximum fanin cost of a leaf that may still be expanded (ABC's 2): every
/// AND leaf qualifies, a leaf at [`NO_EXPANSION`] never does.
const MAX_EXPANSION_COST: u32 = 2;

impl CutScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        CutScratch::default()
    }

    /// Starts a new traversal over a graph with `num_slots` node slots.
    fn begin(&mut self, num_slots: usize) {
        if self.marks.len() < num_slots {
            self.marks.resize(num_slots, 0);
        }
        if self.travid == u32::MAX {
            self.marks.iter_mut().for_each(|m| *m = 0);
            self.travid = 0;
        }
        self.travid += 1;
    }

    #[inline]
    fn mark(&mut self, id: NodeId) {
        self.marks[id.as_usize()] = self.travid;
    }

    #[inline]
    fn is_marked(&self, id: NodeId) -> bool {
        self.marks[id.as_usize()] == self.travid
    }
}

thread_local! {
    /// The scratch of the entry points that are handed none, one per thread.
    static THREAD_SCRATCH: std::cell::Cell<CutScratch> = std::cell::Cell::default();
}

/// Runs `f` on this thread's [`THREAD_SCRATCH`].  A nested call gets a fresh
/// scratch, which forms the same cuts.
fn with_thread_scratch<R>(f: impl FnOnce(&mut CutScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| {
        let mut scratch = cell.take();
        let result = f(&mut scratch);
        cell.set(scratch);
        result
    })
}

impl Aig {
    /// Computes a reconvergence-driven cut rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live AND node or if `params.max_leaves < 2`.
    pub fn reconvergence_cut(&self, root: NodeId, params: &CutParams) -> Cut {
        let mut cut = Cut::empty();
        self.reconvergence_cut_into(root, params, &mut cut);
        cut
    }

    /// Computes a reconvergence-driven cut rooted at `root`, reusing the
    /// buffers of `cut`.
    ///
    /// This is the allocation-free variant of [`Aig::reconvergence_cut`]:
    /// passing the same `Cut` across calls recycles its `leaves`/`cone`
    /// vectors, and the traversal state lives in a scratch kept per thread,
    /// so steady-state cut computation performs no heap allocations.  It
    /// delegates to the engine [`Aig::reconvergence_cut_with`], so the entry
    /// points are the same algorithm and produce identical cuts.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live AND node or if `params.max_leaves < 2`.
    pub fn reconvergence_cut_into(&self, root: NodeId, params: &CutParams, cut: &mut Cut) {
        with_thread_scratch(|scratch| self.reconvergence_cut_with(root, params, scratch, cut));
    }

    /// Computes a reconvergence-driven cut rooted at `root` through shared
    /// (`&self`) graph access, keeping all mutable traversal state in
    /// `scratch`.
    ///
    /// This is the engine behind both the sequential per-node loops and the
    /// parallel batch collection: because the graph is only read, any number
    /// of threads may call it concurrently on the same `Aig`, each with its
    /// own `CutScratch` and `Cut` buffers, and every caller obtains exactly
    /// the cut the sequential path would compute.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live AND node or if `params.max_leaves < 2`.
    pub fn reconvergence_cut_with(
        &self,
        root: NodeId,
        params: &CutParams,
        scratch: &mut CutScratch,
        cut: &mut Cut,
    ) {
        assert!(self.is_and(root), "cut root must be a live AND node");
        assert!(params.max_leaves >= 2, "a cut needs at least two leaves");
        cut.root = root;
        cut.leaves.clear();
        cut.cone.clear();
        scratch.begin(self.num_slots());
        scratch.leaf_costs.clear();
        scratch.mark(root);
        let (f0, f1) = self.fanins(root);
        let mut fanins = [f0.node(), f1.node()];
        loop {
            let best = self.add_leaves(root, fanins, scratch, &mut cut.leaves);
            let Some(more) = cut.leaves.len().checked_sub(1) else {
                break;
            };
            // Expanding replaces one leaf by `cost` new leaves, so the leaf
            // bound admits a cost up to `max_leaves - (leaves - 1)` (at least
            // 1: no expansion grows the list past the bound).
            let room = u32::try_from(params.max_leaves - more).unwrap_or(u32::MAX);
            if (best >> 32) as u32 > MAX_EXPANSION_COST.min(room) {
                break;
            }
            let index = best as u32 as usize;
            let leaf = cut.leaves.swap_remove(index);
            scratch.leaf_costs.swap_remove(index);
            let (f0, f1) = self.fanins(leaf);
            fanins = [f0.node(), f1.node()];
        }
        self.collect_cone_with(root, scratch, cut);
    }

    /// Marks the unmarked ones of `fanins` and appends them to `leaves` in
    /// that order, lowers the cost of every earlier leaf that counted one of
    /// them, records each new leaf's cost, and returns the smallest
    /// `(cost, index)` key over all leaves (`u64::MAX` when there are none):
    /// the first leaf of lowest cost.  A leaf index fits 32 bits, the leaves
    /// being distinct slots.
    fn add_leaves(
        &self,
        root: NodeId,
        fanins: [NodeId; 2],
        scratch: &mut CutScratch,
        leaves: &mut Vec<NodeId>,
    ) -> u64 {
        let earlier = leaves.len();
        // The root is marked and is no leaf's fanin: it matches nothing.
        let mut marked = [root; 2];
        for (slot, fanin) in marked.iter_mut().zip(fanins) {
            if !scratch.is_marked(fanin) {
                scratch.mark(fanin);
                leaves.push(fanin);
                *slot = fanin;
            }
        }
        let mut best = u64::MAX;
        for (leaf, index) in scratch.leaf_costs.iter_mut().zip(0u64..) {
            let [g0, g1] = leaf.fanins;
            leaf.cost -= u32::from(g0 == marked[0])
                + u32::from(g0 == marked[1])
                + u32::from(g1 == marked[0])
                + u32::from(g1 == marked[1]);
            best = best.min((u64::from(leaf.cost) << 32) | index);
        }
        for (&leaf, index) in leaves[earlier..].iter().zip(earlier as u64..) {
            let entry = match self.and_fanins(leaf) {
                Some((g0, g1)) => {
                    let (g0, g1) = (g0.node(), g1.node());
                    // A repeated fanin counts once.
                    let g1 = if g1 == g0 { leaf } else { g1 };
                    LeafCost {
                        cost: u32::from(!scratch.is_marked(g0)) + u32::from(!scratch.is_marked(g1)),
                        fanins: [g0, g1],
                    }
                }
                None => LeafCost {
                    cost: NO_EXPANSION,
                    fanins: [leaf, leaf],
                },
            };
            scratch.leaf_costs.push(entry);
            best = best.min((u64::from(entry.cost) << 32) | index);
        }
        best
    }

    /// Returns `true` if `target` appears in the transitive fanin cone of
    /// `root`.  The walk marks nodes in a cut scratch kept per thread.
    pub fn cone_contains(&self, root: NodeId, target: NodeId) -> bool {
        with_thread_scratch(|scratch| {
            scratch.begin(self.num_slots());
            let mut stack = std::mem::take(&mut scratch.stack);
            stack.clear();
            stack.push(root);
            let mut found = false;
            while let Some(id) = stack.pop() {
                if id == target {
                    found = true;
                    break;
                }
                if scratch.is_marked(id) || !self.is_and(id) {
                    continue;
                }
                scratch.mark(id);
                let (f0, f1) = self.fanins(id);
                stack.extend([f0.node(), f1.node()]);
            }
            scratch.stack = stack;
            found
        })
    }

    /// Collects the internal nodes (root included) of the cone rooted at
    /// `root` bounded by `cut.leaves` into `cut.cone`, reusing the scratch's
    /// DFS stack.
    fn collect_cone_with(&self, root: NodeId, scratch: &mut CutScratch, cut: &mut Cut) {
        scratch.begin(self.num_slots());
        for &leaf in &cut.leaves {
            scratch.mark(leaf);
        }
        let mut stack = std::mem::take(&mut scratch.stack);
        stack.clear();
        stack.push(root);
        while let Some(id) = stack.pop() {
            if scratch.is_marked(id) {
                continue;
            }
            scratch.mark(id);
            cut.cone.push(id);
            let (f0, f1) = self.fanins(id);
            for fanin in [f0.node(), f1.node()] {
                if !scratch.is_marked(fanin) {
                    stack.push(fanin);
                }
            }
        }
        scratch.stack = stack;
    }

    /// Computes the six ELF cut features for an already-computed cut.
    ///
    /// [`Aig::cut_features_with`] on a scratch kept per thread, for callers
    /// that hold none.
    pub fn cut_features(&self, cut: &Cut) -> CutFeatures {
        with_thread_scratch(|scratch| self.cut_features_with(cut, scratch))
    }

    /// Computes the six ELF cut features for an already-computed cut,
    /// tallying edges in `scratch`'s count column.
    ///
    /// The two counts that concern edges — the cut fanout and the
    /// reconvergent nodes — are defined over fanouts but read from the fanin
    /// side, which gives the same counts (see the module docs): the cone's
    /// `2 × |cone|` fanin edges are tallied per slot, each leaf and cone node
    /// reads its tally, and the edges are walked again to clear it.  Nothing
    /// in it grows with a leaf's fanout, which is what makes the paper's
    /// "gathered during cut construction at negligible cost" true when a
    /// leaf is a primary input with dozens of consumers.
    pub fn cut_features_with(&self, cut: &Cut, scratch: &mut CutScratch) -> CutFeatures {
        let counts = &mut scratch.counts;
        if counts.len() < self.num_slots() {
            counts.resize(self.num_slots(), 0);
        }
        // Every fanout edge of a cone node is counted by `refs`; those whose
        // consumer is in the cone are exactly the cone's fanin edges that
        // land in the cone.
        let mut refs = 0usize;
        for &consumer in &cut.cone {
            refs += self.refs(consumer) as usize;
            let (f0, f1) = self.fanins(consumer);
            counts[f0.node().as_usize()] += 1;
            counts[f1.node().as_usize()] += 1;
        }
        // A node with two or more consumers in the cone is the fanin of two
        // or more cone edges.  The root is the fanin of none (the graph is
        // acyclic), so it never counts.
        let mut reconvergent = 0usize;
        for &leaf in &cut.leaves {
            reconvergent += usize::from(counts[leaf.as_usize()] >= 2);
        }
        let mut internal_edges = 0usize;
        for &node in &cut.cone {
            let count = counts[node.as_usize()];
            reconvergent += usize::from(count >= 2);
            internal_edges += count as usize;
        }
        for &consumer in &cut.cone {
            let (f0, f1) = self.fanins(consumer);
            counts[f0.node().as_usize()] = 0;
            counts[f1.node().as_usize()] = 0;
        }
        CutFeatures {
            root_fanout: self.refs(cut.root) as f32,
            root_level: self.level(cut.root) as f32,
            cut_fanout: (refs - internal_edges) as f32,
            cut_size: cut.size() as f32,
            reconvergent: reconvergent as f32,
            leaves: cut.num_leaves() as f32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;
    use proptest::prelude::*;

    /// The rescan engine the incremental one replaced, kept as its oracle:
    /// every round re-evaluates every leaf's cost from the graph and expands the first leaf of lowest cost the bounds allow.
    fn reconvergence_cut_rescan(
        aig: &Aig,
        root: NodeId,
        params: &CutParams,
        scratch: &mut CutScratch,
        cut: &mut Cut,
    ) {
        assert!(aig.is_and(root), "cut root must be a live AND node");
        assert!(params.max_leaves >= 2, "a cut needs at least two leaves");
        cut.root = root;
        cut.leaves.clear();
        cut.cone.clear();
        scratch.begin(aig.num_slots());
        scratch.mark(root);
        let (f0, f1) = aig.fanins(root);
        let leaves = &mut cut.leaves;
        for fanin in [f0.node(), f1.node()] {
            if !scratch.is_marked(fanin) {
                scratch.mark(fanin);
                leaves.push(fanin);
            }
        }
        loop {
            let mut best: Option<(usize, usize)> = None; // (cost, index into leaves)
            for (index, &leaf) in leaves.iter().enumerate() {
                let cost = leaf_expansion_cost(aig, leaf, scratch);
                let Some(cost) = cost else { continue };
                if cost > MAX_EXPANSION_COST as usize {
                    continue;
                }
                // Expanding replaces one leaf by `cost` new leaves.
                if leaves.len() - 1 + cost > params.max_leaves {
                    continue;
                }
                match best {
                    Some((best_cost, _)) if best_cost <= cost => {}
                    _ => best = Some((cost, index)),
                }
                if cost == 0 {
                    break;
                }
            }
            let Some((_, index)) = best else { break };
            let leaf = leaves.swap_remove(index);
            let (f0, f1) = aig.fanins(leaf);
            for fanin in [f0.node(), f1.node()] {
                if !scratch.is_marked(fanin) {
                    scratch.mark(fanin);
                    leaves.push(fanin);
                }
            }
        }
        aig.collect_cone_with(root, scratch, cut);
    }

    /// Cost of expanding `leaf`: the number of its fanins that are not yet in
    /// the cut.  `None` for leaves that cannot be expanded.
    fn leaf_expansion_cost(aig: &Aig, leaf: NodeId, scratch: &CutScratch) -> Option<usize> {
        if !aig.is_and(leaf) {
            return None;
        }
        let (f0, f1) = aig.fanins(leaf);
        let mut cost = 0;
        if !scratch.is_marked(f0.node()) {
            cost += 1;
        }
        if !scratch.is_marked(f1.node()) && f0.node() != f1.node() {
            cost += 1;
        }
        Some(cost)
    }

    /// A gate script: `(kind, a, b, c)`, operands picked modulo the signals
    /// built so far, as `elf_circuits::scripted_circuit` replays them.
    fn scripted(num_inputs: usize, script: &[(u8, usize, usize, usize)]) -> Aig {
        let mut aig = Aig::new();
        let mut signals = aig.add_inputs(num_inputs);
        for &(kind, a, b, c) in script {
            let pick = |i: usize| signals[i % signals.len()];
            let (x, y, z) = (pick(a), pick(b), pick(c));
            let lit = match kind % 5 {
                0 => aig.and(x, !y),
                1 => aig.xor(x, y),
                2 => aig.mux(x, y, z),
                3 => aig.maj(x, y, z),
                _ => {
                    let (t0, t1) = (aig.and(x, y), aig.and(x, z));
                    aig.or(t0, t1)
                }
            };
            signals.push(lit);
        }
        for &lit in signals.iter().rev().take(3) {
            aig.add_output(lit);
        }
        aig.cleanup();
        aig
    }

    /// What an operator pass does to a graph's structure, without the
    /// operator: nodes replaced by other signals (fanins rewired, cones
    /// freed), then new gates built into the recycled slots.  Leaves
    /// duplicate-fanin nodes, dangling nodes and slots out of topological
    /// order behind.
    fn churn(aig: &mut Aig, edits: &[(usize, usize, bool)]) {
        for &(pick_old, pick_new, complement) in edits {
            let ands: Vec<NodeId> = aig.and_ids().collect();
            let live: Vec<NodeId> = (0..aig.num_slots() as u32)
                .map(NodeId::new)
                .filter(|&id| !aig.is_dead(id))
                .collect();
            let Some(&old) = ands.get(pick_old % ands.len().max(1)) else {
                return;
            };
            let new = live[pick_new % live.len()].lit().complement_if(complement);
            if new.node() != old && !aig.cone_contains(new.node(), old) {
                aig.replace(old, new);
            }
            let (a, b) = (
                live[pick_new % live.len()],
                live[(pick_old * 7 + 1) % live.len()],
            );
            if !aig.is_dead(a) && !aig.is_dead(b) {
                aig.and(a.lit(), !b.lit());
            }
        }
    }

    /// Forms every live AND node's cut with `scratch` and with the oracle on
    /// a fresh scratch, returning how many cuts agreed (leaves and cone,
    /// order included); the count column is back to zero after each
    /// feature call.
    fn check_against_rescan(aig: &Aig, params: &CutParams, scratch: &mut CutScratch) -> usize {
        let (mut cut, mut expected) = (Cut::empty(), Cut::empty());
        let mut oracle = CutScratch::new();
        let nodes: Vec<NodeId> = aig.and_ids().collect();
        for &node in &nodes {
            aig.reconvergence_cut_with(node, params, scratch, &mut cut);
            reconvergence_cut_rescan(aig, node, params, &mut oracle, &mut expected);
            assert_eq!(cut, expected, "node {node:?} at {params:?}");
            let features = aig.cut_features_with(&cut, scratch);
            assert_eq!(features, aig.cut_features(&cut));
            assert!(scratch.counts.iter().all(|&count| count == 0));
        }
        nodes.len()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_cuts_equal_the_rescan_engine(
            script in prop::collection::vec((any::<u8>(), 0usize..64, 0usize..64, 0usize..64), 1..50),
            edits in prop::collection::vec((0usize..256, 0usize..256, any::<bool>()), 0..24),
            max_leaves in 2usize..=16,
        ) {
            let mut aig = scripted(6, &script);
            let mut scratch = CutScratch::new();
            for round in 0..2 {
                check_against_rescan(&aig, &CutParams::with_max_leaves(max_leaves), &mut scratch);
                if round == 0 {
                    churn(&mut aig, &edits);
                    prop_assert!(aig.check_invariants().is_empty());
                }
            }
        }
    }

    /// Any leaf bound, however large, picks as the rescan engine does.
    #[test]
    fn an_unbounded_leaf_count_picks_as_the_rescan_engine() {
        let script: Vec<_> = (0..40u8)
            .map(|i| (i, 3 * i as usize, 5 * i as usize + 1, i as usize))
            .collect();
        let aig = scripted(8, &script);
        let mut scratch = CutScratch::new();
        for max_leaves in [17, 64, u32::MAX as usize, usize::MAX] {
            let params = CutParams::with_max_leaves(max_leaves);
            assert!(check_against_rescan(&aig, &params, &mut scratch) > 40);
        }
    }

    /// A scratch whose visit epoch wraps mid-use forms the same cuts, and
    /// its count column stays at zero.
    #[test]
    fn a_scratch_reused_across_an_epoch_wrap_forms_the_same_cuts() {
        let script: Vec<_> = (0..30u8)
            .map(|i| (i, 7 * i as usize, 3 * i as usize + 2, i as usize + 1))
            .collect();
        let mut aig = scripted(5, &script);
        churn(&mut aig, &[(3, 11, true), (9, 2, false), (1, 40, true)]);
        let params = CutParams::default();
        let first = aig.and_ids().next().expect("a circuit with AND nodes");
        let last = aig.and_ids().last().expect("a circuit with AND nodes");
        let (mut cut, mut expected) = (Cut::empty(), Cut::empty());
        let mut scratch = CutScratch::new();
        // The last node's window is collected under epoch 2.
        aig.reconvergence_cut_with(last, &params, &mut scratch, &mut cut);
        // The wrap falls between the first node's two epochs, so the next
        // window is formed under epoch 2 again.
        scratch.travid = u32::MAX - 1;
        aig.reconvergence_cut_with(first, &params, &mut scratch, &mut cut);
        assert_eq!(scratch.travid, 1, "the epoch wrapped");
        aig.reconvergence_cut_with(last, &params, &mut scratch, &mut cut);
        reconvergence_cut_rescan(&aig, last, &params, &mut CutScratch::new(), &mut expected);
        assert_eq!(cut, expected);
        let formed = check_against_rescan(&aig, &params, &mut scratch);
        assert!(formed > 8, "{formed} cuts");
    }

    /// Builds a small AIG with known reconvergence: f = (a & b) | (a & c).
    fn reconvergent_aig() -> (Aig, Lit) {
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
    fn cut_covers_whole_cone_of_small_circuit() {
        let (aig, f) = reconvergent_aig();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        assert_eq!(cut.root, f.node());
        // The cut should expand down to the primary inputs.
        assert_eq!(cut.num_leaves(), 3);
        assert_eq!(cut.cone.len(), 3);
        assert_eq!(cut.size(), 6);
        for &leaf in &cut.leaves {
            assert!(aig.is_input(leaf));
        }
    }

    #[test]
    fn cut_respects_leaf_limit() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(16);
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let params = CutParams::with_max_leaves(6);
        let cut = aig.reconvergence_cut(f.node(), &params);
        assert!(cut.num_leaves() <= 6);
        assert!(cut.cone.contains(&f.node()));
    }

    #[test]
    fn features_reflect_reconvergence_and_sharing() {
        let (aig, f) = reconvergent_aig();
        let cut = aig.reconvergence_cut(f.node(), &CutParams::default());
        let features = aig.cut_features(&cut);
        assert_eq!(features.leaves, 3.0);
        assert_eq!(features.cut_size, 6.0);
        assert_eq!(features.root_fanout, 1.0);
        assert_eq!(features.root_level as u32, aig.level(f.node()));
        // Input `a` feeds both internal AND nodes: one reconvergent source.
        assert_eq!(features.reconvergent, 1.0);
        // Only the root leaves the cone (it drives the single output).
        assert_eq!(features.cut_fanout, 1.0);
    }

    /// The worked example from Figure 2 of the paper: a cut with 4 leaves,
    /// 9 nodes, root fanout 3, cut fanout 10 and 2 reconvergent nodes.  We
    /// build an analogous structure and check the feature extraction counts
    /// the same way.
    #[test]
    fn cut_features_figure2_analogue() {
        let mut aig = Aig::new();
        let l: Vec<Lit> = aig.add_inputs(4);
        // Internal structure with sharing between two sub-branches.
        let m0 = aig.and(l[0], l[1]);
        let m1 = aig.and(l[1], l[2]);
        let m2 = aig.and(l[2], l[3]);
        let n0 = aig.and(m0, m1);
        let n1 = aig.and(m1, m2);
        let root = aig.and(n0, n1);
        // External consumers create root fanout 3 and extra outward edges.
        let e0 = aig.and(root, l[0]);
        let e1 = aig.and(root, l[3]);
        aig.add_output(root);
        aig.add_output(e0);
        aig.add_output(e1);
        let e2 = aig.and(m0, l[3]);
        aig.add_output(e2);

        let params = CutParams::with_max_leaves(4);
        let cut = aig.reconvergence_cut(root.node(), &params);
        let features = aig.cut_features(&cut);
        assert_eq!(features.leaves, 4.0);
        assert_eq!(features.root_fanout, 3.0);
        // m1 feeds both n0 and n1; l[1] and l[2] also feed two internal nodes
        // each, so at least two reconvergent sources exist.
        assert!(features.reconvergent >= 2.0);
        assert!(features.cut_fanout >= features.root_fanout);
        assert_eq!(features.cut_size, (cut.cone.len() + 4) as f32);
    }

    #[test]
    fn feature_array_round_trip() {
        let features = CutFeatures {
            root_fanout: 3.0,
            root_level: 9.0,
            cut_fanout: 10.0,
            cut_size: 9.0,
            reconvergent: 2.0,
            leaves: 4.0,
        };
        assert_eq!(features.to_array(), [3.0, 9.0, 10.0, 9.0, 2.0, 4.0]);
        assert_eq!(FEATURE_NAMES.len(), NUM_FEATURES);
    }
}
