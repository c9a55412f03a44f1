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
//! # Counting the features from the fanin side
//!
//! Two of the features are defined over fanout edges: the *cut fanout* is
//! the number of edges leaving the cone (a cone node's fanout whose consumer
//! is outside the cone, primary outputs included), and a *reconvergent* node
//! is a leaf, or a cone node other than the root, with two or more consumers
//! inside the cone.  Walking fanout lists to count them costs the fanout of
//! every leaf — dozens of edges for a primary input of a multiplier — and a
//! cone lookup per edge.  [`Aig::cut_features`] reads the same numbers off
//! the cone's fanin edges instead:
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
//! The counts are equal, so the `f32` features are bit-identical to the
//! fanout scan, which survives as the oracle of
//! `crates/opt/tests/features.rs`.

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
    /// Maximum fanin cost of a leaf that may still be expanded.
    pub max_expansion_cost: usize,
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams {
            max_leaves: 10,
            max_expansion_cost: 2,
        }
    }
}

impl CutParams {
    /// Creates parameters with the given leaf bound.
    pub fn with_max_leaves(max_leaves: usize) -> Self {
        CutParams {
            max_leaves,
            ..Self::default()
        }
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
/// this value instead of inside the graph, so any number of threads can
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
}

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

    /// Whether no buffer has been grown yet.
    #[cfg(test)]
    pub(crate) fn is_pristine(&self) -> bool {
        self.marks.capacity() + self.stack.capacity() == 0
    }
}

impl Aig {
    /// Computes a reconvergence-driven cut rooted at `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live AND node or if `params.max_leaves < 2`.
    pub fn reconvergence_cut(&mut self, root: NodeId, params: &CutParams) -> Cut {
        let mut cut = Cut::empty();
        self.reconvergence_cut_into(root, params, &mut cut);
        cut
    }

    /// Computes a reconvergence-driven cut rooted at `root`, reusing the
    /// buffers of `cut`.
    ///
    /// This is the allocation-free variant of [`Aig::reconvergence_cut`] used
    /// by the per-node loops of the operators: passing the same `Cut` across
    /// calls recycles its `leaves`/`cone` vectors (and an internal scratch),
    /// so steady-state cut computation performs no heap allocations.  It
    /// delegates to the read-only engine [`Aig::reconvergence_cut_with`]
    /// using a scratch stored inside the graph, so the two entry points are
    /// the same algorithm and produce identical cuts.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not a live AND node or if `params.max_leaves < 2`.
    pub fn reconvergence_cut_into(&mut self, root: NodeId, params: &CutParams, cut: &mut Cut) {
        let mut scratch = self.take_cut_scratch();
        self.reconvergence_cut_with(root, params, &mut scratch, cut);
        self.put_cut_scratch(scratch);
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
        scratch.mark(root);
        let (f0, f1) = self.fanins(root);
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
                let cost = self.leaf_expansion_cost(leaf, scratch);
                let Some(cost) = cost else { continue };
                if cost > params.max_expansion_cost {
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
            let (f0, f1) = self.fanins(leaf);
            for fanin in [f0.node(), f1.node()] {
                if !scratch.is_marked(fanin) {
                    scratch.mark(fanin);
                    leaves.push(fanin);
                }
            }
        }
        self.collect_cone_with(root, scratch, cut);
    }

    /// Cost of expanding `leaf`: the number of its fanins that are not yet in
    /// the cut.  Returns `None` for leaves that cannot be expanded (inputs and
    /// the constant node).
    fn leaf_expansion_cost(&self, leaf: NodeId, scratch: &CutScratch) -> Option<usize> {
        if !self.node(leaf).is_and() {
            return None;
        }
        let (f0, f1) = self.fanins(leaf);
        let mut cost = 0;
        if !scratch.is_marked(f0.node()) {
            cost += 1;
        }
        if !scratch.is_marked(f1.node()) && f0.node() != f1.node() {
            cost += 1;
        }
        Some(cost)
    }

    /// Returns `true` if `target` appears in the transitive fanin cone of
    /// `root`.  The walk marks nodes in the graph's own cut scratch.
    pub fn cone_contains(&mut self, root: NodeId, target: NodeId) -> bool {
        let mut scratch = self.take_cut_scratch();
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
        self.put_cut_scratch(scratch);
        found
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
    /// The two counts that concern edges — the cut fanout and the
    /// reconvergent nodes — are defined over fanouts but read from the fanin
    /// side, which gives the same counts (see the module docs): one pass over
    /// the cone's `2 × |cone|` fanin edges per 64 leaves or cone nodes, plus
    /// the cone's `refs`.  Nothing in it grows with a leaf's fanout, which is
    /// what makes the paper's "gathered during cut construction at
    /// negligible cost" true when a leaf is a primary input with dozens of
    /// consumers.
    pub fn cut_features(&self, cut: &Cut) -> CutFeatures {
        // Every fanout edge of a cone node is counted by `refs`; those whose
        // consumer is in the cone are exactly the cone's fanin edges that
        // land in the cone.
        let refs: usize = cut.cone.iter().map(|&node| self.refs(node) as usize).sum();
        let mut internal_edges = 0usize;
        // A node with two or more consumers in the cone is the fanin of two
        // or more cone edges.  The root is the fanin of none (the graph is
        // acyclic), so it never counts.
        let mut reconvergent = 0usize;
        let blocks = cut
            .leaves
            .chunks(64)
            .map(|block| (block, false))
            .chain(cut.cone.chunks(64).map(|block| (block, true)));
        for (block, in_cone) in blocks {
            // `counts[i]`: the cone edges whose fanin is `block[i]` (a
            // branch-free compare per lane, which the compiler vectorizes).
            let mut counts = [0u32; 64];
            let counts = &mut counts[..block.len()];
            for &consumer in &cut.cone {
                let (f0, f1) = self.fanins(consumer);
                let (f0, f1) = (f0.node(), f1.node());
                for (count, &node) in counts.iter_mut().zip(block) {
                    *count += u32::from(node == f0) + u32::from(node == f1);
                }
            }
            reconvergent += counts.iter().filter(|&&count| count >= 2).count();
            if in_cone {
                internal_edges += counts.iter().sum::<u32>() as usize;
            }
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
        let (mut aig, f) = reconvergent_aig();
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
        let (mut aig, f) = reconvergent_aig();
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
