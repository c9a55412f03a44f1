//! DAG-aware cut rewriting.
//!
//! Rewrite greedily enumerates small (k-feasible) cuts for every node and
//! replaces the best cut with a resynthesized implementation when that
//! reduces the node count (Mishchenko et al., DAC'06).  The original
//! algorithm substitutes pre-computed NPN-class subgraphs; this
//! reimplementation resynthesizes each cut through the same ISOP + factoring
//! pipeline used by refactor, which preserves the operator's structure (cut
//! enumeration, gain evaluation, greedy commit) without the 222-class table.
//!
//! The operator is a background substrate in the ELF paper (it is part of
//! `resyn2`) and the first candidate for extending ELF-style pruning, so the
//! implementation plugs into the same pass driver as [`Refactor`](crate::Refactor).
//!
//! # The enumeration contract
//!
//! Which cuts a root is offered, and in which order, decides which rewrite
//! wins a tie and therefore every downstream fingerprint.  The enumeration
//! is pinned to the following, and a `#[cfg(test)]` copy of the original
//! `Vec`-of-`Vec`s implementation checks it cut for cut:
//!
//! * **Window.**  Cuts are merged bottom-up inside the root's *window*: the
//!   first [`WINDOW`] AND nodes a depth-first walk of its fanin cone marks
//!   (second fanin first), fanins before fanouts, root last.  Everything
//!   outside — inputs and AND nodes past the limit — is a leaf that
//!   contributes only its trivial cut `[node]`.
//! * **Union order.**  A window node's candidates are its trivial cut, then
//!   the union of every cut of its first fanin with every cut of its second
//!   (first fanin outermost).  A union lists the first cut's leaves, then the
//!   second's new ones, *in that order*; leaves are never sorted, and two
//!   unions are duplicates only when they list the same leaves in the same
//!   order (`[a, b, c]` and `[a, c, b]` are two cuts).  Unions of more than
//!   [`CUT_SIZE`] leaves are dropped.
//! * **Truncation.**  A node keeps the first [`CUTS_PER_NODE`] candidates
//!   in order of length, candidates of equal length in the order they were
//!   formed (a stable sort, then a truncation).  So each length is a bucket
//!   in insertion order, and a candidate that arrives when the buckets up to
//!   its length already hold [`CUTS_PER_NODE`] cuts between them can be
//!   discarded unseen (a duplicate of it would be discarded too); as a set
//!   lists its cuts by length, so can every later union of a cut that long.
//! * **Complete nodes.**  A window node whose whole fanin cone lies in the
//!   window has the cut set the bottom-up merge gives it in *any* window
//!   that holds its cone, so the pass keeps such sets across roots while
//!   their cones are unedited.  Exactness:
//!   - the walk turns an unseen AND node away only once the window holds
//!     [`WINDOW`] nodes;
//!   - a node placed before that first refusal had its whole fanin cone
//!     walked, so every AND node below it is in the window, and its cut set
//!     depends only on the graph — it is the same in every root's window
//!     that places it before that root's first refusal;
//!   - the nodes placed after the first refusal are the open ancestors of
//!     the refused node, so the complete nodes are exactly a prefix of the
//!     window: all of it, or the nodes placed before the first refusal;
//!   - enumeration reads only the kind and fanins of a node, every write of
//!     those stamps the slot with the current [`Aig::edit_clock`] and
//!     advances it (a recycled slot is stamped too), and reference counts
//!     (which the MFFC walks change) stamp nothing.  So a set exact under
//!     one clock reading stays exact while no node of the fanin cone
//!     carries a stamp at or past that reading: then every node of the cone
//!     has the kind and fanins it had then, from the root down, so the cone
//!     is the one merged.
//!
//! A node's *cone stamp* is the newest of its own [`Aig::edit_stamp`] and
//! its fanins' cone stamps (an input's is its own stamp).  A stored set
//! keeps its node's cone stamp and the last clock reading it was known
//! exact under.  A root serves it at once when that reading is the current
//! clock, since nothing was stamped since.  Otherwise the root computes the
//! node's cone stamp bottom-up, from the cone stamps of the complete nodes
//! below, and serves the set when the stamp is below the reading, which
//! then moves up to the current clock.  A commit thus costs the sets of the
//! nodes above what it stamped, and no others: a node merged again is
//! stored again, and its old set becomes stale cuts that the store drops,
//! with every set, once they outnumber the live ones.
//!
//! The cut sets live in one positional scratch ([`CutWindow`]: set `i`
//! belongs to window node `i`, one flat buffer of cuts of [`CUT_SIZE`] leaf
//! slots, a 64-bit leaf signature per cut of a merge that rejects oversized
//! unions before they are built, an epoch-stamped slot map that says whether
//! the window holds a graph node and where), owned by the pass and reused
//! across its nodes.  The sets of complete nodes stay in that buffer from
//! one root to the next, and a slot map says which node each belongs to, so
//! a root merges only the few nodes of its window that are not complete or
//! whose cone changed, and reads the others' sets where they lie.
//!
//! # Weighing a cut
//!
//! A root cut of three or four leaves is weighed from its leaves alone: one
//! walk from the root down to them evaluates its function as a 64-bit word,
//! with no list of the nodes between, and the pass scratch remembers the NPN
//! representative and transforms of every function it has canonicalized
//! (`ClassMemo`), so a function met again costs a hash probe.  The
//! cut-cache lookup is still made for every weighed cut, so the cache's
//! counters are those of canonicalizing each cut afresh.

use elf_aig::{Aig, CutParams, Lit, NodeId};
use elf_sop::TruthTable;

use crate::build::{build_expr, commit_replacement, leaf_lits, weigh, Reading, SlotMap};
use crate::cache::CutCache;
use crate::operator::{OpStats, PassScratch, PrunableOperator};

/// Number of AND nodes of a root's fanin cone whose cuts are enumerated.
const WINDOW: usize = 64;

/// Maximum number of cut leaves (the classic operator's 4).
const CUT_SIZE: usize = 4;

/// Maximum number of cuts a window node keeps.
const CUTS_PER_NODE: usize = 8;

/// The rewrite operator at ABC's defaults: cuts of up to four leaves, eight
/// kept per node, and a rewrite committed only when it gains a node and does
/// not raise the root's level.  Its feature window (the
/// [`PrunableOperator`] hooks) is [`CutParams::default`]; it does not affect
/// the cuts the operator itself enumerates.
#[derive(Debug, Clone, Default)]
pub struct Rewrite {
    cache: CutCache,
}

impl Rewrite {
    /// Creates a rewrite operator with a disabled cache.
    pub fn new() -> Self {
        Rewrite::default()
    }

    /// The factored-form cache consulted by resynthesis (disabled by
    /// default; attach one via [`PrunableOperator::set_cut_cache`]).
    pub fn cut_cache(&self) -> &CutCache {
        &self.cache
    }

    /// Runs rewriting over every node of the graph: [`PrunableOperator::run`],
    /// callable without the trait in scope.
    pub fn run(&self, aig: &mut Aig) -> OpStats {
        PrunableOperator::run(self, aig)
    }

    /// Attempts to rewrite a single node over the readings one cache lookup
    /// (as in `CutCache::factor_both_into`) offers for each of its cuts — the
    /// implementation of the cut function and, where worth weighing, of its
    /// complement — returning `Some(achieved_gain)` when a rewrite was
    /// committed.
    fn rewrite_node(&self, aig: &mut Aig, node: NodeId, scratch: &mut PassScratch) -> Option<i64> {
        let root_cuts = scratch.window.enumerate_cuts(aig, node);
        let level_bound = aig.level(node);
        // Only a reading that gains at least one node is accepted.
        let accepted = 1;
        // The best reading so far; the form it reads is `best_form`.
        let mut best: Option<Reading> = None;
        for index in root_cuts {
            let window = &mut scratch.window;
            let cut = window.cuts[index];
            let (leaves, num_vars) = (cut.leaves(), cut.len());
            if num_vars < 3 {
                continue;
            }
            let word = window.cut_function(aig, node, leaves);
            let readings = scratch.classes.canonicalize_both(
                (num_vars, word),
                &mut scratch.truth,
                &mut scratch.canonical,
            );
            // The reclaimable logic is the MFFC bounded by this cut's leaves.
            let saved = aig.deref_mffc_bounded(node, leaves) as i64;
            // One NPN-memoized lookup serves both polarities; the complement
            // is weighed only where it is not the first reading complemented
            // (same AIG, same gain: `gain > best` could never pick it).  A
            // later cut wins only by gaining more than the best so far, and
            // the form is counted as it is written, up to where it loses.
            let floor = best.map_or(accepted, |best| best.gain + 1);
            let cut = (node, leaf_lits(leaves));
            let bounds = (level_bound, floor);
            let reading = weigh(aig, &self.cache, scratch, cut, readings, saved, bounds);
            aig.ref_mffc_bounded(node, leaves);
            if reading.is_some() {
                best = reading;
                std::mem::swap(&mut scratch.form, &mut scratch.best_form);
            }
        }
        let (best, best_form) = (best?, &scratch.best_form);
        commit_replacement(aig, Self::NAME, node, |aig| {
            build_expr(aig, best_form, &best.lits).complement_if(best.complemented)
        })
    }
}

/// One cut of at most [`CUT_SIZE`] leaves: its leaves in union order,
/// padded with the constant.  Two cuts of one length are the same cut
/// exactly when their padded leaves are equal.
#[derive(Debug, Clone, Copy)]
struct SmallCut {
    leaves: [NodeId; CUT_SIZE],
    len: u32,
}

impl SmallCut {
    const EMPTY: SmallCut = SmallCut {
        leaves: [NodeId::CONST0; CUT_SIZE],
        len: 0,
    };

    /// The trivial cut `[node]`.
    fn trivial(node: NodeId) -> SmallCut {
        let mut leaves = [NodeId::CONST0; CUT_SIZE];
        leaves[0] = node;
        SmallCut { leaves, len: 1 }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len()]
    }

    /// Bit `id & 63` set for every leaf `id`: the signature of a union is
    /// the two signatures' union, and its bits are at most its leaves.
    fn signature(&self) -> u64 {
        let leaves = self.leaves().iter();
        leaves.fold(0, |signature, leaf| signature | 1 << (leaf.index() & 63))
    }
}

/// Makes room for `len` cuts in `list`; never shrinks, so a pass stops
/// allocating once it has met its largest window.
fn make_room(list: &mut Vec<SmallCut>, len: usize) {
    if list.len() < len {
        list.resize(len, SmallCut::EMPTY);
    }
}

/// Which cut sets of [`CutWindow::cuts`] belong to the complete window
/// nodes the pass has met (module docs, "Complete nodes").  The stored sets
/// lie from cut 2 up to `end`; a root's merges append after them, and the
/// complete nodes' merges come first, so the sets a root stores extend that
/// run.  A node stored again leaves its old set behind as `stale` cuts.
#[derive(Debug, Default)]
struct CutStore {
    /// Where the stored sets end; 0 before the first enumeration.
    end: usize,
    /// Cuts below `end` that no stored set holds any more.
    stale: usize,
    /// Each stored node's set.
    sets: Vec<StoredSet>,
    /// The index in `sets` of each stored node's set.
    nodes: SlotMap,
    /// `Some(clock)` flushes the store whenever the edit clock has moved
    /// past `clock`, its reading at the last flush, as every pass did
    /// before sets were checked by stamp: the oracle of the merge counts in
    /// the tests.
    #[cfg(test)]
    flush_on_edit: Option<u64>,
}

/// One complete node's stored cut set.
#[derive(Debug)]
struct StoredSet {
    /// Where the set lies in [`CutWindow::cuts`].
    cuts: std::ops::Range<usize>,
    /// The node's cone stamp when the set was merged.
    cone_stamp: u64,
    /// The last edit clock under which the set was known exact.
    exact_at: u64,
}

impl CutStore {
    /// Readies the store for a root's enumeration: room for every slot of
    /// `aig`, and a flush on first use or once stale cuts outnumber live
    /// ones, so the buffer stays within twice the live sets.
    fn prepare(&mut self, aig: &Aig) {
        if self.end == 0 || self.stale > self.end - 2 - self.stale {
            self.flush(aig);
        }
        self.nodes.grow(aig);
        #[cfg(test)]
        self.flush_if_edited(aig);
    }

    #[cfg(test)]
    fn flush_if_edited(&mut self, aig: &Aig) {
        let clock = aig.edit_clock();
        if self.flush_on_edit.is_some_and(|flushed| flushed != clock) {
            self.flush(aig);
            self.flush_on_edit = Some(clock);
        }
    }

    /// Forgets every set.
    fn flush(&mut self, aig: &Aig) {
        // Cuts 0 and 1 are spare: the trivial cut of a fanin outside the window.
        self.end = 2;
        self.stale = 0;
        self.sets.clear();
        self.nodes.clear(aig);
    }

    /// The cone stamp of complete window node `node` and where its stored
    /// set sits, if it has one that is exact under the edit clock `clock`.
    /// A set known exact under `clock` already answers with its own stamp;
    /// any other asks `cone_stamp()` and is exact while no node of its cone
    /// was stamped since it was last known exact.
    fn get(
        &mut self,
        node: NodeId,
        clock: u64,
        cone_stamp: impl FnOnce() -> u64,
    ) -> (u64, Option<std::ops::Range<usize>>) {
        let Some(index) = self.nodes.get(node) else {
            return (cone_stamp(), None);
        };
        let set = &mut self.sets[index as usize];
        if set.exact_at != clock {
            let stamp = cone_stamp();
            if stamp >= set.exact_at {
                return (stamp, None);
            }
            // The cone is the one merged, so its stamp is the stored one.
            debug_assert_eq!(stamp, set.cone_stamp);
            set.exact_at = clock;
        }
        (set.cone_stamp, Some(set.cuts.clone()))
    }

    /// Stores the cuts `cuts`, which start where the stored sets end and
    /// were merged under `clock`, as the set of `node`, whose cone stamp is
    /// `cone_stamp`.
    fn insert(&mut self, node: NodeId, cuts: std::ops::Range<usize>, cone_stamp: u64, clock: u64) {
        debug_assert_eq!(cuts.start, self.end);
        self.end = cuts.end;
        let set = StoredSet {
            cuts,
            cone_stamp,
            exact_at: clock,
        };
        match self.nodes.get(node) {
            Some(index) => {
                let old = std::mem::replace(&mut self.sets[index as usize], set);
                self.stale += old.cuts.len();
            }
            None => {
                self.nodes.insert(node, self.sets.len() as u32);
                self.sets.push(set);
            }
        }
    }
}

/// The cut sets of one root's window, held by position, plus the traversal
/// buffers that build it and the store of complete nodes' sets that spares
/// their merge: the rewrite operator's share of the pass scratch.  One
/// window serves one graph: the store trusts the graph's edit stamps.
#[derive(Debug, Default)]
pub(crate) struct CutWindow {
    /// The window's AND nodes, fanins before fanouts, the root last.
    cone: Vec<NodeId>,
    /// How many nodes at the front of `cone` are complete: their whole
    /// fanin cone lies in the window.
    complete: usize,
    /// The cone stamp of each complete node of `cone`: the newest edit
    /// stamp of its fanin cone.
    stamps: Vec<u64>,
    /// Every cut set: two spare cuts, the store's sets, then the sets the
    /// last root merged and could not store.
    cuts: Vec<SmallCut>,
    /// Where `cone[i]`'s set sits in `cuts`.
    sets: Vec<std::ops::Range<usize>>,
    /// The position in `cone` of each node this window holds.
    positions: SlotMap,
    /// Which sets of `cuts` are complete nodes', kept across roots.
    store: CutStore,
    cone_stack: Vec<(NodeId, bool)>,
    /// The nodes [`CutWindow::cut_function`] has yet to evaluate, and the
    /// words of those it has.
    walk: Vec<NodeId>,
    words: Vec<(NodeId, u64)>,
    /// Window nodes whose set came from the store, complete nodes merged,
    /// and all window nodes.
    #[cfg(test)]
    served: (usize, usize, usize),
}

impl CutWindow {
    /// Collects the AND nodes of the transitive fanin cone of `root` into
    /// `cone`, in topological order, truncated to [`WINDOW`] nodes, and
    /// records how many of them are complete: those placed before the walk
    /// first turned a node away.
    fn local_cone(&mut self, aig: &Aig, root: NodeId) {
        let CutWindow {
            cone,
            positions,
            cone_stack: stack,
            ..
        } = self;
        positions.clear(aig);
        let mut visited = 0;
        let mut complete = None;
        cone.clear();
        stack.clear();
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                positions.insert(id, cone.len() as u32);
                cone.push(id);
                continue;
            }
            let seen = positions.get(id).is_some();
            if seen || !aig.is_and(id) {
                continue;
            }
            if visited >= WINDOW {
                complete.get_or_insert(cone.len());
                continue;
            }
            // Marked as seen; placed once its fanins are.
            positions.insert(id, 0);
            visited += 1;
            stack.push((id, true));
            let (f0, f1) = aig.fanins(id);
            stack.push((f0.node(), false));
            stack.push((f1.node(), false));
        }
        self.complete = complete.unwrap_or(cone.len());
    }

    /// Enumerates the k-feasible cuts rooted at `node` by merging fanin cuts
    /// bottom-up within the node's window (see the module docs for the
    /// contract) and returns where the root's set sits in `cuts`, the
    /// root's trivial cut included.
    fn enumerate_cuts(&mut self, aig: &Aig, node: NodeId) -> std::ops::Range<usize> {
        self.store.prepare(aig);
        self.local_cone(aig, node);
        self.sets.clear();
        self.stamps.clear();
        // The sets this root merges and cannot store follow the store's.
        let mut end = self.store.end;
        make_room(&mut self.cuts, end);
        let clock = aig.edit_clock();
        for position in 0..self.cone.len() {
            let id = self.cone[position];
            let complete = position < self.complete;
            if complete {
                // A stored set is exact while its cone is unstamped (module
                // docs, "Complete nodes"); a complete node's fanins are
                // complete nodes or inputs.
                let CutWindow {
                    positions,
                    stamps,
                    store,
                    ..
                } = &mut *self;
                let cone_stamp = || {
                    let (f0, f1) = aig.fanins(id);
                    let stamp = |fanin: NodeId| match positions.get(fanin) {
                        Some(position) => stamps[position as usize],
                        None => aig.edit_stamp(fanin),
                    };
                    aig.edit_stamp(id)
                        .max(stamp(f0.node()))
                        .max(stamp(f1.node()))
                };
                let (stamp, stored) = store.get(id, clock, cone_stamp);
                stamps.push(stamp);
                if let Some(stored) = stored {
                    #[cfg(test)]
                    {
                        self.served.0 += 1;
                    }
                    self.sets.push(stored);
                    continue;
                }
                #[cfg(test)]
                {
                    self.served.1 += 1;
                }
            }
            let (f0, f1) = aig.fanins(id);
            let set0 = self.fanin_set(f0.node(), 0);
            let set1 = self.fanin_set(f1.node(), 1);

            // The node's candidates are its trivial cut and one union per
            // pair, kept in order of length (the stable sort) as they are
            // formed, `upto[len - 1]` of them of at most `len` leaves, and
            // no more than `capacity` (the truncation).
            let capacity = CUTS_PER_NODE.min((set0.len() * set1.len()).saturating_add(1));
            let start = end;
            make_room(&mut self.cuts, start + capacity);
            let (formed, out) = self.cuts.split_at_mut(start);
            out[0] = SmallCut::trivial(id);
            let mut upto = [1usize; CUT_SIZE];
            // Whether a candidate of `len` leaves would be truncated away.
            let full = |upto: &[usize; CUT_SIZE], len: usize| upto[len - 1] == capacity;
            // A set holds at most `CUTS_PER_NODE` cuts.
            let mut signatures1 = [0; CUTS_PER_NODE];
            for (signature, c1) in signatures1.iter_mut().zip(&formed[set1.clone()]) {
                *signature = c1.signature();
            }
            // A union is at least as long as either cut, and a set lists its
            // cuts by length, so the first cut too long ends its loop.
            for c0 in &formed[set0] {
                if full(&upto, c0.len()) {
                    break;
                }
                let signature0 = c0.signature();
                for (c1, signature1) in formed[set1.clone()].iter().zip(signatures1) {
                    if full(&upto, c1.len()) {
                        break;
                    }
                    // The signature's bits are a lower bound on the length.
                    let bound = (signature0 | signature1).count_ones() as usize;
                    if bound > CUT_SIZE || full(&upto, bound) {
                        continue;
                    }
                    let (mut union, mut len) = (c0.leaves, c0.len());
                    let mut fits = true;
                    for &leaf in c1.leaves() {
                        if union[..len].contains(&leaf) {
                            continue;
                        }
                        if len == CUT_SIZE {
                            fits = false;
                            break;
                        }
                        union[len] = leaf;
                        len += 1;
                    }
                    if !fits || full(&upto, len) {
                        continue;
                    }
                    let at = upto[len - 1];
                    let same = if len == 1 { 0 } else { upto[len - 2] };
                    if out[same..at].iter().any(|other| other.leaves == union) {
                        continue;
                    }
                    // The longer candidates move up, the last one out at
                    // capacity.
                    let held = upto[CUT_SIZE - 1];
                    out.copy_within(at..held.min(capacity - 1), at + 1);
                    out[at] = SmallCut {
                        leaves: union,
                        len: len as u32,
                    };
                    for count in &mut upto[len - 1..] {
                        *count = capacity.min(*count + 1);
                    }
                }
            }
            end = start + upto[CUT_SIZE - 1];
            self.sets.push(start..end);
            if complete {
                let stamp = self.stamps[position];
                self.store.insert(id, start..end, stamp, clock);
            }
        }
        #[cfg(test)]
        {
            self.served.2 += self.cone.len();
        }
        let root = self.cone.len().checked_sub(1);
        root.map_or(0..0, |root| self.set(root))
    }

    /// Where the cut set of window node `position` sits in `cuts`.
    fn set(&self, position: usize) -> std::ops::Range<usize> {
        self.sets[position].clone()
    }

    /// Where the cut set of `fanin` sits in `cuts`: the set of the window
    /// node (fanins come first in `cone`, so it is formed), or the trivial
    /// cut, written to `spare`, of a node outside the window.
    fn fanin_set(&mut self, fanin: NodeId, spare: usize) -> std::ops::Range<usize> {
        match self.positions.get(fanin) {
            Some(position) => self.set(position as usize),
            None => {
                self.cuts[spare] = SmallCut::trivial(fanin);
                spare..spare + 1
            }
        }
    }

    /// The function of `root` over the cut `leaves` (leaf `i` is variable
    /// `i`) as the word every table of at most six variables repeats, the
    /// constant false as `simulate_cut` reads it: one walk from the root
    /// down to the leaves that evaluates each node between once (a node met
    /// twice before it is evaluated, twice).
    fn cut_function(&mut self, aig: &Aig, root: NodeId, leaves: &[NodeId]) -> u64 {
        let CutWindow { walk, words, .. } = self;
        let word = |words: &[(NodeId, u64)], id: NodeId| {
            if id == NodeId::CONST0 {
                return Some(0);
            }
            if let Some(var) = leaves.iter().position(|&leaf| leaf == id) {
                return Some(TruthTable::var_word(var, 0));
            }
            words
                .iter()
                .find(|&&(node, _)| node == id)
                .map(|&(_, word)| word)
        };
        let operand = |word: u64, lit: Lit| if lit.is_complemented() { !word } else { word };
        words.clear();
        walk.clear();
        walk.push(root);
        while let Some(&id) = walk.last() {
            let (f0, f1) = aig.fanins(id);
            match (word(words, f0.node()), word(words, f1.node())) {
                (Some(word0), Some(word1)) => {
                    walk.pop();
                    words.push((id, operand(word0, f0) & operand(word1, f1)));
                }
                (word0, word1) => {
                    // The second fanin on top, as the cone walks go.
                    walk.extend(word0.is_none().then_some(f0.node()));
                    walk.extend(word1.is_none().then_some(f1.node()));
                }
            }
        }
        // The root is evaluated last.
        words.last().map_or(0, |&(_, word)| word)
    }
}

impl PrunableOperator for Rewrite {
    const NAME: &'static str = "rewrite";

    /// Rewrite weighs the node's own k-feasible cuts, never its window.
    const RESYNTHESIZES_WINDOW: bool = false;

    fn feature_cut_params(&self) -> CutParams {
        CutParams::default()
    }

    fn set_cut_cache(&mut self, cache: CutCache) {
        self.cache = cache;
    }

    /// Enumerates and weighs the node's own k-feasible cuts; the feature
    /// window plays no part, so whatever `scratch.cut` held is overwritten.
    fn resynthesize(
        &self,
        aig: &mut Aig,
        node: NodeId,
        scratch: &mut PassScratch,
        _: bool,
    ) -> Option<i64> {
        self.rewrite_node(aig, node, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::count_new_nodes;
    use elf_aig::{check_equivalence, Cut, EquivalenceResult};
    use elf_circuits::epfl::{arithmetic_suite, Scale};
    use elf_circuits::industrial_suite;
    use elf_sop::FactoredForm;
    use proptest::prelude::{any, prop_assert_eq, ProptestConfig};

    /// The oracle: `enumerate_cuts` as it was before the positional window
    /// (cut sets as `Vec<Vec<NodeId>>` behind a linear `find`, one fresh
    /// `Vec` per union), kept verbatim with its two helpers.
    fn enumerate_cuts_oracle(aig: &Aig, node: NodeId) -> Vec<Cut> {
        // Restrict enumeration to the local cone to keep the pass fast.
        let cone = local_cone_oracle(aig, node, 64);
        let mut cut_sets: Vec<(NodeId, Vec<Vec<NodeId>>)> = Vec::with_capacity(cone.len());
        let find = |sets: &Vec<(NodeId, Vec<Vec<NodeId>>)>, id: NodeId| -> Vec<Vec<NodeId>> {
            sets.iter()
                .find(|(n, _)| *n == id)
                .map(|(_, cuts)| cuts.clone())
                .unwrap_or_else(|| vec![vec![id]])
        };
        for &id in &cone {
            let (f0, f1) = aig.fanins(id);
            let cuts0 = find(&cut_sets, f0.node());
            let cuts1 = find(&cut_sets, f1.node());
            let mut merged: Vec<Vec<NodeId>> = vec![vec![id]];
            for c0 in &cuts0 {
                for c1 in &cuts1 {
                    let mut union = c0.clone();
                    for &leaf in c1 {
                        if !union.contains(&leaf) {
                            union.push(leaf);
                        }
                    }
                    if union.len() <= CUT_SIZE && !merged.contains(&union) {
                        merged.push(union);
                    }
                }
            }
            merged.sort_by_key(Vec::len);
            merged.truncate(CUTS_PER_NODE);
            cut_sets.push((id, merged));
        }
        let root_cuts = find(&cut_sets, node);
        root_cuts
            .into_iter()
            .filter(|leaves| !(leaves.len() == 1 && leaves[0] == node))
            .map(|leaves| {
                let cone = cone_between_oracle(aig, node, &leaves);
                Cut {
                    root: node,
                    leaves,
                    cone,
                }
            })
            .collect()
    }

    /// Returns the AND nodes of the transitive fanin cone of `root`, in
    /// topological order, truncated to `limit` nodes.
    fn local_cone_oracle(aig: &Aig, root: NodeId, limit: usize) -> Vec<NodeId> {
        let mut order = Vec::new();
        let mut visited = Vec::new();
        let mut stack = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                order.push(id);
                continue;
            }
            if visited.contains(&id) || !aig.is_and(id) || visited.len() >= limit {
                continue;
            }
            visited.push(id);
            stack.push((id, true));
            let (f0, f1) = aig.fanins(id);
            stack.push((f0.node(), false));
            stack.push((f1.node(), false));
        }
        order
    }

    /// Collects the internal nodes between `root` and `leaves`.
    fn cone_between_oracle(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
        let mut cone = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if cone.contains(&id) || leaves.contains(&id) {
                continue;
            }
            cone.push(id);
            let (f0, f1) = aig.fanins(id);
            for fanin in [f0.node(), f1.node()] {
                if !leaves.contains(&fanin) && !cone.contains(&fanin) {
                    stack.push(fanin);
                }
            }
        }
        cone
    }

    /// The oracle step: `rewrite_node` as it was before it read the
    /// representative's form, over the oracle enumeration, owning every cut,
    /// `leaf_lits` and truth table it weighs.  Each polarity is factored on
    /// its own into a form of the function itself ([`CutCache::factor`]) and
    /// built over the cut's own leaf literals; `try_complement` says whether
    /// the complement's form is weighed at all.
    fn rewrite_node_oracle(
        rewrite: &Rewrite,
        aig: &mut Aig,
        node: NodeId,
        try_complement: bool,
    ) -> Option<i64> {
        let cuts = enumerate_cuts_oracle(aig, node);
        let root_level = aig.level(node);
        let mut best: Option<(Cut, FactoredForm, bool, i64)> = None;
        for cut in cuts {
            if cut.num_leaves() < 3 {
                continue;
            }
            let truth = crate::cut_truth_table(aig, &cut);
            let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
            let saved = aig.deref_mffc_bounded(node, &cut.leaves) as i64;
            let complement = try_complement.then(|| (rewrite.cache.factor(&!&truth), true));
            let candidates =
                std::iter::once((rewrite.cache.factor(&truth), false)).chain(complement);
            for (expr, complemented) in candidates {
                let cost = count_new_nodes(aig, &expr, &leaf_lits, Some(node));
                if cost.level > root_level {
                    continue;
                }
                let gain = saved - cost.new_nodes as i64;
                if best.as_ref().is_none_or(|(_, _, _, g)| gain > *g) {
                    best = Some((cut.clone(), expr, complemented, gain));
                }
            }
            aig.ref_mffc_bounded(node, &cut.leaves);
        }
        let (cut, expr, complemented, gain) = best?;
        if gain <= 0 {
            return None;
        }
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        commit_replacement(aig, Rewrite::NAME, node, |aig| {
            build_expr(aig, &expr, &leaf_lits).complement_if(complemented)
        })
    }

    /// The cuts the operator weighs at `node`, as the oracle lists them,
    /// enumerated through a fresh window (its store cold).
    fn enumerated(aig: &Aig, node: NodeId) -> Vec<Cut> {
        enumerated_in(aig, node, &mut CutWindow::default())
    }

    /// [`enumerated`] through the caller's window, whose store may hold the
    /// sets of earlier enumerations.
    fn enumerated_in(aig: &Aig, node: NodeId, window: &mut CutWindow) -> Vec<Cut> {
        let cuts = window.enumerate_cuts(aig, node);
        let cuts = cuts.map(|index| window.cuts[index].leaves().to_vec());
        cuts.filter(|leaves| *leaves != [node])
            .map(|leaves| Cut {
                root: node,
                cone: cone_between_oracle(aig, node, &leaves),
                leaves,
            })
            .collect()
    }

    /// Compares every AND node's cuts with the oracle's: each enumerated
    /// through a fresh window, then all through one window kept across them
    /// as a pass keeps it, in arena order and then in reverse.  Returns the
    /// first node that differs and whether its window was fresh or kept.
    fn oracle_mismatch(aig: &Aig) -> Option<(NodeId, &'static str)> {
        let nodes: Vec<NodeId> = aig.and_ids().collect();
        let oracle: Vec<Vec<Cut>> = nodes
            .iter()
            .map(|&node| enumerate_cuts_oracle(aig, node))
            .collect();
        let fresh = (0..nodes.len()).find(|&i| enumerated(aig, nodes[i]) != oracle[i]);
        let mut window = CutWindow::default();
        let mut kept = (0..nodes.len())
            .chain((0..nodes.len()).rev())
            .filter(|&i| enumerated_in(aig, nodes[i], &mut window) != oracle[i]);
        let fresh = fresh.map(|i| (nodes[i], "fresh"));
        fresh.or_else(|| kept.next().map(|i| (nodes[i], "kept")))
    }

    /// The first live AND node whose cuts, enumerated through the caller's
    /// window, differ from the oracle's.
    fn kept_mismatch(aig: &Aig, window: &mut CutWindow) -> Option<NodeId> {
        aig.and_ids()
            .find(|&node| enumerated_in(aig, node, window) != enumerate_cuts_oracle(aig, node))
    }

    /// Walks the live AND nodes under its own token guard, so a reference
    /// pass shares nothing with the pass driver but the step it is given.
    fn reference_pass(aig: &mut Aig, mut step: impl FnMut(&mut Aig, NodeId) -> bool) -> usize {
        let mut committed = 0;
        let targets: Vec<_> = aig.and_ids().map(|id| aig.token(id)).collect();
        for token in targets {
            let node = token.id();
            if !aig.token_is_current(token) || aig.refs(node) == 0 {
                continue;
            }
            committed += usize::from(step(aig, node));
        }
        committed
    }

    /// Every AND node with its fanins, then the outputs.
    fn structure(aig: &Aig) -> (Vec<(NodeId, Lit, Lit)>, Vec<Lit>) {
        let ands = aig.and_ids().map(|id| {
            let (f0, f1) = aig.fanins(id);
            (id, f0, f1)
        });
        (ands.collect(), aig.outputs().to_vec())
    }

    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        // f = (a & b) | (a & b & c) | (a & b & d): collapses to a & b ... kept
        // redundant on purpose.
        let ab = aig.and(inputs[0], inputs[1]);
        let abc = aig.and(ab, inputs[2]);
        let abd = aig.and(ab, inputs[3]);
        let t = aig.or(ab, abc);
        let f = aig.or(t, abd);
        aig.add_output(f);
        aig
    }

    #[test]
    fn rewrite_reduces_redundant_circuit() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let before = aig.num_reachable_ands();
        let stats = Rewrite::new().run(&mut aig);
        let after = aig.num_reachable_ands();
        assert!(stats.total_gain >= 1, "stats: {stats:?}");
        assert!(after < before);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 5),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn rewrite_leaves_optimal_circuit_alone() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let before = aig.num_ands();
        let stats = Rewrite::default().run(&mut aig);
        assert_eq!(stats.total_gain, 0);
        assert_eq!(aig.num_ands(), before);
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reading the representative's form, and weighing the complement
        /// only where `factor_both_into` returns a second reading, lands on
        /// the network the operator reached when it factored and evaluated
        /// both polarities of every cut — node for node, cache on and off.
        #[test]
        fn pass_matches_evaluating_both_polarities_of_every_cut(
            script in elf_circuits::script_strategy(36),
            cached in any::<bool>(),
        ) {
            let cache_config = if cached {
                crate::CutCacheConfig::default()
            } else {
                crate::CutCacheConfig::disabled()
            };
            let mut operator = Rewrite::new();
            operator.set_cut_cache(CutCache::new(cache_config));
            let mut aig = elf_circuits::scripted_circuit(6, &script);
            let mut twin = aig.clone();
            let stats = operator.run(&mut aig);

            let mut oracle = operator.clone();
            oracle.set_cut_cache(CutCache::new(cache_config));
            let rewritten = reference_pass(&mut twin, |twin, node| {
                rewrite_node_oracle(&oracle, twin, node, true).is_some()
            });
            prop_assert_eq!(stats.cuts_committed, rewritten);
            prop_assert_eq!(structure(&aig), structure(&twin));
        }

        /// The positional window lists the cuts the `Vec`-of-`Vec`s oracle
        /// lists — same cuts, same leaf order, same sequence, same cones —
        /// at every node, whether its store is cold or warm from the other
        /// roots.
        #[test]
        fn enumeration_matches_the_oracle_cut_for_cut(script in elf_circuits::script_strategy(40)) {
            let aig = elf_circuits::scripted_circuit(6, &script);
            prop_assert_eq!(oracle_mismatch(&aig), None);
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Commits interleaved with enumerations through one kept window,
        /// as a pass interleaves them.  Each commit replaces a live node by
        /// a two-node build with [`Aig::replace`]: the build pops the slots
        /// the last replacement freed (`delete_cone`), or grows the graph
        /// past every slot the store has mapped.  After each, every live
        /// node lists the oracle's cuts, cut for cut.
        #[test]
        fn enumeration_matches_the_oracle_under_churn(
            script in elf_circuits::script_strategy(40),
            edits in proptest::collection::vec(
                (any::<u16>(), (any::<u16>(), any::<u16>(), any::<u16>()), any::<bool>()),
                1..10,
            ),
        ) {
            let mut aig = elf_circuits::scripted_circuit(6, &script);
            let mut window = CutWindow::default();
            for &(target, picks, complement) in &edits {
                prop_assert_eq!(kept_mismatch(&aig, &mut window), None);
                let live: Vec<NodeId> = aig.and_ids().filter(|&id| aig.refs(id) > 0).collect();
                let Some(&target) = live.get(usize::from(target) % live.len().max(1)) else {
                    break;
                };
                // Operands whose cones do not hold the target.
                let operands: Vec<Lit> = aig
                    .inputs()
                    .iter()
                    .chain(&live)
                    .copied()
                    .filter(|&id| id != target && !aig.cone_contains(id, target))
                    .map(NodeId::lit)
                    .collect();
                let pick = |pick: u16| operands[usize::from(pick) % operands.len()];
                let inner = aig.and(pick(picks.0), pick(picks.1));
                let build = aig.and(inner, pick(picks.2).complement_if(complement));
                if build.node() == target || aig.cone_contains(build.node(), target) {
                    continue;
                }
                aig.replace(target, build);
            }
            prop_assert_eq!(kept_mismatch(&aig, &mut window), None);
        }
    }

    /// An edit inside a root's fanin cone stamps the cone, and the window's
    /// next enumeration lists the edited graph's cuts, not the ones it
    /// stored before the edit.
    #[test]
    fn an_edit_invalidates_the_stored_sets_above_it() {
        let mut aig = elf_circuits::epfl::multiplier(Scale::Tiny);
        let mut window = CutWindow::default();
        for node in aig.and_ids() {
            enumerated_in(&aig, node, &mut window);
        }
        // Down an output's deepest fanins to a node of level 2; the root two
        // levels above it is complete in its window, so its set is stored.
        let deeper = |aig: &Aig, id: NodeId| {
            let (f0, f1) = aig.fanins(id);
            if aig.level(f0.node()) >= aig.level(f1.node()) {
                f0
            } else {
                f1
            }
        };
        let mut path = vec![aig.outputs()[aig.outputs().len() / 2].node()];
        while let Some(&id) = path.last().filter(|&&id| aig.level(id) > 2) {
            path.push(deeper(&aig, id).node());
        }
        let (edited_node, root) = (path[path.len() - 1], path[path.len() - 3]);
        let listed = enumerated_in(&aig, root, &mut window);
        let replacement = deeper(&aig, edited_node);
        aig.replace(edited_node, replacement);
        let edited = enumerated_in(&aig, root, &mut window);
        assert_ne!(edited, listed, "the edit changes the root's cuts");
        assert_eq!(edited, enumerate_cuts_oracle(&aig, root));
        assert_eq!(kept_mismatch(&aig, &mut window), None);
    }

    /// A rewrite pass serves most of its window nodes from the store, and
    /// a commit costs only the sets above what it stamped: a store that
    /// stays cold, or one flushed again at every commit, fails here, not
    /// only in the benchmark.  Both settings reach the pass's network.
    #[test]
    fn a_pass_serves_most_window_nodes_from_the_store() {
        let source = elf_circuits::epfl::multiplier(Scale::Tiny);
        let mut twin = source.clone();
        let rewrite = Rewrite::default();
        let stats = rewrite.run(&mut twin);
        assert!(stats.cuts_committed > 0, "{stats:?}");
        let [kept, flushed] = [None, Some(0)].map(|flush_on_edit| {
            let mut aig = source.clone();
            let mut scratch = PassScratch::new();
            scratch.window.store.flush_on_edit = flush_on_edit;
            let committed = reference_pass(&mut aig, |aig, node| {
                rewrite
                    .resynthesize(aig, node, &mut scratch, false)
                    .is_some()
            });
            assert_eq!(committed, stats.cuts_committed);
            assert_eq!(structure(&aig), structure(&twin));
            scratch.window.served
        });
        let (stored, merged, all) = kept;
        assert!(
            2 * stored > all,
            "{stored} of {all} window nodes from the store"
        );
        let (_, merged_flushed, _) = flushed;
        assert!(
            2 * merged < merged_flushed,
            "{merged} complete nodes merged, {merged_flushed} with a flush per commit"
        );
    }

    /// The scripted circuits never fill a 64-node window; the multiplier's
    /// deep cones do, so here nodes past the window are leaves, buckets fill
    /// up and the truncation bites, and only a prefix of a window is
    /// complete: a stored set served to a node past it would differ.
    #[test]
    fn enumeration_matches_the_oracle_on_truncated_windows() {
        let aig = elf_circuits::epfl::multiplier(Scale::Tiny);
        let nodes: Vec<NodeId> = aig.and_ids().collect();
        let truncated = nodes
            .iter()
            .filter(|&&node| local_cone_oracle(&aig, node, usize::MAX).len() > WINDOW)
            .count();
        assert!(
            truncated > nodes.len() / 2,
            "{truncated} of {}",
            nodes.len()
        );
        assert_eq!(oracle_mismatch(&aig), None);
    }

    /// Runs the operator on `aig` and the oracle step on a copy and expects
    /// the same network, node for node; returns the number of commits.
    fn assert_pass_matches_oracle(name: &str, mut aig: Aig) -> usize {
        let mut twin = aig.clone();
        let mut operator = Rewrite::default();
        operator.set_cut_cache(CutCache::new(crate::CutCacheConfig::default()));
        let stats = operator.run(&mut aig);
        let mut oracle = Rewrite::default();
        oracle.set_cut_cache(CutCache::new(crate::CutCacheConfig::default()));
        let committed = reference_pass(&mut twin, |twin, node| {
            rewrite_node_oracle(&oracle, twin, node, true).is_some()
        });
        assert_eq!(stats.cuts_committed, committed, "{name}");
        assert_eq!(structure(&aig), structure(&twin), "{name}");
        committed
    }

    #[test]
    fn pass_matches_the_oracle_on_the_industrial_suite() {
        let mut committed = 0;
        for (name, aig) in industrial_suite(0.003, 1) {
            committed += assert_pass_matches_oracle(&name, aig);
        }
        assert!(committed > 0);
    }

    #[test]
    fn pass_matches_the_oracle_on_the_arithmetic_suite() {
        let mut committed = 0;
        for (name, aig) in arithmetic_suite(Scale::Tiny) {
            committed += assert_pass_matches_oracle(&name, aig);
        }
        assert!(committed > 0);
    }

    /// `[p, c, b]` and `[b, c, p]` are two cuts: a union keeps the order its
    /// leaves were met in, and only an identical list is a duplicate.
    #[test]
    fn union_dedup_is_order_sensitive() {
        let mut aig = Aig::new();
        let [b, c] = [aig.add_input(), aig.add_input()];
        let p = aig.and(!b, !c);
        let q = aig.and(p, !c);
        let r = aig.and(!q, p);
        aig.add_output(r);
        let cuts = enumerated(&aig, r.node());
        assert_eq!(cuts, enumerate_cuts_oracle(&aig, r.node()));
        let leaves: Vec<&[NodeId]> = cuts.iter().map(|cut| cut.leaves.as_slice()).collect();
        let [b, c, p, q] = [b, c, p, q].map(Lit::node);
        assert_eq!(
            leaves,
            [
                &[p, q][..],
                &[p, c],
                &[b, c],
                &[p, c, b],
                &[b, c, q],
                &[b, c, p]
            ]
        );
    }

    #[test]
    fn complement_candidate_wins_where_only_its_structure_exists() {
        // f = maj(a, b, c) as a flat SOP.  Majority is self-dual: both
        // polarities normalize to equal words, so the complement's form is
        // a candidate of its own — and here the graph already holds the
        // nodes of b (a + c) + a c, the form one polarity factors into.
        let mut aig = Aig::new();
        let [a, b, c] = [aig.add_input(), aig.add_input(), aig.add_input()];
        let f = aig.maj(a, b, c);
        aig.add_output(f);
        let a_or_c = aig.or(a, c);
        let product = aig.and(b, a_or_c);
        aig.add_output(product);
        let ac = aig.and(a, c);
        aig.add_output(ac);
        let golden = aig.clone();

        let operator = Rewrite::default();
        let mut blind = aig.clone();
        let mut scratch = PassScratch::new();
        let gain = operator.resynthesize(&mut aig, f.node(), &mut scratch, false);
        let blind_gain = rewrite_node_oracle(&operator, &mut blind, f.node(), false);
        assert_eq!(
            gain,
            Some(3),
            "complement form: one new node for four freed"
        );
        assert_eq!(blind_gain, Some(2), "first form alone: two new nodes");
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 21),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn cut_enumeration_respects_size_limit() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(6);
        let f = aig.and_many(&inputs);
        aig.add_output(f);
        let cuts = enumerated(&aig, f.node());
        assert!(!cuts.is_empty());
        for cut in &cuts {
            assert!(cut.num_leaves() <= CUT_SIZE);
            assert_eq!(cut.root, f.node());
        }
    }
}
