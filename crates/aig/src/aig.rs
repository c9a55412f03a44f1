//! The central And-Inverter Graph data structure.
//!
//! # Storage layout
//!
//! The graph is stored as a *struct of arrays*: every per-node attribute
//! (kind, fanins, reference count, level, liveness, birth and edit stamps)
//! lives in its own dense column indexed by [`NodeId`]; the marks of a cut
//! traversal live in a [`CutScratch`](crate::CutScratch) outside the graph.
//! Hot loops — cut enumeration, MFFC evaluation, simulation, level
//! propagation — stream through exactly the columns they need instead of
//! pulling whole 32-byte node structs into cache.
//!
//! Fanout lists live in a single shared pool of linked entries
//! (`fanout_pool`) with one chain head/tail pair per node, so recording a
//! fanout edge never allocates per node.  Freed entries are recycled through
//! an intrusive free chain.
//!
//! Arena slots of deleted nodes are recycled through a free list by later
//! insertions: a long `rf; rw; rs` flow keeps the arena proportional to the
//! number of live nodes instead of growing monotonically.
//! Recycling never invalidates bounds: issued [`NodeId`]s always index a
//! valid slot, and [`NodeToken`] lets callers detect when a slot has been
//! re-issued to a new node.

use std::collections::HashMap;

use crate::hash::WordState;
use crate::lit::{Lit, NodeId};

/// The structural-hash key of an AND whose fanins are `f0` and `f1`, in that
/// order: both literals in one word, which the word hasher reads in one
/// round.
pub(crate) fn strash_key(f0: Lit, f1: Lit) -> u64 {
    u64::from(f0.raw()) << 32 | u64::from(f1.raw())
}

/// A structural fanout reference: either another AND node or a primary output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fanout {
    /// The node is a fanin of this AND node.
    Node(NodeId),
    /// The node drives the primary output with this index.
    Output(u32),
}

/// Kind column encoding: the constant-false node.
const KIND_CONST0: u32 = 0;
/// Kind column encoding: a two-input AND gate.
const KIND_AND: u32 = u32::MAX;
/// Null link in the fanout pool and free chains.
const NIL: u32 = u32::MAX;

/// One entry of the shared fanout pool: an item plus the link to the next
/// entry of the same node's chain (or of the free chain once released).
#[derive(Debug, Clone, Copy)]
struct FanoutEntry {
    item: Fanout,
    next: u32,
}

/// A generation-stamped reference to a node.
///
/// Arena slots of deleted nodes are recycled by later insertions, so a bare
/// [`NodeId`] held across graph mutations may silently start naming a
/// *different* node.  A token captures the slot's birth stamp as well;
/// [`Aig::token_is_current`] then distinguishes "the node I captured is still
/// alive" from "the slot was freed (and possibly re-issued)".
///
/// # Examples
///
/// ```
/// use elf_aig::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.and(a, b);
/// aig.add_output(f);
/// let token = aig.token(f.node());
/// assert!(aig.token_is_current(token));
/// aig.replace(f.node(), a);
/// assert!(!aig.token_is_current(token));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeToken {
    id: NodeId,
    birth: u64,
}

impl NodeToken {
    /// The node id this token was captured for.
    #[inline]
    pub fn id(self) -> NodeId {
        self.id
    }
}

/// An And-Inverter Graph (AIG).
///
/// The graph contains a constant-false node (id 0), primary inputs, and
/// two-input AND nodes with optionally complemented fanins.  Primary outputs
/// are literals pointing into the graph.  Newly created AND nodes are
/// structurally hashed, so building the same `(a, b)` pair twice returns the
/// same node.
///
/// The structure supports in-place optimization: [`Aig::replace`] redirects
/// all fanouts of a node to another literal and garbage-collects the cone
/// that becomes unreferenced, which is the primitive used by refactoring.
/// Freed slots are recycled by later insertions.
///
/// # Examples
///
/// ```
/// use elf_aig::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let f = aig.or(a, b);
/// aig.add_output(f);
/// assert_eq!(aig.num_inputs(), 2);
/// assert_eq!(aig.num_ands(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    // ---- struct-of-arrays node columns, indexed by NodeId ----
    /// Node kind: [`KIND_CONST0`], [`KIND_AND`], or `input_index + 1`.
    kind: Vec<u32>,
    /// First fanin literal (AND nodes only; `Lit::FALSE` otherwise).
    fanin0: Vec<Lit>,
    /// Second fanin literal (AND nodes only; `Lit::FALSE` otherwise).
    fanin1: Vec<Lit>,
    /// Structural reference counts (fanout edge counts).
    refs: Vec<u32>,
    /// Logic levels (0 for inputs/constant).
    level: Vec<u32>,
    /// Liveness: `true` once the slot's node has been deleted.
    dead: Vec<bool>,
    /// Monotonic allocation stamp: strictly increasing over every node ever
    /// created, never reused.  All id-order-sensitive decisions (fanin
    /// normalization, iteration order) use births, so recycling a slot
    /// never changes a structural choice.
    birth: Vec<u64>,
    /// Edit stamp: the `edit_clock` reading at the last write of the slot's
    /// kind, fanins or liveness (see [`Aig::edit_stamp`]).
    edited: Vec<u64>,
    // ---- pooled fanout storage ----
    /// Head of each node's fanout chain in `fanout_pool` (`NIL` when empty).
    fanout_head: Vec<u32>,
    /// Tail of each node's fanout chain (meaningless while the head is `NIL`).
    fanout_tail: Vec<u32>,
    /// Shared pool of fanout entries for all nodes.
    fanout_pool: Vec<FanoutEntry>,
    /// Head of the free chain of released pool entries.
    fanout_free: u32,
    // ---- slot recycling ----
    /// Slots of deleted nodes, recycled LIFO by later insertions.
    free_slots: Vec<u32>,
    /// Next birth stamp to issue.
    next_birth: u64,
    /// Next edit stamp to issue.
    edit_clock: u64,
    // ---- speculative construction ----
    /// Whether a speculation capture is active.
    spec_active: bool,
    /// Nodes allocated since `begin_speculation`, in allocation order.
    spec_log: Vec<NodeId>,
    // ---- interface and bookkeeping ----
    inputs: Vec<NodeId>,
    outputs: Vec<Lit>,
    strash: HashMap<u64, NodeId, WordState>,
    num_ands: usize,
    levels_valid: bool,
    name: String,
}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG containing only the constant-false node.
    pub fn new() -> Self {
        Aig {
            kind: vec![KIND_CONST0],
            fanin0: vec![Lit::FALSE],
            fanin1: vec![Lit::FALSE],
            refs: vec![0],
            level: vec![0],
            dead: vec![false],
            birth: vec![0],
            edited: vec![0],
            fanout_head: vec![NIL],
            fanout_tail: vec![NIL],
            fanout_pool: Vec::new(),
            fanout_free: NIL,
            free_slots: Vec::new(),
            next_birth: 1,
            edit_clock: 1,
            spec_active: false,
            spec_log: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::with_hasher(WordState::default()),
            num_ands: 0,
            levels_valid: true,
            name: String::new(),
        }
    }

    /// Creates an empty AIG with a design name (used in reports and AIGER files).
    pub fn with_name(name: impl Into<String>) -> Self {
        let mut aig = Self::new();
        aig.name = name.into();
        aig
    }

    /// Returns the design name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the design name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Basic accessors
    // ------------------------------------------------------------------

    /// Total number of arena slots (including dead nodes, inputs and the constant).
    pub fn num_slots(&self) -> usize {
        self.kind.len()
    }

    /// Number of live AND nodes.
    pub fn num_ands(&self) -> usize {
        self.num_ands
    }

    /// Number of live nodes of any kind (constant, inputs and AND nodes).
    pub fn num_live_nodes(&self) -> usize {
        1 + self.inputs.len() + self.num_ands
    }

    /// Number of dead arena slots currently available for recycling.
    pub fn num_free_slots(&self) -> usize {
        self.free_slots.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Returns the primary inputs in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Returns the primary output literals.
    pub fn outputs(&self) -> &[Lit] {
        &self.outputs
    }

    /// Returns `true` if the node is a live AND node.
    #[inline]
    pub fn is_and(&self, id: NodeId) -> bool {
        let idx = id.as_usize();
        !self.dead[idx] && self.kind[idx] == KIND_AND
    }

    /// Returns `true` if the node is a primary input.
    #[inline]
    pub fn is_input(&self, id: NodeId) -> bool {
        let k = self.kind[id.as_usize()];
        k != KIND_CONST0 && k != KIND_AND
    }

    /// Returns `true` if the node slot has been deleted.
    #[inline]
    pub fn is_dead(&self, id: NodeId) -> bool {
        self.dead[id.as_usize()]
    }

    /// Returns the fanin literals of an AND node.
    ///
    /// # Panics
    ///
    /// Panics if the node is not an AND node.
    #[inline]
    pub fn fanins(&self, id: NodeId) -> (Lit, Lit) {
        let idx = id.as_usize();
        assert!(
            self.kind[idx] == KIND_AND,
            "fanins requested for non-AND node {id}"
        );
        (self.fanin0[idx], self.fanin1[idx])
    }

    /// The fanin literals of `id` when its slot holds an AND node, dead or
    /// alive (the kind alone decides).
    #[inline]
    pub(crate) fn and_fanins(&self, id: NodeId) -> Option<(Lit, Lit)> {
        let idx = id.as_usize();
        (self.kind[idx] == KIND_AND).then(|| (self.fanin0[idx], self.fanin1[idx]))
    }

    /// Returns the structural reference count (fanout count) of a node.
    #[inline]
    pub fn refs(&self, id: NodeId) -> u32 {
        self.refs[id.as_usize()]
    }

    /// Iterates over the fanout references of a node.
    pub fn fanouts(&self, id: NodeId) -> impl Iterator<Item = Fanout> + '_ {
        let mut cursor = self.fanout_head[id.as_usize()];
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let entry = &self.fanout_pool[cursor as usize];
            cursor = entry.next;
            Some(entry.item)
        })
    }

    /// Returns the logic level of a node.
    ///
    /// Levels are maintained incrementally during construction and may become
    /// stale after [`Aig::replace`]; call [`Aig::recompute_levels`] (or
    /// [`Aig::depth`], which does so on demand) for exact values.
    #[inline]
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.as_usize()]
    }

    /// Returns the birth stamp of the node currently occupying `id`'s slot.
    ///
    /// Births increase strictly in allocation order and are never reused, so
    /// they define the canonical iteration and fanin-normalization order of
    /// the graph (what the raw slot index used to be before slot recycling).
    #[inline]
    pub fn birth(&self, id: NodeId) -> u64 {
        self.birth[id.as_usize()]
    }

    /// The graph's edit clock: one past the newest edit stamp issued.
    ///
    /// Read it before walking the graph; a slot whose
    /// [`edit_stamp`](Aig::edit_stamp) is below the reading has not had its
    /// kind, fanins or liveness written since.  The clock is a `u64`
    /// advanced once per stamped slot, so at a billion stamps a second it
    /// would wrap after 584 years: a reading stays comparable for as long as
    /// a caller keeps it (rewrite keeps readings for a whole pass).
    #[inline]
    pub fn edit_clock(&self) -> u64 {
        self.edit_clock
    }

    /// The edit stamp of `id`'s slot: the [`edit_clock`](Aig::edit_clock)
    /// reading at which its kind, fanins or liveness was last written —
    /// when the slot was allocated or recycled, when [`Aig::replace`]
    /// redirected one of its fanins, or when the node was deleted.
    /// Reference counts, levels, fanout lists and strash lookups leave it
    /// alone.
    ///
    /// The reconvergence-driven cut engine reads only the kind and fanins of
    /// a cut's root, cone and leaves, so a cut none of whose nodes was
    /// stamped since a clock reading is exactly the cut the engine forms
    /// now, leaf order and cone order included.
    ///
    /// # Examples
    ///
    /// ```
    /// use elf_aig::Aig;
    ///
    /// let mut aig = Aig::new();
    /// let (a, b, c) = (aig.add_input(), aig.add_input(), aig.add_input());
    /// let ab = aig.and(a, b);
    /// let top = aig.and(ab, c);
    /// aig.add_output(top);
    /// let clock = aig.edit_clock();
    /// assert!(aig.edit_stamp(top.node()) < clock);
    /// aig.replace(ab.node(), a); // rewrites `top`'s fanin
    /// assert!(aig.edit_stamp(top.node()) >= clock);
    /// ```
    #[inline]
    pub fn edit_stamp(&self, id: NodeId) -> u64 {
        self.edited[id.as_usize()]
    }

    /// Stamps slot `idx` as edited now.
    #[inline]
    fn stamp_edit(&mut self, idx: usize) {
        debug_assert!(self.edit_clock < u64::MAX, "the edit clock overflowed");
        self.edited[idx] = self.edit_clock;
        self.edit_clock += 1;
    }

    /// Captures a generation-stamped token for `id` (see [`NodeToken`]).
    #[inline]
    pub fn token(&self, id: NodeId) -> NodeToken {
        NodeToken {
            id,
            birth: self.birth[id.as_usize()],
        }
    }

    /// Returns `true` if the node captured by `token` is still alive (its
    /// slot has neither been deleted nor re-issued to a newer node).
    #[inline]
    pub fn token_is_current(&self, token: NodeToken) -> bool {
        let idx = token.id.as_usize();
        !self.dead[idx] && self.birth[idx] == token.birth
    }

    /// Ordering key of a literal: the node's birth stamp with the complement
    /// flag as tie-breaker.  This is the recycling-stable equivalent of the
    /// raw literal encoding `2 * id + complement`.
    #[inline]
    fn lit_key(&self, lit: Lit) -> u64 {
        (self.birth[lit.node().as_usize()] << 1) | lit.is_complemented() as u64
    }

    /// Iterates over the ids of all live AND nodes in allocation (birth)
    /// order.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ids: Vec<u32> = (0..self.kind.len() as u32)
            .filter(|&i| !self.dead[i as usize] && self.kind[i as usize] == KIND_AND)
            .collect();
        ids.sort_unstable_by_key(|&i| self.birth[i as usize]);
        ids.into_iter().map(NodeId::new)
    }

    // ------------------------------------------------------------------
    // Slot and fanout-pool management
    // ------------------------------------------------------------------

    /// Allocates a fresh slot: pops the free list, or grows every column by
    /// one when it is empty.  The slot comes back zeroed with fresh birth
    /// and edit stamps; the caller fills kind/fanins/level.
    fn alloc_slot(&mut self) -> NodeId {
        let stamp = self.next_birth;
        self.next_birth += 1;
        if let Some(slot) = self.free_slots.pop() {
            let idx = slot as usize;
            debug_assert!(self.dead[idx], "free list holds a live slot");
            debug_assert_eq!(
                self.fanout_head[idx], NIL,
                "freed slot still has fanout entries"
            );
            self.dead[idx] = false;
            self.kind[idx] = KIND_CONST0;
            self.fanin0[idx] = Lit::FALSE;
            self.fanin1[idx] = Lit::FALSE;
            self.refs[idx] = 0;
            self.level[idx] = 0;
            self.birth[idx] = stamp;
            self.stamp_edit(idx);
            return NodeId::new(slot);
        }
        let id = NodeId::new(self.kind.len() as u32);
        self.edited.push(0);
        self.stamp_edit(id.as_usize());
        self.kind.push(KIND_CONST0);
        self.fanin0.push(Lit::FALSE);
        self.fanin1.push(Lit::FALSE);
        self.refs.push(0);
        self.level.push(0);
        self.dead.push(false);
        self.birth.push(stamp);
        self.fanout_head.push(NIL);
        self.fanout_tail.push(NIL);
        id
    }

    /// Makes room for `nodes` more AND nodes (or inputs) without growing a
    /// column, the fanout pool or the structural hash again.
    pub(crate) fn reserve(&mut self, nodes: usize) {
        self.kind.reserve(nodes);
        self.fanin0.reserve(nodes);
        self.fanin1.reserve(nodes);
        self.refs.reserve(nodes);
        self.level.reserve(nodes);
        self.dead.reserve(nodes);
        self.birth.reserve(nodes);
        self.edited.reserve(nodes);
        self.fanout_head.reserve(nodes);
        self.fanout_tail.reserve(nodes);
        self.fanout_pool.reserve(2 * nodes);
        self.strash.reserve(nodes);
    }

    /// Takes one entry from the pool's free chain or grows the pool.
    fn alloc_fanout_entry(&mut self, item: Fanout) -> u32 {
        if self.fanout_free != NIL {
            let entry = self.fanout_free;
            self.fanout_free = self.fanout_pool[entry as usize].next;
            self.fanout_pool[entry as usize] = FanoutEntry { item, next: NIL };
            entry
        } else {
            self.fanout_pool.push(FanoutEntry { item, next: NIL });
            (self.fanout_pool.len() - 1) as u32
        }
    }

    /// Appends a fanout record at the end of `node`'s chain (the equivalent
    /// of the old per-node `Vec::push`).  Does not touch reference counts.
    fn push_fanout(&mut self, node: NodeId, item: Fanout) {
        let entry = self.alloc_fanout_entry(item);
        let idx = node.as_usize();
        if self.fanout_head[idx] == NIL {
            self.fanout_head[idx] = entry;
        } else {
            let tail = self.fanout_tail[idx] as usize;
            self.fanout_pool[tail].next = entry;
        }
        self.fanout_tail[idx] = entry;
    }

    /// Removes the first fanout record equal to `item` from `node`'s chain,
    /// preserving the exact order semantics of the old `Vec::swap_remove`
    /// (the last record takes the removed record's position).  Does not touch
    /// reference counts.  Returns `true` if a record was removed.
    fn swap_remove_fanout(&mut self, node: NodeId, item: Fanout) -> bool {
        let idx = node.as_usize();
        let mut prev = NIL;
        let mut cursor = self.fanout_head[idx];
        if cursor == NIL {
            return false;
        }
        let mut found = NIL;
        // Walk the whole chain: note the first match, end on the tail with
        // `prev` as its predecessor.
        loop {
            let entry = &self.fanout_pool[cursor as usize];
            if found == NIL && entry.item == item {
                found = cursor;
            }
            if entry.next == NIL {
                break;
            }
            prev = cursor;
            cursor = entry.next;
        }
        if found == NIL {
            return false;
        }
        let tail = cursor;
        if found == tail {
            if prev == NIL {
                self.fanout_head[idx] = NIL;
            } else {
                self.fanout_pool[prev as usize].next = NIL;
                self.fanout_tail[idx] = prev;
            }
        } else {
            // swap_remove: the tail's item moves into the removed position,
            // then the tail record is released.
            self.fanout_pool[found as usize].item = self.fanout_pool[tail as usize].item;
            self.fanout_pool[prev as usize].next = NIL;
            self.fanout_tail[idx] = prev;
        }
        self.fanout_pool[tail as usize].next = self.fanout_free;
        self.fanout_free = tail;
        true
    }

    /// Empties `node`'s fanout chain, returning the items in chain order (the
    /// equivalent of the old `std::mem::take` on the per-node `Vec`).
    fn take_fanouts(&mut self, node: NodeId) -> Vec<Fanout> {
        let idx = node.as_usize();
        let mut items = Vec::new();
        let mut cursor = self.fanout_head[idx];
        self.fanout_head[idx] = NIL;
        self.fanout_tail[idx] = NIL;
        while cursor != NIL {
            let entry = self.fanout_pool[cursor as usize];
            items.push(entry.item);
            self.fanout_pool[cursor as usize].next = self.fanout_free;
            self.fanout_free = cursor;
            cursor = entry.next;
        }
        items
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a new primary input and returns its literal.
    pub fn add_input(&mut self) -> Lit {
        let id = self.alloc_slot();
        self.kind[id.as_usize()] = self.inputs.len() as u32 + 1;
        self.inputs.push(id);
        id.lit()
    }

    /// Adds `count` primary inputs and returns their literals.
    pub fn add_inputs(&mut self, count: usize) -> Vec<Lit> {
        (0..count).map(|_| self.add_input()).collect()
    }

    /// Registers `lit` as a new primary output and returns its output index.
    pub fn add_output(&mut self, lit: Lit) -> usize {
        let index = self.outputs.len();
        self.outputs.push(lit);
        self.refs[lit.node().as_usize()] += 1;
        self.push_fanout(lit.node(), Fanout::Output(index as u32));
        index
    }

    /// Replaces the literal driving output `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set_output(&mut self, index: usize, lit: Lit) {
        let old = self.outputs[index];
        if old == lit {
            return;
        }
        self.refs[old.node().as_usize()] -= 1;
        self.swap_remove_fanout(old.node(), Fanout::Output(index as u32));
        self.outputs[index] = lit;
        self.refs[lit.node().as_usize()] += 1;
        self.push_fanout(lit.node(), Fanout::Output(index as u32));
    }

    /// Returns the constant literal with the given value.
    pub fn constant(&self, value: bool) -> Lit {
        if value {
            Lit::TRUE
        } else {
            Lit::FALSE
        }
    }

    /// Returns the conjunction of two literals, applying structural hashing
    /// and one-level constant propagation.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial cases.
        if a.is_false() || b.is_false() {
            return Lit::FALSE;
        }
        if a.is_true() {
            return b;
        }
        if b.is_true() {
            return a;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return Lit::FALSE;
        }
        let (f0, f1) = if self.lit_key(a) <= self.lit_key(b) {
            (a, b)
        } else {
            (b, a)
        };
        let key = strash_key(f0, f1);
        if let Some(&id) = self.strash.get(&key) {
            let idx = id.as_usize();
            // A stale entry could name a recycled slot; only trust it when
            // the slot still holds a live AND with exactly these fanins.
            if !self.dead[idx]
                && self.kind[idx] == KIND_AND
                && self.fanin0[idx] == f0
                && self.fanin1[idx] == f1
            {
                return id.lit();
            }
        }
        let level = 1 + self.level[f0.node().as_usize()].max(self.level[f1.node().as_usize()]);
        let id = self.alloc_slot();
        let idx = id.as_usize();
        self.kind[idx] = KIND_AND;
        self.fanin0[idx] = f0;
        self.fanin1[idx] = f1;
        self.level[idx] = level;
        self.num_ands += 1;
        self.strash.insert(key, id);
        self.refs[f0.node().as_usize()] += 1;
        self.push_fanout(f0.node(), Fanout::Node(id));
        self.refs[f1.node().as_usize()] += 1;
        self.push_fanout(f1.node(), Fanout::Node(id));
        if self.spec_active {
            self.spec_log.push(id);
        }
        id.lit()
    }

    /// Looks up the AND of two literals without creating it.
    ///
    /// Returns `Some` if the (possibly constant-folded) result already exists.
    pub fn and_lookup(&self, a: Lit, b: Lit) -> Option<Lit> {
        if a.is_false() || b.is_false() {
            return Some(Lit::FALSE);
        }
        if a.is_true() {
            return Some(b);
        }
        if b.is_true() {
            return Some(a);
        }
        if a == b {
            return Some(a);
        }
        if a == !b {
            return Some(Lit::FALSE);
        }
        let (f0, f1) = if self.lit_key(a) <= self.lit_key(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.strash
            .get(&strash_key(f0, f1))
            .filter(|id| {
                let idx = id.as_usize();
                !self.dead[idx]
                    && self.kind[idx] == KIND_AND
                    && self.fanin0[idx] == f0
                    && self.fanin1[idx] == f1
            })
            .map(|id| id.lit())
    }

    /// Returns the disjunction of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the exclusive-or of two literals (built from three AND nodes).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// Returns the multiplexer `if sel then t else e`.
    pub fn mux(&mut self, sel: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Returns the majority of three literals.
    pub fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and(a, b);
        let ac = self.and(a, c);
        let bc = self.and(b, c);
        let t = self.or(ab, ac);
        self.or(t, bc)
    }

    /// Builds a balanced conjunction of all literals in `lits`.
    ///
    /// Returns [`Lit::TRUE`] when `lits` is empty.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// Builds a balanced disjunction of all literals in `lits`.
    ///
    /// Returns [`Lit::FALSE`] when `lits` is empty.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        identity: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit + Copy,
    ) -> Lit {
        match lits.len() {
            0 => identity,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let left = self.reduce_balanced(&lits[..mid], identity, op);
                let right = self.reduce_balanced(&lits[mid..], identity, op);
                op(self, left, right)
            }
        }
    }

    // ------------------------------------------------------------------
    // Levels
    // ------------------------------------------------------------------

    /// Recomputes exact logic levels for all live nodes.
    pub fn recompute_levels(&mut self) {
        let order = self.topological_order();
        for id in self.inputs.clone() {
            self.level[id.as_usize()] = 0;
        }
        self.level[0] = 0;
        for id in order {
            let idx = id.as_usize();
            let (f0, f1) = (self.fanin0[idx], self.fanin1[idx]);
            let level = 1 + self.level[f0.node().as_usize()].max(self.level[f1.node().as_usize()]);
            self.level[idx] = level;
        }
        self.levels_valid = true;
    }

    /// Returns the depth (maximum level over all primary outputs), recomputing
    /// levels if they might be stale.
    pub fn depth(&mut self) -> u32 {
        if !self.levels_valid {
            self.recompute_levels();
        }
        self.outputs
            .iter()
            .map(|lit| self.level[lit.node().as_usize()])
            .max()
            .unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Topological order
    // ------------------------------------------------------------------

    /// Returns the ids of all live AND nodes reachable from the primary
    /// outputs, in topological (fanin-before-fanout) order.
    pub fn topological_order(&self) -> Vec<NodeId> {
        let mut visited = vec![false; self.kind.len()];
        let mut order = Vec::with_capacity(self.num_ands);
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for out in &self.outputs {
            stack.push((out.node(), false));
        }
        while let Some((id, expanded)) = stack.pop() {
            let idx = id.as_usize();
            if expanded {
                order.push(id);
                continue;
            }
            if visited[idx] || self.kind[idx] != KIND_AND || self.dead[idx] {
                continue;
            }
            visited[idx] = true;
            stack.push((id, true));
            stack.push((self.fanin0[idx].node(), false));
            stack.push((self.fanin1[idx].node(), false));
        }
        order
    }

    /// Counts the live AND nodes reachable from the primary outputs.
    ///
    /// This differs from [`Aig::num_ands`] when dangling (unreferenced) nodes
    /// are present; it is the node count reported in experiments.
    pub fn num_reachable_ands(&self) -> usize {
        self.topological_order().len()
    }

    // ------------------------------------------------------------------
    // Reference counting / MFFC
    // ------------------------------------------------------------------

    /// Dereferences the maximum fanout-free cone (MFFC) rooted at `root`,
    /// never descending past the `boundary` nodes (typically the leaves of a
    /// cut; `&[]` walks the whole MFFC), and returns the number of AND nodes
    /// in the cone.
    ///
    /// The reference counts of the cone's fanins are decremented as if the
    /// cone had been deleted; [`Aig::ref_mffc_bounded`] with the same root
    /// and boundary restores them.  This mirrors ABC's `Abc_NodeDeref_rec`
    /// and is used to evaluate the gain of a resynthesis candidate without
    /// modifying the graph.  Boundary nodes have their reference count
    /// decremented when an edge from the cone reaches them, but they are
    /// neither counted nor expanded, because a resynthesized cut keeps using
    /// its leaves.  The returned count is therefore the number of AND nodes
    /// a cut replacement is guaranteed to free.
    pub fn deref_mffc_bounded(&mut self, root: NodeId, boundary: &[NodeId]) -> usize {
        debug_assert!(self.is_and(root));
        let mut count = 1;
        let idx = root.as_usize();
        let (f0, f1) = (self.fanin0[idx].node(), self.fanin1[idx].node());
        for fanin in [f0, f1] {
            let fidx = fanin.as_usize();
            debug_assert!(self.refs[fidx] > 0, "dereferencing node with zero refs");
            self.refs[fidx] -= 1;
            if self.refs[fidx] == 0
                && self.kind[fidx] == KIND_AND
                && !self.dead[fidx]
                && !boundary.contains(&fanin)
            {
                count += self.deref_mffc_bounded(fanin, boundary);
            }
        }
        count
    }

    /// Undoes [`Aig::deref_mffc_bounded`] with the same `root` and
    /// `boundary`, returning the same count.
    pub fn ref_mffc_bounded(&mut self, root: NodeId, boundary: &[NodeId]) -> usize {
        debug_assert!(self.is_and(root));
        let mut count = 1;
        let idx = root.as_usize();
        let (f0, f1) = (self.fanin0[idx].node(), self.fanin1[idx].node());
        for fanin in [f0, f1] {
            let fidx = fanin.as_usize();
            let needs_recursion = self.refs[fidx] == 0
                && self.kind[fidx] == KIND_AND
                && !self.dead[fidx]
                && !boundary.contains(&fanin);
            if needs_recursion {
                count += self.ref_mffc_bounded(fanin, boundary);
            }
            self.refs[fidx] += 1;
        }
        count
    }

    // ------------------------------------------------------------------
    // Replacement and deletion
    // ------------------------------------------------------------------

    /// Redirects every fanout of `old` (including primary outputs) to the
    /// literal `new`, then deletes the cone rooted at `old` that becomes
    /// unreferenced.
    ///
    /// This is the commit primitive of refactoring: after a better
    /// implementation of `old`'s function has been built (rooted at `new`),
    /// `replace` swaps it in.  Complement flags on the redirected edges are
    /// preserved (`f = AND(old', x)` becomes `f = AND(new', x)`).
    ///
    /// Levels become stale after a replacement; they are recomputed lazily.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a live AND node, or if `new`'s transitive fanin
    /// cone contains `old` (which would create a combinational cycle).
    pub fn replace(&mut self, old: NodeId, new: Lit) {
        assert!(self.is_and(old), "replace target must be a live AND node");
        if new.node() == old {
            return;
        }
        assert!(
            !self.cone_contains(new.node(), old),
            "replacement literal depends on the node being replaced"
        );
        let moved = self.take_fanouts(old);
        let moved_count = moved.len() as u32;
        for fanout in &moved {
            match *fanout {
                Fanout::Output(index) => {
                    let idx = index as usize;
                    let compl = self.outputs[idx].is_complemented();
                    self.outputs[idx] = new.complement_if(compl);
                }
                Fanout::Node(f) => {
                    self.rewrite_fanin(f, old, new);
                }
            }
            self.push_fanout(new.node(), *fanout);
        }
        self.refs[new.node().as_usize()] += moved_count;
        self.refs[old.as_usize()] -= moved_count;
        if self.refs[old.as_usize()] == 0 {
            self.delete_cone(old);
        }
        self.levels_valid = false;
    }

    /// Rewrites the fanins of `fanout` that point at `old` so they point at
    /// `new` (with preserved complement), keeping the structural hash table
    /// consistent.
    fn rewrite_fanin(&mut self, fanout: NodeId, old: NodeId, new: Lit) {
        let fidx = fanout.as_usize();
        let (old_f0, old_f1) = (self.fanin0[fidx], self.fanin1[fidx]);
        let old_key = strash_key(old_f0, old_f1);
        let mut f0 = old_f0;
        let mut f1 = old_f1;
        if f0.node() == old {
            f0 = new.complement_if(f0.is_complemented());
        }
        if f1.node() == old {
            f1 = new.complement_if(f1.is_complemented());
        }
        if self.lit_key(f0) > self.lit_key(f1) {
            std::mem::swap(&mut f0, &mut f1);
        }
        // Remove the stale hash entry if it maps to this node.
        if self.strash.get(&old_key) == Some(&fanout) {
            self.strash.remove(&old_key);
        }
        // Re-insert under the new key only if it is free; otherwise the graph
        // temporarily holds a structural duplicate which a later `cleanup`
        // or strashing pass can merge.
        let new_key = strash_key(f0, f1);
        self.strash.entry(new_key).or_insert(fanout);
        self.fanin0[fidx] = f0;
        self.fanin1[fidx] = f1;
        self.stamp_edit(fidx);
    }

    /// Deletes the AND node `root` (which must have no remaining fanouts) and
    /// recursively deletes fanins whose reference count drops to zero.
    ///
    /// The freed arena slots go onto the free list and may be re-issued to
    /// later insertions.
    pub fn delete_cone(&mut self, root: NodeId) {
        debug_assert!(self.is_and(root));
        debug_assert_eq!(self.refs[root.as_usize()], 0);
        debug_assert_eq!(
            self.fanout_head[root.as_usize()],
            NIL,
            "deleting a node with recorded fanouts"
        );
        let idx = root.as_usize();
        let (f0, f1) = (self.fanin0[idx], self.fanin1[idx]);
        // Remove from the structural hash table.
        let key = strash_key(f0, f1);
        if self.strash.get(&key) == Some(&root) {
            self.strash.remove(&key);
        }
        self.dead[idx] = true;
        self.stamp_edit(idx);
        self.num_ands -= 1;
        self.free_slots.push(root.index());
        for fanin in [f0, f1] {
            let fid = fanin.node();
            self.swap_remove_fanout(fid, Fanout::Node(root));
            let fidx = fid.as_usize();
            self.refs[fidx] -= 1;
            if self.refs[fidx] == 0 && self.kind[fidx] == KIND_AND && !self.dead[fidx] {
                self.delete_cone(fid);
            }
        }
    }

    // ------------------------------------------------------------------
    // Speculative construction
    // ------------------------------------------------------------------

    /// Starts capturing speculative node allocations.
    ///
    /// Every node created by [`Aig::and`] (directly or through the derived
    /// constructors) until the matching [`Aig::commit_speculation`] or
    /// [`Aig::reject_speculation`] is logged.  Operators use this to build a
    /// resynthesis candidate, then discard it wholesale when it turns out to
    /// be unusable (e.g. it would create a cycle).
    ///
    /// # Panics
    ///
    /// Panics if a speculation capture is already active (captures do not
    /// nest).
    pub fn begin_speculation(&mut self) {
        assert!(!self.spec_active, "speculation captures do not nest");
        self.spec_active = true;
        self.spec_log.clear();
    }

    /// Ends the current speculation capture, keeping the captured nodes.
    ///
    /// # Panics
    ///
    /// Panics if no speculation capture is active.
    pub fn commit_speculation(&mut self) {
        assert!(self.spec_active, "no active speculation to commit");
        self.spec_active = false;
        self.spec_log.clear();
    }

    /// Ends the current speculation capture and deletes every captured node
    /// that is dangling (has no fanouts), newest first, returning how many
    /// were removed.
    ///
    /// Captured nodes that gained external fanouts in the meantime are kept.
    ///
    /// # Panics
    ///
    /// Panics if no speculation capture is active.
    pub fn reject_speculation(&mut self) -> usize {
        assert!(self.spec_active, "no active speculation to reject");
        self.spec_active = false;
        let log = std::mem::take(&mut self.spec_log);
        let mut removed = 0;
        for &id in log.iter().rev() {
            if self.is_and(id) && self.refs[id.as_usize()] == 0 {
                self.delete_cone(id);
                removed += 1;
            }
        }
        removed
    }

    /// Removes dangling AND nodes that are not reachable from any primary
    /// output and returns how many were deleted.
    pub fn cleanup(&mut self) -> usize {
        let mut reachable = vec![false; self.kind.len()];
        for id in self.topological_order() {
            reachable[id.as_usize()] = true;
        }
        let ids: Vec<NodeId> = self.and_ids().collect();
        let mut removed = 0;
        // Delete in reverse allocation order so fanouts go before fanins.
        for &id in ids.iter().rev() {
            if self.is_and(id) && !reachable[id.as_usize()] && self.refs[id.as_usize()] == 0 {
                self.delete_cone(id);
                removed += 1;
            }
        }
        removed
    }

    /// Rebuilds the AIG from scratch, re-strashing every node reachable from
    /// the outputs.  Returns the compacted copy.
    ///
    /// This merges structural duplicates that [`Aig::replace`] may have left
    /// behind and drops dead arena slots.
    pub fn restrash(&self) -> Aig {
        let mut fresh = Aig::with_name(self.name.clone());
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.kind.len()];
        for &input in &self.inputs {
            map[input.as_usize()] = fresh.add_input();
        }
        for id in self.topological_order() {
            let idx = id.as_usize();
            let (f0, f1) = (self.fanin0[idx], self.fanin1[idx]);
            let a = map[f0.node().as_usize()].complement_if(f0.is_complemented());
            let b = map[f1.node().as_usize()].complement_if(f1.is_complemented());
            map[idx] = fresh.and(a, b);
        }
        for out in &self.outputs {
            let lit = map[out.node().as_usize()].complement_if(out.is_complemented());
            fresh.add_output(lit);
        }
        fresh
    }

    /// Verifies internal invariants (reference counts, fanout chains and pool
    /// accounting, hash table consistency, free-list consistency, birth-stamp
    /// ordering, edit stamps below the clock).  Intended for tests and
    /// debugging.
    ///
    /// Returns a list of human-readable violations; an empty list means the
    /// graph is consistent.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let num_slots = self.kind.len();
        let mut expected_refs = vec![0u32; num_slots];
        // Collect every recorded fanout edge once (a multiset keyed by
        // `(source, consumer)`), so membership checks below are O(1) hash
        // lookups instead of per-edge scans of the fanout chains.  Also
        // account for every pool entry reachable from a chain.
        let mut recorded_edges: HashMap<(NodeId, Fanout), u32> = HashMap::new();
        let mut chained_entries = 0usize;
        for idx in 0..num_slots {
            let source = NodeId::new(idx as u32);
            let mut cursor = self.fanout_head[idx];
            let mut steps = 0usize;
            let mut last = NIL;
            while cursor != NIL {
                steps += 1;
                if steps > self.fanout_pool.len() {
                    problems.push(format!("fanout chain of {source} does not terminate"));
                    break;
                }
                let entry = &self.fanout_pool[cursor as usize];
                *recorded_edges.entry((source, entry.item)).or_insert(0) += 1;
                last = cursor;
                cursor = entry.next;
            }
            if self.fanout_head[idx] != NIL && last != self.fanout_tail[idx] {
                problems.push(format!("fanout tail of {source} is stale"));
            }
            chained_entries += steps;
        }
        let mut free_entries = 0usize;
        let mut cursor = self.fanout_free;
        while cursor != NIL {
            free_entries += 1;
            if free_entries > self.fanout_pool.len() {
                problems.push("fanout free chain does not terminate".to_string());
                break;
            }
            cursor = self.fanout_pool[cursor as usize].next;
        }
        if chained_entries + free_entries != self.fanout_pool.len() {
            problems.push(format!(
                "fanout pool leak: {chained_entries} chained + {free_entries} free != {} entries",
                self.fanout_pool.len()
            ));
        }
        let mut consume_edge = |source: NodeId, fanout: Fanout| -> bool {
            match recorded_edges.get_mut(&(source, fanout)) {
                Some(count) if *count > 0 => {
                    *count -= 1;
                    true
                }
                _ => false,
            }
        };
        for idx in 0..num_slots {
            if self.dead[idx] {
                continue;
            }
            if self.kind[idx] == KIND_AND {
                for fanin in [self.fanin0[idx], self.fanin1[idx]] {
                    expected_refs[fanin.node().as_usize()] += 1;
                    if self.dead[fanin.node().as_usize()] {
                        problems.push(format!("node n{idx} has dead fanin {}", fanin.node()));
                    }
                    if !consume_edge(fanin.node(), Fanout::Node(NodeId::new(idx as u32))) {
                        problems.push(format!(
                            "fanout list of {} is missing consumer n{idx}",
                            fanin.node()
                        ));
                    }
                }
                if self.lit_key(self.fanin0[idx]) > self.lit_key(self.fanin1[idx]) {
                    problems.push(format!("node n{idx} has unordered fanins"));
                }
            }
        }
        for (index, out) in self.outputs.iter().enumerate() {
            expected_refs[out.node().as_usize()] += 1;
            if self.dead[out.node().as_usize()] {
                problems.push(format!("output {index} drives dead node {}", out.node()));
            }
            if !consume_edge(out.node(), Fanout::Output(index as u32)) {
                problems.push(format!(
                    "fanout list of {} is missing output {index}",
                    out.node()
                ));
            }
        }
        for ((source, _), count) in recorded_edges {
            if count > 0 {
                problems.push(format!(
                    "fanout list of {source} holds {count} stale entr{}",
                    if count == 1 { "y" } else { "ies" }
                ));
            }
        }
        for (idx, &expected) in expected_refs.iter().enumerate() {
            if self.dead[idx] {
                continue;
            }
            if self.refs[idx] != expected {
                problems.push(format!(
                    "node n{idx} has refs {} but {expected} structural fanouts",
                    self.refs[idx]
                ));
            }
        }
        for (&key, &id) in &self.strash {
            let idx = id.as_usize();
            if self.dead[idx] {
                problems.push(format!("hash table entry points at dead node {id}"));
                continue;
            }
            if self.kind[idx] != KIND_AND {
                problems.push(format!("hash table entry points at non-AND node {id}"));
                continue;
            }
            if strash_key(self.fanin0[idx], self.fanin1[idx]) != key {
                problems.push(format!("hash table key mismatch for node {id}"));
            }
        }
        // Free-list consistency: the free list must hold exactly the dead
        // slots, each once.
        let mut free_sorted: Vec<u32> = self.free_slots.clone();
        free_sorted.sort_unstable();
        let dead_sorted: Vec<u32> = (0..num_slots as u32)
            .filter(|&i| self.dead[i as usize])
            .collect();
        if free_sorted != dead_sorted {
            problems.push(format!(
                "free list ({} slots) does not match dead slots ({})",
                free_sorted.len(),
                dead_sorted.len()
            ));
        }
        // Birth stamps of live nodes must be unique and below the counter.
        let mut births: Vec<u64> = (0..num_slots)
            .filter(|&i| !self.dead[i])
            .map(|i| self.birth[i])
            .collect();
        births.sort_unstable();
        if births.windows(2).any(|w| w[0] == w[1]) {
            problems.push("duplicate birth stamps among live nodes".to_string());
        }
        if births.last().is_some_and(|&b| b >= self.next_birth) {
            problems.push("live birth stamp at or above the allocation counter".to_string());
        }
        // Edit stamps of every slot, dead ones included, are below the clock.
        if let Some(idx) = self.edited.iter().position(|&s| s >= self.edit_clock) {
            problems.push(format!(
                "slot n{idx} has an edit stamp at or above the clock"
            ));
        }
        let live_ands = (0..num_slots)
            .filter(|&i| !self.dead[i] && self.kind[i] == KIND_AND)
            .count();
        if live_ands != self.num_ands {
            problems.push(format!(
                "num_ands counter is {} but {} live AND nodes exist",
                self.num_ands, live_ands
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_input_aig() -> (Aig, Lit, Lit) {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        (aig, a, b)
    }

    /// The size of `root`'s whole MFFC, with the reference counts restored.
    fn mffc_size(aig: &mut Aig, root: NodeId) -> usize {
        let size = aig.deref_mffc_bounded(root, &[]);
        assert_eq!(aig.ref_mffc_bounded(root, &[]), size);
        size
    }

    #[test]
    fn constant_folding_rules() {
        let (mut aig, a, _) = two_input_aig();
        assert_eq!(aig.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(aig.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(aig.and(a, Lit::TRUE), a);
        assert_eq!(aig.and(Lit::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), Lit::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_deduplicates() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.and(a, b);
        let y = aig.and(b, a);
        assert_eq!(x, y);
        assert_eq!(aig.num_ands(), 1);
        let z = aig.and(!a, b);
        assert_ne!(x, z);
        assert_eq!(aig.num_ands(), 2);
    }

    #[test]
    fn or_xor_mux_construction() {
        let (mut aig, a, b) = two_input_aig();
        let o = aig.or(a, b);
        assert!(o.is_complemented());
        let x = aig.xor(a, b);
        aig.add_output(o);
        aig.add_output(x);
        assert_eq!(aig.num_outputs(), 2);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn levels_track_depth() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let t = aig.and(a, b);
        let f = aig.and(t, c);
        aig.add_output(f);
        assert_eq!(aig.level(t.node()), 1);
        assert_eq!(aig.level(f.node()), 2);
        assert_eq!(aig.depth(), 2);
    }

    #[test]
    fn refs_and_mffc() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let t = aig.and(a, b);
        let f = aig.and(t, c);
        let g = aig.and(t, a);
        aig.add_output(f);
        aig.add_output(g);
        // t has two fanouts, so it is not in f's MFFC.
        assert_eq!(mffc_size(&mut aig, f.node()), 1);
        // g's MFFC is also just itself.
        assert_eq!(mffc_size(&mut aig, g.node()), 1);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn mffc_includes_single_fanout_cone() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let d = aig.add_input();
        let t0 = aig.and(a, b);
        let t1 = aig.and(c, d);
        let f = aig.and(t0, t1);
        aig.add_output(f);
        assert_eq!(mffc_size(&mut aig, f.node()), 3);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn replace_redirects_outputs_and_nodes() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let old = aig.and(a, b);
        let consumer = aig.and(old, c);
        aig.add_output(!old);
        aig.add_output(consumer);
        // Replace `old` with just `a`.
        aig.replace(old.node(), a);
        assert_eq!(aig.outputs()[0], !a);
        let (f0, f1) = aig.fanins(consumer.node());
        assert!(f0 == a || f1 == a);
        assert!(aig.is_dead(old.node()));
        assert_eq!(aig.num_ands(), 1);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn replace_with_complemented_literal() {
        let (mut aig, a, b) = two_input_aig();
        let old = aig.and(a, b);
        aig.add_output(old);
        aig.replace(old.node(), !a);
        assert_eq!(aig.outputs()[0], !a);
        assert_eq!(aig.num_ands(), 0);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    #[should_panic(expected = "depends on the node being replaced")]
    fn replace_rejects_cyclic_substitution() {
        let (mut aig, a, b) = two_input_aig();
        let old = aig.and(a, b);
        let above = aig.and(old, a);
        aig.add_output(above);
        aig.add_output(old);
        aig.replace(old.node(), above);
    }

    #[test]
    fn cleanup_removes_dangling_nodes() {
        let (mut aig, a, b) = two_input_aig();
        let dangling = aig.and(a, b);
        let keep = aig.and(!a, !b);
        aig.add_output(keep);
        assert_eq!(aig.num_ands(), 2);
        let removed = aig.cleanup();
        assert_eq!(removed, 1);
        assert!(aig.is_dead(dangling.node()));
        assert_eq!(aig.num_ands(), 1);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn restrash_merges_duplicates_after_replace() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let x = aig.and(a, b);
        let y = aig.and(a, c);
        let f = aig.and(x, c);
        aig.add_output(f);
        aig.add_output(y);
        // Redirect x -> a; now f = AND(a, c) duplicates y structurally.
        aig.replace(x.node(), a);
        let fresh = aig.restrash();
        assert_eq!(fresh.num_ands(), 1);
        assert!(fresh.check_invariants().is_empty());
    }

    #[test]
    fn topological_order_is_consistent() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let t = aig.and(a, b);
        let u = aig.and(t, c);
        let v = aig.and(u, a);
        aig.add_output(v);
        let order = aig.topological_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(t.node()) < pos(u.node()));
        assert!(pos(u.node()) < pos(v.node()));
        assert_eq!(order.len(), 3);
        assert_eq!(aig.num_reachable_ands(), 3);
    }

    #[test]
    fn and_many_and_or_many() {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(5);
        let conj = aig.and_many(&inputs);
        let disj = aig.or_many(&inputs);
        aig.add_output(conj);
        aig.add_output(disj);
        assert_eq!(aig.and_many(&[]), Lit::TRUE);
        assert_eq!(aig.or_many(&[]), Lit::FALSE);
        assert_eq!(aig.and_many(&inputs[..1]), inputs[0]);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn set_output_updates_refs() {
        let (mut aig, a, b) = two_input_aig();
        let x = aig.and(a, b);
        let index = aig.add_output(x);
        assert_eq!(aig.refs(x.node()), 1);
        aig.set_output(index, a);
        assert_eq!(aig.refs(x.node()), 0);
        assert_eq!(aig.refs(a.node()), 2); // fanin of x plus the output
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn recycling_reuses_freed_slots() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let old = aig.and(a, b);
        aig.add_output(old);
        let slots_before = aig.num_slots();
        aig.replace(old.node(), a);
        assert_eq!(aig.num_free_slots(), 1);
        // The next insertion reuses the freed slot instead of growing.
        let fresh = aig.and(b, c);
        assert_eq!(fresh.node(), old.node());
        assert_eq!(aig.num_slots(), slots_before);
        assert_eq!(aig.num_free_slots(), 0);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn token_detects_slot_reuse() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let old = aig.and(a, b);
        aig.add_output(old);
        let token = aig.token(old.node());
        assert!(aig.token_is_current(token));
        assert_eq!(token.id(), old.node());
        aig.replace(old.node(), a);
        assert!(!aig.token_is_current(token), "dead slot");
        let fresh = aig.and(b, c);
        assert_eq!(fresh.node(), old.node(), "slot recycled");
        assert!(!aig.token_is_current(token), "slot re-issued to a new node");
        assert!(aig.token_is_current(aig.token(fresh.node())));
    }

    #[test]
    fn speculation_reject_removes_candidate_cone() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let keep = aig.and(a, b);
        aig.add_output(keep);
        let ands_before = aig.num_ands();
        let slots_before = aig.num_slots();
        aig.begin_speculation();
        let t = aig.and(a, c);
        let _candidate = aig.and(t, b);
        assert_eq!(aig.num_ands(), ands_before + 2);
        let removed = aig.reject_speculation();
        // The candidate root is deleted explicitly; `t` goes with it through
        // the cone cascade, so one removal covers both nodes.
        assert_eq!(removed, 1);
        assert_eq!(aig.num_ands(), ands_before);
        assert!(aig.check_invariants().is_empty());
        // The freed slots are recycled by the next builds.
        let _ = aig.and(b, c);
        assert_eq!(aig.num_slots(), slots_before.max(aig.num_slots()));
        assert!(aig.num_free_slots() >= 1);
    }

    #[test]
    fn speculation_commit_keeps_candidate() {
        let (mut aig, a, b) = two_input_aig();
        aig.begin_speculation();
        let t = aig.and(a, b);
        aig.commit_speculation();
        aig.add_output(t);
        assert_eq!(aig.num_ands(), 1);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    #[should_panic(expected = "do not nest")]
    fn speculation_does_not_nest() {
        let mut aig = Aig::new();
        aig.begin_speculation();
        aig.begin_speculation();
    }

    #[test]
    fn and_ids_iterates_in_birth_order_after_recycling() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let old = aig.and(a, b);
        let top = aig.and(old, c);
        aig.add_output(top);
        aig.replace(old.node(), a);
        // A new node lands in old's slot (lower index, higher birth).
        let fresh = aig.and(b, c);
        assert_eq!(fresh.node(), old.node());
        let order: Vec<NodeId> = aig.and_ids().collect();
        assert_eq!(order, vec![top.node(), fresh.node()]);
        let births: Vec<u64> = order.iter().map(|&id| aig.birth(id)).collect();
        assert!(births.windows(2).all(|w| w[0] < w[1]));
    }

    /// Every slot's edit stamp, in slot order.
    fn edit_stamps(aig: &Aig) -> Vec<u64> {
        (0..aig.num_slots() as u32)
            .map(|i| aig.edit_stamp(NodeId::new(i)))
            .collect()
    }

    #[test]
    fn and_stamps_new_and_recycled_slots() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let clock = aig.edit_clock();
        let old = aig.and(a, b);
        assert!(aig.edit_stamp(old.node()) >= clock, "new slot");
        aig.add_output(old);
        aig.replace(old.node(), a);
        let clock = aig.edit_clock();
        let fresh = aig.and(b, c);
        assert_eq!(fresh.node(), old.node(), "slot recycled");
        assert!(aig.edit_stamp(fresh.node()) >= clock, "recycled slot");
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn replace_stamps_rewritten_consumers_and_deleted_nodes() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let old = aig.and(a, b);
        let consumer = aig.and(old, c);
        let bystander = aig.and(b, c);
        aig.add_output(consumer);
        aig.add_output(bystander);
        let clock = aig.edit_clock();
        let untouched = aig.edit_stamp(bystander.node());
        aig.replace(old.node(), !c);
        assert!(aig.edit_stamp(consumer.node()) >= clock, "rewrite_fanin");
        assert!(aig.edit_stamp(old.node()) >= clock, "delete_cone");
        assert_eq!(aig.edit_stamp(bystander.node()), untouched);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn reject_speculation_stamps_the_deleted_candidates() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        aig.begin_speculation();
        let t = aig.and(a, c);
        let candidate = aig.and(t, b);
        let clock = aig.edit_clock();
        aig.reject_speculation();
        assert!(aig.edit_stamp(candidate.node()) >= clock);
        assert!(
            aig.edit_stamp(t.node()) >= clock,
            "deleted through the cascade"
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn strash_hits_refs_and_mffc_walks_leave_stamps_alone() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let ab = aig.and(a, b);
        let top = aig.and(ab, c);
        aig.add_output(top);
        let (stamps, clock) = (edit_stamps(&aig), aig.edit_clock());
        assert_eq!(aig.and(b, a), ab, "strash hit");
        assert_eq!(mffc_size(&mut aig, top.node()), 2);
        aig.deref_mffc_bounded(top.node(), &[ab.node()]);
        aig.ref_mffc_bounded(top.node(), &[ab.node()]);
        aig.add_output(!ab);
        aig.set_output(1, c);
        aig.recompute_levels();
        assert_eq!(edit_stamps(&aig), stamps);
        assert_eq!(aig.edit_clock(), clock);
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn fanout_iteration_matches_refs() {
        let (mut aig, a, b) = two_input_aig();
        let c = aig.add_input();
        let t = aig.and(a, b);
        let u = aig.and(t, c);
        let v = aig.and(t, a);
        aig.add_output(u);
        aig.add_output(v);
        let fanouts: Vec<Fanout> = aig.fanouts(t.node()).collect();
        assert_eq!(fanouts.len(), aig.refs(t.node()) as usize);
        assert!(fanouts.contains(&Fanout::Node(u.node())));
        assert!(fanouts.contains(&Fanout::Node(v.node())));
    }
}
