//! The one pass loop behind every operator and every pruning policy.
//!
//! The paper's Algorithm 2 (ELF) is Algorithm 1 (refactor) with a keep-test
//! in front of resynthesis: one loop, one `if`.  This module is that loop.
//! An operator ([`Refactor`], [`Rewrite`], [`Resubstitution`]) implements
//! [`PrunableOperator`] by saying how to attempt resynthesis at *one* node
//! ([`PrunableOperator::resynthesize`]); the driver owns everything else —
//! the snapshot of target nodes, the scratch buffers ([`PassScratch`]), the
//! [`OpStats`] counters and the stopwatch — and is parameterised only by *who
//! decides* whether a node is attempted.  The entry point picks the policy:
//!
//! | entry point | decides | per visited node |
//! |---|---|---|
//! | [`run`](PrunableOperator::run) | nobody: every node is attempted | no feature scan at all |
//! | [`run_recording`](PrunableOperator::run_recording) | nobody; the outcome is logged | window + features, one [`LabeledCut`] |
//! | [`run_batched`](PrunableOperator::run_batched) | a callback on every node's features at once, before the pass | phase 1 formed the window; a kept node whose window is unedited reuses it |
//!
//! so the baseline and the pruned arm of every comparison execute the same
//! function, and a pass that is not observed never pays for features.
//!
//! **Why tokens.**  The targets are snapshotted once, as generation-stamped
//! [`elf_aig::NodeToken`]s rather than bare ids: a commit at an earlier
//! target may free a later target's slot and slot recycling may re-issue it
//! to a brand-new node, which must not be processed from the stale list.
//!
//! **Why windows are reused only when unedited.**  The batched entry's sweep
//! (phase 1) forms every node's feature window on the unchanged graph and
//! keeps it.  By the time phase 3 reaches a kept node, earlier commits may
//! have rewired, deleted or recycled nodes the window spans.  The cut engine
//! reads only the kind and fanins of a window's root, cone and leaves, and
//! every write of those stamps the slot ([`Aig::edit_stamp`]); so a window
//! none of whose nodes was stamped since the sweep is exactly the cut the
//! engine would form now, leaf and cone order included, and the operator is
//! handed it instead of forming it a second time.  Any other kept node forms
//! its cut afresh — the pass is node-for-node the one that re-formed every
//! cut.
//!
//! [`Refactor`]: crate::Refactor
//! [`Rewrite`]: crate::Rewrite
//! [`Resubstitution`]: crate::Resubstitution

use std::time::{Duration, Instant};

use elf_aig::{Aig, Cut, CutFeatures, CutParams, CutScratch, Lit, NodeId};
use elf_par::Parallelism;
use elf_sop::{FactorScratch, FactoredForm, TruthTable};

use crate::build::{ArenaCount, Simulation};
use crate::cache::{ClassMemo, CutCache};
use crate::rewrite::CutWindow;

/// Debug-build spot-check of one accepted resynthesis commit.
///
/// Runs *before* `aig.replace(old_root, replacement)`, while both cones
/// still exist side by side: the old root and its accepted replacement are
/// simulated over their combined structural support
/// ([`elf_aig::cone_signature`]), and a disagreement panics at the exact
/// commit that introduced it — an operator bug surfaces at its source
/// instead of as a whole-flow SAT refutation much later.
///
/// The check deliberately runs over the *primary-input* support, not the
/// resynthesis cut: cut leaves may be structurally dependent on each other
/// (strashing can even return one leaf as the implementation of a function
/// of the others), so equivalence over independent leaf assignments is
/// stricter than the soundness of the commit.  Supports of up to 16 inputs
/// are checked exhaustively (a complete equivalence proof for the commit);
/// larger ones probabilistically.  Does nothing in release builds.
pub(crate) fn debug_assert_commit_equivalence(
    aig: &Aig,
    operator: &str,
    old_root: NodeId,
    replacement: elf_aig::Lit,
) {
    if !cfg!(debug_assertions) {
        return;
    }
    const ROUNDS: usize = 4;
    const SEED: u64 = 0x0DD_5EED;

    // The combined non-AND support of both cones, in first-visit order.
    let mut support: Vec<elf_aig::Lit> = Vec::new();
    let mut seen: Vec<u32> = Vec::new();
    let mut stack = vec![old_root, replacement.node()];
    while let Some(id) = stack.pop() {
        if id.is_const0() || seen.contains(&id.index()) {
            continue;
        }
        seen.push(id.index());
        if aig.is_and(id) {
            let (f0, f1) = aig.fanins(id);
            stack.push(f0.node());
            stack.push(f1.node());
        } else {
            support.push(id.lit());
        }
    }

    let old = elf_aig::cone_signature(aig, old_root.lit(), &support, ROUNDS, SEED);
    let new = elf_aig::cone_signature(aig, replacement, &support, ROUNDS, SEED);
    assert_eq!(
        old,
        new,
        "{operator}: accepted a non-equivalent resynthesis at {old_root:?} \
         (replacement {replacement:?}, {} support inputs)",
        support.len()
    );
}

/// The statistics of one operator pass, filled in by the pass driver.
///
/// Every operator and every policy reports the same visited /
/// resynthesized / pruned / committed counters, node delta and timing, which
/// is what flows and benchmark tables aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Nodes visited by the pass: one cut is formed per visited node, and
    /// the rates divide by it.
    pub nodes_visited: usize,
    /// Cuts that went through full resynthesis.
    pub cuts_resynthesized: usize,
    /// Cuts whose resynthesis was pruned (skipped) by a keep decision.
    pub cuts_pruned: usize,
    /// Cuts whose resynthesized implementation was committed.
    pub cuts_committed: usize,
    /// Total gain: AND nodes removed minus AND nodes added.
    pub total_gain: i64,
    /// Resynthesized cuts that were handed the window phase 1 formed for
    /// them, instead of forming their cut a second time (only
    /// [`PrunableOperator::run_batched`] keeps windows; a window spanning a
    /// node an earlier commit edited is formed afresh).
    pub windows_reused: usize,
    /// Wall-clock time of the pass.
    pub runtime: Duration,
}

impl OpStats {
    /// Accumulates this pass's counters into `registry` under `stage`-labeled
    /// families (`elf_stage_commits_total{stage="…"}`, rejects, pruned,
    /// visited, node gain, reused windows).  All counter-space:
    /// bit-identical across thread counts for the same workload.
    /// [`Flow`](https://docs.rs/elf-core) calls this after every stage.
    pub fn record_into(&self, registry: &elf_obs::metrics::Registry, stage: &str) {
        use elf_obs::names;
        let labels = [("stage", stage)];
        registry
            .counter_with(names::STAGE_COMMITS, &labels)
            .add(self.cuts_committed as u64);
        registry
            .counter_with(names::STAGE_REJECTS, &labels)
            .add(self.cuts_resynthesized.saturating_sub(self.cuts_committed) as u64);
        registry
            .counter_with(names::STAGE_PRUNED, &labels)
            .add(self.cuts_pruned as u64);
        registry
            .counter_with(names::STAGE_VISITED, &labels)
            .add(self.nodes_visited as u64);
        registry
            .counter_with(names::STAGE_GAIN, &labels)
            .add(self.total_gain.max(0) as u64);
        registry
            .counter_with(names::STAGE_WINDOWS_REUSED, &labels)
            .add(self.windows_reused as u64);
    }

    /// Fraction of formed cuts that were committed (the paper's "Refactored"
    /// column and the right-hand side of Figure 1).
    pub fn commit_rate(&self) -> f64 {
        if self.nodes_visited == 0 {
            0.0
        } else {
            self.cuts_committed as f64 / self.nodes_visited as f64
        }
    }

    /// Fraction of formed cuts that were pruned before resynthesis.
    pub fn prune_rate(&self) -> f64 {
        if self.nodes_visited == 0 {
            0.0
        } else {
            self.cuts_pruned as f64 / self.nodes_visited as f64
        }
    }

    /// Accumulates another pass's counters into this one (runtimes add).
    pub fn absorb(&mut self, other: &OpStats) {
        self.nodes_visited += other.nodes_visited;
        self.cuts_resynthesized += other.cuts_resynthesized;
        self.cuts_pruned += other.cuts_pruned;
        self.cuts_committed += other.cuts_committed;
        self.total_gain += other.total_gain;
        self.windows_reused += other.windows_reused;
        self.runtime += other.runtime;
    }
}

/// A labeled cut sample recorded while running a baseline operator.
///
/// These samples are the training data of the ELF classifier: the label is
/// `true` exactly when the baseline operator committed a change at the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabeledCut {
    /// The node whose cut was examined.
    pub node: NodeId,
    /// Structural features of the cut.
    pub features: CutFeatures,
    /// Whether the baseline operator committed a change at this node.
    pub committed: bool,
}

/// The buffers one pass reuses across its nodes, so that a pass allocates
/// once rather than per node.  The driver owns it, forms the recording
/// pass's windows in it and lends it to every
/// [`PrunableOperator::resynthesize`] call; apart from `cut` when the call
/// says it holds the node's window, rewrite's cut sets of complete nodes,
/// each kept while no node of its fanin cone is stamped, and rewrite's
/// representatives of the functions it has met, the contents are stale
/// between calls.  So one scratch serves one pass over one graph.
///
/// Nameable only inside this crate: operators are implemented here.
#[derive(Debug)]
pub struct PassScratch {
    /// The node's feature window, then whichever cut the operator weighs.
    pub(crate) cut: Cut,
    /// The marks and stacks every cut of the pass is formed with.
    pub(crate) cut_scratch: CutScratch,
    /// The buffers cuts are simulated in ([`crate::build::simulate_cut`]).
    pub(crate) simulation: Simulation,
    /// The weighed cut's function.
    pub(crate) truth: TruthTable,
    /// Its NPN representative, the key of the cut cache.
    pub(crate) canonical: TruthTable,
    /// Rewrite's representatives of the functions the pass has met.
    pub(crate) classes: ClassMemo,
    /// The stacks a cache miss factors on.
    pub(crate) factor: FactorScratch,
    /// The form of the weighed cut's NPN representative.
    pub(crate) form: FactoredForm,
    /// The counts of the weighed cut's two readings.
    pub(crate) counts: [ArenaCount; 2],
    /// Rewrite's best form so far among a node's cuts.
    pub(crate) best_form: FactoredForm,
    /// Rewrite's cut sets.
    pub(crate) window: CutWindow,
    /// Resubstitution's divisors: a literal and its slot in the simulation.
    pub(crate) divisors: Vec<(Lit, usize)>,
}

impl PassScratch {
    pub(crate) fn new() -> Self {
        PassScratch {
            cut: Cut::empty(),
            cut_scratch: CutScratch::new(),
            simulation: Simulation::default(),
            truth: TruthTable::zeros(0),
            canonical: TruthTable::zeros(0),
            classes: ClassMemo::default(),
            factor: FactorScratch::default(),
            form: FactoredForm::default(),
            counts: Default::default(),
            best_form: FactoredForm::default(),
            window: CutWindow::default(),
            divisors: Vec::new(),
        }
    }
}

/// Who decides, per visited node, whether the operator attempts resynthesis.
/// Private: each [`PrunableOperator`] entry point picks its own.
enum Policy<'a> {
    /// Attempt every node; no feature is ever computed.
    KeepAll,
    /// Attempt every node and log its features and whether it committed.
    Record(&'a mut Vec<LabeledCut>),
    /// Visit exactly the swept nodes, attempting those `keep` marks; the
    /// decisions were made up front, and the sweep's unedited windows are
    /// handed over.
    Decided { sweep: &'a Sweep, keep: &'a [bool] },
}

/// The pass loop (see the module docs): walks the live, referenced AND nodes
/// under a token guard, lets `policy` decide, attempts resynthesis through
/// [`PrunableOperator::resynthesize`] and counts what happened.
fn drive<O: PrunableOperator + ?Sized>(
    operator: &O,
    aig: &mut Aig,
    mut policy: Policy<'_>,
) -> OpStats {
    let start = Instant::now();
    let mut stats = OpStats::default();
    let window = operator.feature_cut_params();
    let targets: Vec<_> = match &policy {
        Policy::Decided { sweep, keep } => sweep
            .features
            .iter()
            .zip(keep.iter())
            .map(|(&(node, _), &keep)| (aig.token(node), keep))
            .collect(),
        _ => aig.and_ids().map(|id| (aig.token(id), true)).collect(),
    };
    let mut scratch = PassScratch::new();
    for (index, (token, keep)) in targets.into_iter().enumerate() {
        let node = token.id();
        if !aig.token_is_current(token) || aig.refs(node) == 0 {
            continue;
        }
        stats.nodes_visited += 1;
        if !keep {
            stats.cuts_pruned += 1;
            continue;
        }
        stats.cuts_resynthesized += 1;
        let (holds_window, features) = match &policy {
            Policy::KeepAll => (false, None),
            Policy::Record(_) => {
                let (cut, cut_scratch) = (&mut scratch.cut, &mut scratch.cut_scratch);
                aig.reconvergence_cut_with(node, &window, cut_scratch, cut);
                (true, Some(aig.cut_features_with(cut, cut_scratch)))
            }
            Policy::Decided { sweep, .. } => {
                let reused = sweep.load_unedited(index, node, aig, &mut scratch.cut);
                stats.windows_reused += usize::from(reused);
                (reused, None)
            }
        };
        let gain = operator.resynthesize(aig, node, &mut scratch, holds_window);
        if let Some(gain) = gain {
            stats.cuts_committed += 1;
            stats.total_gain += gain;
        }
        if let (Policy::Record(samples), Some(features)) = (&mut policy, features) {
            samples.push(LabeledCut {
                node,
                features,
                committed: gain.is_some(),
            });
        }
    }
    stats.runtime = start.elapsed();
    stats
}

/// Phase 1 of a batched pass: every live, referenced AND node's window
/// features in the order the pass visits them, and — for an operator that
/// resynthesizes its window — the windows themselves, all in one buffer:
/// window `i` is `windows[spans[i].0..]`, its leaves and then its cone.
#[derive(Debug, Default)]
struct Sweep {
    /// [`Aig::edit_clock`] before the first window was formed.
    clock: u64,
    features: Vec<(NodeId, CutFeatures)>,
    windows: Vec<NodeId>,
    /// Per window: where it starts in `windows`, its leaf and cone counts.
    spans: Vec<(usize, u32, u32)>,
}

/// How many chunks each worker's share of a sweep is cut into: enough that
/// cones of uneven size still balance, few enough that merging the chunks'
/// stores costs nothing.
const SWEEP_CHUNKS_PER_THREAD: usize = 8;

impl Sweep {
    /// Forms the `window` cut of every live, referenced AND node in arena
    /// order, chunked across `parallelism` workers (each with one
    /// [`CutScratch`] and one [`Cut`]) and merged back in chunk order, so
    /// the sweep is the same for every thread count.  The windows are kept
    /// only when `keep_windows`.
    fn of(aig: &Aig, window: CutParams, parallelism: Parallelism, keep_windows: bool) -> Sweep {
        let clock = aig.edit_clock();
        let targets: Vec<NodeId> = aig.and_ids().filter(|&node| aig.refs(node) > 0).collect();
        let chunk_len = targets
            .len()
            .div_ceil(SWEEP_CHUNKS_PER_THREAD * parallelism.num_threads())
            .max(1);
        let chunks: Vec<&[NodeId]> = targets.chunks(chunk_len).collect();
        let swept = parallelism.map_with(
            &chunks,
            || (CutScratch::new(), Cut::empty()),
            |(scratch, cut), _, chunk| {
                let mut part = Sweep::default();
                for &node in *chunk {
                    aig.reconvergence_cut_with(node, &window, scratch, cut);
                    part.features
                        .push((node, aig.cut_features_with(cut, scratch)));
                    if keep_windows {
                        part.push_window(cut);
                    }
                }
                part
            },
        );
        let mut sweep = Sweep {
            clock,
            features: Vec::with_capacity(targets.len()),
            ..Sweep::default()
        };
        for part in swept {
            let offset = sweep.windows.len();
            sweep.features.extend(part.features);
            sweep.windows.extend(part.windows);
            let spans = part.spans.into_iter();
            sweep
                .spans
                .extend(spans.map(|(at, leaves, cone)| (at + offset, leaves, cone)));
        }
        sweep
    }

    fn push_window(&mut self, cut: &Cut) {
        let at = self.windows.len();
        self.windows.extend_from_slice(&cut.leaves);
        self.windows.extend_from_slice(&cut.cone);
        let (leaves, cone) = (cut.leaves.len() as u32, cut.cone.len() as u32);
        self.spans.push((at, leaves, cone));
    }

    /// Copies the window of the `index`-th swept node (`root`) into `cut`
    /// when the sweep kept it and none of its nodes has been stamped since
    /// the sweep: then it is exactly the cut the engine forms now.
    fn load_unedited(&self, index: usize, root: NodeId, aig: &Aig, cut: &mut Cut) -> bool {
        let Some(&(at, leaves, cone)) = self.spans.get(index) else {
            return false;
        };
        let window = &self.windows[at..][..(leaves + cone) as usize];
        if window
            .iter()
            .any(|&node| aig.edit_stamp(node) >= self.clock)
        {
            return false;
        }
        let (leaves, cone) = window.split_at(leaves as usize);
        cut.root = root;
        cut.leaves.clear();
        cut.leaves.extend_from_slice(leaves);
        cut.cone.clear();
        cut.cone.extend_from_slice(cone);
        true
    }
}

/// A logic-optimization operator over And-Inverter Graphs whose per-node
/// resynthesis can be pruned (the paper's Algorithm 2, for any operator).
///
/// Implementors are cheap, immutable handles around a parameter set; all
/// graph state lives in the [`Aig`] passed to each call.  They supply the
/// per-node step and their feature window; every whole-graph pass is a
/// provided method over the module's one pass loop and returns [`OpStats`].
///
/// # Examples
///
/// Generic code can drive any operator through the trait:
///
/// ```
/// use elf_aig::Aig;
/// use elf_opt::{OpStats, PrunableOperator, Refactor, Rewrite};
///
/// fn optimize<O: PrunableOperator>(op: &O, aig: &mut Aig) -> OpStats {
///     op.run(aig)
/// }
///
/// let mut aig = Aig::new();
/// let inputs = aig.add_inputs(3);
/// let t0 = aig.and(inputs[0], inputs[1]);
/// let t1 = aig.and(inputs[0], inputs[2]);
/// let f = aig.or(t0, t1);
/// aig.add_output(f);
///
/// let stats = optimize(&Refactor::default(), &mut aig);
/// assert_eq!(stats.cuts_pruned, 0);
/// let stats = optimize(&Rewrite::default(), &mut aig);
/// assert!(stats.total_gain >= 0);
/// ```
pub trait PrunableOperator {
    /// Short lower-case operator name (used by pipelines and reports).
    const NAME: &'static str;

    /// The reconvergence-driven window whose features describe a node to a
    /// classifier.
    fn feature_cut_params(&self) -> CutParams;

    /// Whether [`resynthesize`](Self::resynthesize) works on the node's
    /// feature window when it is handed one (`holds_window`).  Then
    /// [`run_batched`](Self::run_batched) keeps every window its sweep forms
    /// and hands an unedited one over; an operator that weighs cuts of its
    /// own says `false`, and pays for neither storing nor restoring them.
    const RESYNTHESIZES_WINDOW: bool;

    /// Attempts resynthesis at `node` and commits the result when it
    /// improves the graph, returning `Some(achieved_gain)` on commit.
    ///
    /// `scratch` holds the pass's buffers; `holds_window` says its cut is
    /// already `node`'s feature window (computed with
    /// [`feature_cut_params`](Self::feature_cut_params) on the current
    /// graph), so an operator that resynthesizes that very window does not
    /// form it a second time.  Everything else in it is stale, and the
    /// operator may overwrite all of it.
    fn resynthesize(
        &self,
        aig: &mut Aig,
        node: NodeId,
        scratch: &mut PassScratch,
        holds_window: bool,
    ) -> Option<i64>;

    /// Attaches a shared NPN-canonical factored-form cache
    /// ([`crate::CutCache`]) for the operator's resynthesis step to consult.
    ///
    /// Results must not depend on the cache (it memoizes a pure function),
    /// so the default is a no-op: operators that never factor truth tables
    /// (resubstitution) simply ignore the handle.
    fn set_cut_cache(&mut self, cache: CutCache) {
        let _ = cache;
    }

    /// Runs the operator over every live AND node (the baseline pass;
    /// Algorithm 1 for refactor).  Computes no features.
    fn run(&self, aig: &mut Aig) -> OpStats {
        drive(self, aig, Policy::KeepAll)
    }

    /// Runs the baseline pass, recording one labeled sample per visited
    /// node: its window features on the graph as the pass found it and
    /// whether a change was committed there.  Every node is attempted, so
    /// the samples are exactly the training data described in the paper.
    fn run_recording(&self, aig: &mut Aig) -> (OpStats, Vec<LabeledCut>) {
        let mut samples = Vec::new();
        let stats = drive(self, aig, Policy::Record(&mut samples));
        (stats, samples)
    }

    /// Runs the pass with every decision made in one batch up front (the
    /// paper's batched Algorithm 2) — the three phases of a pruned pass:
    ///
    /// 1. a sweep forms the window features of every live, referenced AND
    ///    node, in arena order, fanned out across `parallelism` workers over
    ///    shared graph access (the same for every thread count);
    /// 2. `classify` gets them all and returns one keep decision per node,
    ///    in that order;
    /// 3. the pass visits the nodes in that order, attempting the kept ones
    ///    and pruning the rest.
    ///
    /// Phases 1 and 2 never mutate the graph.  A kept node whose window no
    /// earlier commit has edited is handed the window phase 1 formed
    /// ([`OpStats::windows_reused`]); any other forms its cut afresh, so the
    /// result is node for node that of forming every cut again.
    /// [`OpStats::runtime`] is phase 3's.
    ///
    /// # Panics
    ///
    /// Panics if `classify` returns other than one decision per node.
    ///
    /// # Examples
    ///
    /// ```
    /// use elf_aig::Aig;
    /// use elf_opt::{PrunableOperator, Refactor};
    /// use elf_par::Parallelism;
    ///
    /// let mut aig = Aig::new();
    /// let inputs = aig.add_inputs(4);
    /// let ab = aig.and(inputs[0], inputs[1]);
    /// let cd = aig.and(inputs[2], inputs[3]);
    /// let abcd = aig.and(ab, cd);
    /// let f = aig.or(ab, abcd);
    /// aig.add_output(f);
    ///
    /// // Keep the nodes whose window has three leaves or more.
    /// let stats = Refactor::default().run_batched(&mut aig, Parallelism::sequential(), |rows| {
    ///     rows.iter().map(|(_, features)| features.leaves >= 3.0).collect()
    /// });
    /// assert_eq!(stats.cuts_pruned + stats.cuts_resynthesized, stats.nodes_visited);
    /// assert!(stats.total_gain >= 1);
    /// ```
    fn run_batched(
        &self,
        aig: &mut Aig,
        parallelism: Parallelism,
        mut classify: impl FnMut(&[(NodeId, CutFeatures)]) -> Vec<bool>,
    ) -> OpStats {
        let window = self.feature_cut_params();
        let sweep = {
            let _span = elf_obs::span!("features");
            Sweep::of(aig, window, parallelism, Self::RESYNTHESIZES_WINDOW)
        };
        let keep = classify(&sweep.features);
        assert_eq!(
            keep.len(),
            sweep.features.len(),
            "one keep decision per swept node"
        );
        let _span = elf_obs::span!("mutate");
        drive(
            self,
            aig,
            Policy::Decided {
                sweep: &sweep,
                keep: &keep,
            },
        )
    }

    /// Collects the window features of every live, referenced AND node
    /// without resynthesizing anything: phase 1 of
    /// [`run_batched`](Self::run_batched), its windows dropped.
    ///
    /// The nodes are listed once in arena order (the order the pass visits
    /// them), chunked across `parallelism` workers and merged back in that
    /// order.  Each worker owns one [`CutScratch`] and one [`Cut`] reused
    /// across its nodes; cut computation is read-only, so the result is
    /// **bit-identical** for every thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use elf_aig::Aig;
    /// use elf_opt::{PrunableOperator, Refactor};
    /// use elf_par::Parallelism;
    ///
    /// let mut aig = Aig::new();
    /// let a = aig.add_input();
    /// let b = aig.add_input();
    /// let f = aig.and(a, b);
    /// aig.add_output(f);
    ///
    /// let operator = Refactor::default();
    /// let seq = operator.collect_features_with(&aig, Parallelism::sequential());
    /// let par = operator.collect_features_with(&aig, Parallelism::threads(4));
    /// assert_eq!(seq, par);
    /// ```
    fn collect_features_with(
        &self,
        aig: &Aig,
        parallelism: Parallelism,
    ) -> Vec<(NodeId, CutFeatures)> {
        Sweep::of(aig, self.feature_cut_params(), parallelism, false).features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Refactor, Resubstitution, Rewrite};
    use elf_aig::{check_equivalence, EquivalenceResult};

    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        let ab = aig.and(inputs[0], inputs[1]);
        let cd = aig.and(inputs[2], inputs[3]);
        let abcd = aig.and(ab, cd);
        let f = aig.or(ab, abcd);
        aig.add_output(f);
        aig
    }

    fn run_generic<O: PrunableOperator>(op: &O, aig: &mut Aig) -> OpStats {
        op.run(aig)
    }

    #[test]
    fn all_three_operators_run_through_the_trait() {
        for name in ["refactor", "rewrite", "resub"] {
            let mut aig = redundant_circuit();
            let golden = aig.clone();
            let stats = match name {
                "refactor" => run_generic(&Refactor::default(), &mut aig),
                "rewrite" => run_generic(&Rewrite::default(), &mut aig),
                _ => run_generic(&Resubstitution, &mut aig),
            };
            assert!(stats.nodes_visited > 0, "{name}");
            assert_eq!(
                check_equivalence(&golden, &aig, 8, 3),
                EquivalenceResult::Equivalent,
                "{name}"
            );
        }
    }

    #[test]
    fn operator_names_are_distinct() {
        assert_eq!(Refactor::NAME, "refactor");
        assert_eq!(Rewrite::NAME, "rewrite");
        assert_eq!(Resubstitution::NAME, "resub");
    }

    #[test]
    fn collect_features_is_uniform_across_operators() {
        let aig = redundant_circuit();
        let live = aig.num_reachable_ands();
        let sequential = Parallelism::sequential();
        let rf = Refactor::default().collect_features_with(&aig, sequential);
        let rw = Rewrite::default().collect_features_with(&aig, sequential);
        let rs = Resubstitution.collect_features_with(&aig, sequential);
        assert_eq!(rf.len(), live);
        assert_eq!(rw.len(), live);
        assert_eq!(rs.len(), live);
        // Refactor and rewrite default to the same feature window.
        assert_eq!(rf, rw);
    }

    #[test]
    fn filtered_run_with_always_keep_matches_plain_run() {
        let mut plain = redundant_circuit();
        let mut filtered = redundant_circuit();
        let rewrite = Rewrite::default();
        let plain_stats = rewrite.run(&mut plain);
        let filtered_stats =
            rewrite.run_batched(&mut filtered, Parallelism::sequential(), |rows| {
                vec![true; rows.len()]
            });
        assert_eq!(plain.num_reachable_ands(), filtered.num_reachable_ands());
        assert_eq!(plain_stats.cuts_committed, filtered_stats.cuts_committed);
        assert_eq!(filtered_stats.cuts_pruned, 0);
    }

    #[test]
    fn op_stats_rates_and_absorb() {
        let mut stats = OpStats {
            nodes_visited: 100,
            cuts_committed: 2,
            cuts_pruned: 80,
            ..Default::default()
        };
        assert!((stats.commit_rate() - 0.02).abs() < 1e-9);
        assert!((stats.prune_rate() - 0.8).abs() < 1e-9);
        assert_eq!(OpStats::default().commit_rate(), 0.0);
        let other = OpStats {
            nodes_visited: 10,
            cuts_committed: 1,
            total_gain: 3,
            ..Default::default()
        };
        stats.absorb(&other);
        assert_eq!(stats.nodes_visited, 110);
        assert_eq!(stats.cuts_committed, 3);
        assert_eq!(stats.total_gain, 3);
    }

    /// A batch that keeps one node is the per-node entry point: the pass
    /// visits every node, attempts that one only and prunes the rest.
    fn check_single_node_decision<O: PrunableOperator>(operator: &O) {
        for keep in [true, false] {
            let mut aig = redundant_circuit();
            let node = aig.and_ids().last().expect("an AND node exists");
            let live = aig.num_reachable_ands();
            let stats = operator.run_batched(&mut aig, Parallelism::sequential(), |rows| {
                rows.iter().map(|&(id, _)| keep && id == node).collect()
            });
            assert_eq!(stats.nodes_visited, live, "{}", O::NAME);
            assert_eq!(stats.cuts_resynthesized, usize::from(keep), "{}", O::NAME);
            assert_eq!(stats.cuts_pruned, live - usize::from(keep), "{}", O::NAME);
            assert!(stats.cuts_committed <= stats.cuts_resynthesized);
            // Nothing before the kept node commits, so its window is reused
            // by the operators that resynthesize it.
            let reused = usize::from(keep && O::RESYNTHESIZES_WINDOW);
            assert_eq!(stats.windows_reused, reused, "{}", O::NAME);
        }
    }

    #[test]
    fn single_node_decision_reports_outcome_for_each_operator() {
        check_single_node_decision(&Refactor::default());
        check_single_node_decision(&Rewrite::default());
        check_single_node_decision(&Resubstitution);
    }
}
