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

use elf_aig::{Aig, Cut, CutParams, Lit, NodeId};
use elf_sop::{FactoredForm, TruthTable};

use crate::build::{build_expr, commit_replacement, count_new_nodes, cut_truth_table};
use crate::cache::CutCache;
use crate::operator::{OpStats, PrunableOperator};

/// Parameters of the rewrite operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteParams {
    /// Maximum number of cut leaves (4 in the classic operator).
    pub cut_size: usize,
    /// Maximum number of cuts stored per node during enumeration.
    pub cuts_per_node: usize,
    /// Accept zero-gain rewrites.
    pub zero_gain: bool,
    /// Reject candidates that would increase the node's level.
    pub preserve_level: bool,
    /// Reconvergence-driven window used for classifier feature extraction
    /// (the [`PrunableOperator`] hooks); it does not affect the cuts the
    /// operator itself enumerates.
    pub feature_cut: CutParams,
}

impl Default for RewriteParams {
    fn default() -> Self {
        RewriteParams {
            cut_size: 4,
            cuts_per_node: 8,
            zero_gain: false,
            preserve_level: true,
            feature_cut: CutParams::default(),
        }
    }
}

/// The rewrite operator.
#[derive(Debug, Clone, Default)]
pub struct Rewrite {
    params: RewriteParams,
    cache: CutCache,
}

impl Rewrite {
    /// Creates a rewrite operator with the given parameters.
    pub fn new(params: RewriteParams) -> Self {
        Rewrite {
            params,
            cache: CutCache::disabled(),
        }
    }

    /// Returns the operator's parameters.
    pub fn params(&self) -> &RewriteParams {
        &self.params
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

    /// Attempts to rewrite a single node over `factor_both`'s candidates —
    /// the form of a cut function and, where worth weighing, the form of its
    /// complement — returning `Some(achieved_gain)` when a rewrite was
    /// committed (zero for accepted zero-gain rewrites).  `factor_both` is a
    /// parameter only so the twin test can evaluate both polarities of every
    /// cut the way the operator did before [`CutCache::factor_both`] existed.
    fn rewrite_node_with(
        &self,
        aig: &mut Aig,
        node: NodeId,
        factor_both: impl Fn(&TruthTable) -> (FactoredForm, Option<FactoredForm>),
    ) -> Option<i64> {
        let cuts = self.enumerate_cuts(aig, node);
        let root_level = aig.level(node);
        let mut best: Option<(Cut, FactoredForm, bool, i64)> = None;
        for cut in cuts {
            if cut.num_leaves() < 3 {
                continue;
            }
            let truth = cut_truth_table(aig, &cut);
            let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
            // The reclaimable logic is the MFFC bounded by this cut's leaves.
            let saved = aig.deref_mffc_bounded(node, &cut.leaves) as i64;
            // One NPN-memoized lookup serves both polarities; the complement
            // is weighed only where it is not the first form's De Morgan dual
            // (same AIG, same gain: `gain > best` could never pick it).
            let (expr, complement) = factor_both(&truth);
            let candidates =
                std::iter::once((expr, false)).chain(complement.map(|expr| (expr, true)));
            for (expr, complemented) in candidates {
                let cost = count_new_nodes(aig, &expr, &leaf_lits, Some(node));
                if self.params.preserve_level && cost.level > root_level {
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
        let accept = gain > 0 || (self.params.zero_gain && gain >= 0);
        if !accept {
            return None;
        }
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&l| l.lit()).collect();
        commit_replacement(aig, Self::NAME, node, |aig| {
            build_expr(aig, &expr, &leaf_lits).complement_if(complemented)
        })
    }

    /// Enumerates k-feasible cuts rooted at `node` by merging fanin cuts
    /// bottom-up within the node's transitive fanin cone.
    fn enumerate_cuts(&self, aig: &Aig, node: NodeId) -> Vec<Cut> {
        // Restrict enumeration to the local cone to keep the pass fast.
        let cone = local_cone(aig, node, 64);
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
                    if union.len() <= self.params.cut_size && !merged.contains(&union) {
                        merged.push(union);
                    }
                }
            }
            merged.sort_by_key(Vec::len);
            merged.truncate(self.params.cuts_per_node);
            cut_sets.push((id, merged));
        }
        let root_cuts = find(&cut_sets, node);
        root_cuts
            .into_iter()
            .filter(|leaves| !(leaves.len() == 1 && leaves[0] == node))
            .map(|leaves| {
                let cone = cone_between(aig, node, &leaves);
                Cut {
                    root: node,
                    leaves,
                    cone,
                }
            })
            .collect()
    }
}

impl PrunableOperator for Rewrite {
    const NAME: &'static str = "rewrite";

    fn feature_cut_params(&self) -> CutParams {
        self.params.feature_cut
    }

    fn set_cut_cache(&mut self, cache: CutCache) {
        self.cache = cache;
    }

    /// Enumerates and weighs the node's own k-feasible cuts; the feature
    /// window plays no part, so the pass's scratch is left alone.
    fn resynthesize(&self, aig: &mut Aig, node: NodeId, _: &mut Cut, _: bool) -> Option<i64> {
        self.rewrite_node_with(aig, node, |truth| self.cache.factor_both(truth))
    }
}

/// Returns the AND nodes of the transitive fanin cone of `root`, in
/// topological order, truncated to `limit` nodes.
fn local_cone(aig: &Aig, root: NodeId, limit: usize) -> Vec<NodeId> {
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
fn cone_between(aig: &Aig, root: NodeId, leaves: &[NodeId]) -> Vec<NodeId> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::{check_equivalence, EquivalenceResult};

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
        let stats = Rewrite::new(RewriteParams::default()).run(&mut aig);
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

    #[test]
    fn zero_gain_recording_labels_match_commit_stats() {
        let mut aig = redundant_circuit();
        let op = Rewrite::new(RewriteParams {
            zero_gain: true,
            ..Default::default()
        });
        let (stats, samples) = op.run_recording(&mut aig);
        let committed = samples.iter().filter(|s| s.committed).count();
        assert_eq!(committed, stats.cuts_committed);
        assert!(aig.check_invariants().is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Weighing the complement only where `factor_both` returns it lands
        /// on the network the operator reached when it factored and
        /// evaluated both polarities of every cut — node for node, cache on
        /// and off, with and without zero-gain commits.
        #[test]
        fn pass_matches_evaluating_both_polarities_of_every_cut(
            script in elf_circuits::script_strategy(36),
            zero_gain in proptest::prelude::any::<bool>(),
            cached in proptest::prelude::any::<bool>(),
        ) {
            let cache_config = if cached {
                crate::CutCacheConfig::default()
            } else {
                crate::CutCacheConfig::disabled()
            };
            let mut operator = Rewrite::new(RewriteParams { zero_gain, ..Default::default() });
            operator.set_cut_cache(CutCache::new(cache_config));
            let mut aig = elf_circuits::scripted_circuit(6, &script);
            let mut twin = aig.clone();
            let stats = operator.run(&mut aig);

            // The reference walks the nodes itself, under its own token
            // guard, so it shares nothing with the pass driver but the step.
            let cache = CutCache::new(cache_config);
            let mut rewritten = 0;
            let targets: Vec<_> = twin.and_ids().map(|id| twin.token(id)).collect();
            for token in targets {
                let node = token.id();
                if !twin.token_is_current(token) || twin.refs(node) == 0 {
                    continue;
                }
                let both = |truth: &TruthTable| {
                    (cache.factor(truth), Some(cache.factor(&!truth)))
                };
                let committed = operator.rewrite_node_with(&mut twin, node, both).is_some();
                rewritten += usize::from(committed);
            }
            proptest::prop_assert_eq!(stats.cuts_committed, rewritten);
            let structure = |aig: &Aig| -> Vec<(NodeId, (Lit, Lit))> {
                aig.and_ids().map(|id| (id, aig.fanins(id))).collect()
            };
            proptest::prop_assert_eq!(structure(&aig), structure(&twin));
            proptest::prop_assert_eq!(aig.outputs(), twin.outputs());
        }
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
        let gain = operator.resynthesize(&mut aig, f.node(), &mut Cut::empty(), false);
        let blind_gain = operator.rewrite_node_with(&mut blind, f.node(), |truth| {
            (operator.cache.factor(truth), None)
        });
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
        let rewrite = Rewrite::new(RewriteParams {
            cut_size: 4,
            ..Default::default()
        });
        let cuts = rewrite.enumerate_cuts(&aig, f.node());
        assert!(!cuts.is_empty());
        for cut in &cuts {
            assert!(cut.num_leaves() <= 4);
            assert_eq!(cut.root, f.node());
        }
    }
}
