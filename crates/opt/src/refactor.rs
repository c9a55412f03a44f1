//! The refactor operator (Mishchenko et al.), the baseline that ELF accelerates.
//!
//! For every AND node the operator forms a reconvergence-driven cut, converts
//! the cut function to an irredundant SOP, factors it algebraically, and
//! commits the factored implementation when it removes more nodes than it
//! adds (paper Algorithm 1).  The loop over nodes is the shared pass driver
//! of [`PrunableOperator`]; this file is the per-node step, so the pruned
//! iteration (Algorithm 2) is the same code with a keep-test in front.

use elf_aig::{Aig, CutParams, NodeId};

use crate::build::{best_reading, build_expr, commit_replacement, cut_truth_table_in};
use crate::cache::CutCache;
use crate::operator::{OpStats, PassScratch, PrunableOperator};

/// Parameters of the refactor operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefactorParams {
    /// Reconvergence-driven cut parameters (leaf bound, expansion cost bound).
    pub cut: CutParams,
    /// Accept changes with zero gain as well as positive gain (ABC's `-z`).
    pub zero_gain: bool,
    /// Reject candidates whose estimated root level exceeds the current root
    /// level (ABC's `-l`, used by the paper's experiments).
    pub preserve_level: bool,
    /// Also weigh the implementation of the complemented cut function and
    /// keep the better of the two.  Both are read off one form, from one
    /// [`CutCache::factor_both_into`] call; the complement's is evaluated
    /// only where it can differ from the first one complemented (which is
    /// the same AIG at the same cost and can never be the better one).
    pub try_complement: bool,
    /// Cuts with fewer leaves than this are not resynthesized (they cannot
    /// yield a gain).
    pub min_leaves: usize,
}

/// The paper's baseline invocation, `refactor -l`.
impl Default for RefactorParams {
    fn default() -> Self {
        RefactorParams {
            cut: CutParams::default(),
            zero_gain: false,
            preserve_level: true,
            try_complement: true,
            min_leaves: 3,
        }
    }
}

/// The refactor operator.
///
/// # Examples
///
/// ```
/// use elf_aig::Aig;
/// use elf_opt::{Refactor, RefactorParams};
///
/// let mut aig = Aig::new();
/// let inputs = aig.add_inputs(4);
/// // Redundant structure: (a & b) | (a & b & c & d) == a & b.
/// let ab = aig.and(inputs[0], inputs[1]);
/// let abcd = {
///     let cd = aig.and(inputs[2], inputs[3]);
///     aig.and(ab, cd)
/// };
/// let f = aig.or(ab, abcd);
/// aig.add_output(f);
///
/// let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
/// assert!(stats.total_gain >= 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Refactor {
    params: RefactorParams,
    cache: CutCache,
}

impl Refactor {
    /// Creates a refactor operator with the given parameters.
    pub fn new(params: RefactorParams) -> Self {
        Refactor {
            params,
            cache: CutCache::disabled(),
        }
    }

    /// Returns the operator's parameters.
    pub fn params(&self) -> &RefactorParams {
        &self.params
    }

    /// The factored-form cache consulted by resynthesis (disabled by
    /// default; attach one via [`PrunableOperator::set_cut_cache`]).
    pub fn cut_cache(&self) -> &CutCache {
        &self.cache
    }

    /// Runs the baseline operator over every node of the graph (Algorithm 1):
    /// [`PrunableOperator::run`], callable without the trait in scope.
    pub fn run(&self, aig: &mut Aig) -> OpStats {
        PrunableOperator::run(self, aig)
    }
}

impl PrunableOperator for Refactor {
    const NAME: &'static str = "refactor";

    /// The window is the cut this operator resynthesizes.
    const RESYNTHESIZES_WINDOW: bool = true;

    fn feature_cut_params(&self) -> CutParams {
        self.params.cut
    }

    fn set_cut_cache(&mut self, cache: CutCache) {
        self.cache = cache;
    }

    /// The full refactor step at one node: cut (the feature window itself,
    /// so a pass that already formed it hands it over), resynthesis, gain
    /// evaluation, commit.
    fn resynthesize(
        &self,
        aig: &mut Aig,
        node: NodeId,
        scratch: &mut PassScratch,
        holds_window: bool,
    ) -> Option<i64> {
        let PassScratch {
            cut,
            leaf_lits,
            simulation,
            factor,
            form,
            ..
        } = scratch;
        if !holds_window {
            aig.reconvergence_cut_into(node, &self.params.cut, cut);
        }
        if cut.num_leaves() < self.params.min_leaves {
            return None;
        }

        // Resynthesize: truth table -> NPN representative -> ISOP ->
        // factored form, once per cut whether or not the cache memoizes.
        // Both polarities share the representative's form; the complement
        // is a candidate of its own only where `factor_both_into` hands back
        // a second way to read it.
        let truth = cut_truth_table_in(aig, cut, simulation);
        leaf_lits.clear();
        leaf_lits.extend(cut.leaves.iter().map(|&l| l.lit()));
        let (transform, complement) = self.cache.factor_both_into(&truth, factor, form);
        let complement = complement.filter(|_| self.params.try_complement);

        // Evaluate the gain of each candidate with the cut-bounded MFFC
        // temporarily dereferenced, exactly like ABC.  The MFFC is bounded by
        // the cut's leaves: the resynthesized implementation keeps using the
        // leaves, so logic below them can never be reclaimed by this commit.
        let saved = aig.deref_mffc_bounded(node, &cut.leaves) as i64;
        let level_bound = self.params.preserve_level.then(|| aig.level(node));
        let readings = (transform, complement);
        let best = best_reading(aig, form, readings, leaf_lits, node, saved, level_bound);
        aig.ref_mffc_bounded(node, &cut.leaves);

        let best = best?;
        let accept = best.gain > 0 || (self.params.zero_gain && best.gain >= 0);
        if !accept {
            return None;
        }
        commit_replacement(aig, Self::NAME, node, |aig| {
            build_expr(aig, form, &best.lits).complement_if(best.complemented)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::{check_equivalence, EquivalenceResult};

    /// (a & b) | (a & c): refactoring should rewrite it as a & (b | c),
    /// saving one node.
    fn shared_literal_circuit() -> Aig {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let c = aig.add_input();
        let t0 = aig.and(a, b);
        let t1 = aig.and(a, c);
        let f = aig.or(t0, t1);
        aig.add_output(f);
        aig
    }

    /// A circuit with heavy redundancy: f = (a & b) | (a & b & c & d).
    fn absorbed_term_circuit() -> Aig {
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(4);
        let ab = aig.and(inputs[0], inputs[1]);
        let cd = aig.and(inputs[2], inputs[3]);
        let abcd = aig.and(ab, cd);
        let f = aig.or(ab, abcd);
        aig.add_output(f);
        aig
    }

    #[test]
    fn refactor_reduces_shared_literal_circuit() {
        let mut aig = shared_literal_circuit();
        let golden = aig.clone();
        let before = aig.num_reachable_ands();
        let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
        let after = aig.num_reachable_ands();
        assert!(
            after < before,
            "expected node count to drop: {before} -> {after}"
        );
        assert!(stats.cuts_committed >= 1);
        assert_eq!(stats.total_gain, (before - after) as i64);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 1),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn refactor_absorbs_redundant_term() {
        let mut aig = absorbed_term_circuit();
        let golden = aig.clone();
        let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
        assert!(stats.total_gain >= 1);
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 2),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }

    #[test]
    fn refactor_is_idempotent_on_optimal_circuit() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);
        let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
        assert_eq!(stats.cuts_committed, 0);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn filter_prunes_resynthesis() {
        let mut aig = shared_literal_circuit();
        let stats =
            Refactor::new(RefactorParams::default()).run_with_filter(&mut aig, &mut |_, _| false);
        assert_eq!(stats.cuts_resynthesized, 0);
        assert_eq!(stats.cuts_pruned, stats.cuts_formed);
        assert_eq!(stats.cuts_committed, 0);
        // Nothing changed.
        assert_eq!(aig.num_ands(), 3);
    }

    #[test]
    fn recording_produces_one_sample_per_cut() {
        let mut aig = absorbed_term_circuit();
        let (stats, samples) = Refactor::new(RefactorParams::default()).run_recording(&mut aig);
        assert_eq!(samples.len(), stats.cuts_formed);
        let committed = samples.iter().filter(|s| s.committed).count();
        assert_eq!(committed, stats.cuts_committed);
        assert!(samples.iter().all(|s| s.features.leaves >= 2.0));
    }

    #[test]
    fn collect_features_covers_all_live_nodes() {
        let aig = absorbed_term_circuit();
        let features =
            Refactor::default().collect_features_with(&aig, elf_par::Parallelism::sequential());
        assert_eq!(features.len(), aig.num_reachable_ands());
    }

    #[test]
    fn constant_function_is_collapsed() {
        // f = (a & !a) | (b & !b) is constant false but built redundantly.
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let t0 = aig.and(a, !a); // folds to constant immediately
        let t1 = aig.and(b, !b);
        let f = aig.or(t0, t1);
        aig.add_output(f);
        // The AIG constant-folds these at construction time already.
        assert_eq!(aig.num_ands(), 0);
        assert_eq!(f, elf_aig::Lit::FALSE);

        // A non-trivially constant function: f = a & b & !(a & b).
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let ab = aig.and(a, b);
        let g = aig.and(ab, !ab);
        assert_eq!(g, elf_aig::Lit::FALSE);
        let _ = aig;
    }

    #[test]
    fn commit_rate_and_prune_rate() {
        let stats = OpStats {
            cuts_formed: 100,
            cuts_committed: 2,
            cuts_pruned: 80,
            ..Default::default()
        };
        assert!((stats.commit_rate() - 0.02).abs() < 1e-9);
        assert!((stats.prune_rate() - 0.8).abs() < 1e-9);
        assert_eq!(OpStats::default().commit_rate(), 0.0);
    }

    #[test]
    fn gain_matches_node_count_change_on_larger_circuit() {
        // Build a chain of redundant or-of-and structures.
        let mut aig = Aig::new();
        let inputs = aig.add_inputs(8);
        let mut acc = inputs[0];
        for w in inputs.windows(3) {
            let t0 = aig.and(w[0], w[1]);
            let t1 = aig.and(w[0], w[2]);
            let or = aig.or(t0, t1);
            acc = aig.and(acc, or);
        }
        aig.add_output(acc);
        let golden = aig.clone();
        let before = aig.num_reachable_ands() as i64;
        let stats = Refactor::new(RefactorParams::default()).run(&mut aig);
        let after = aig.num_reachable_ands() as i64;
        assert_eq!(stats.total_gain, before - after);
        assert_eq!(
            check_equivalence(&golden, &aig, 16, 3),
            EquivalenceResult::Equivalent
        );
        assert!(aig.check_invariants().is_empty());
    }
}
