//! The ELF operator (paper Algorithm 2): batch feature collection, batch
//! classification, and pruned execution of any [`PrunableOperator`].
//!
//! The paper instantiates the flow for `refactor` only; this module keeps
//! that operator as the [`ElfRefactor`] type alias while generalizing the
//! machinery to [`Elf<O>`], so the conclusion's first extension target —
//! pruned `rewrite` — and any future operator reuse the exact same code.

use std::time::{Duration, Instant};

use elf_aig::{Aig, NUM_FEATURES};
use elf_opt::{CutCache, CutCacheConfig, OpStats, PrunableOperator, Refactor, RefactorParams};
use elf_par::Parallelism;

use crate::classifier::ElfClassifier;

/// Configuration of the classic refactor-based ELF operator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ElfConfig {
    /// Parameters of the underlying refactor operator.
    pub refactor: RefactorParams,
    /// Worker-thread count for batch feature collection (inference and
    /// graph mutation always stay sequential, so results are identical for
    /// every thread count).  Defaults to `ELF_THREADS`.
    pub parallelism: Parallelism,
    /// On/off switch of the NPN-canonical cut-factoring cache the
    /// wrapped operator consults (see [`elf_opt::CutCache`]).  The cache is
    /// result-transparent: the produced AIG is node-for-node identical with
    /// the cache enabled, disabled, warm or cold.
    pub cut_cache: CutCacheConfig,
}

/// Operator-independent options of the pruning flow.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ElfOptions {
    /// Worker-thread count for batch feature collection.  Defaults to
    /// `ELF_THREADS`.
    pub parallelism: Parallelism,
    /// On/off switch of the NPN-canonical cut-factoring cache
    /// (see [`elf_opt::CutCache`]).  Result-transparent either way.
    pub cut_cache: CutCacheConfig,
}

impl From<ElfConfig> for ElfOptions {
    fn from(config: ElfConfig) -> Self {
        ElfOptions {
            parallelism: config.parallelism,
            cut_cache: config.cut_cache,
        }
    }
}

/// Statistics of one ELF pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ElfStats {
    /// Core statistics of the underlying (pruned) operator pass.
    pub op: OpStats,
    /// Time spent collecting features for every cut.
    pub feature_time: Duration,
    /// Time spent in batched classifier inference.
    pub classify_time: Duration,
    /// Number of cuts the classifier pruned.
    pub pruned: usize,
    /// Number of cuts the classifier kept (resynthesis attempted).
    pub kept: usize,
    /// Total wall-clock time of the ELF pass.
    pub total_time: Duration,
}

impl ElfStats {
    /// Fraction of cuts pruned by the classifier (the 69.4–95.1% of Fig. 1).
    pub fn prune_rate(&self) -> f64 {
        let total = self.pruned + self.kept;
        if total == 0 {
            0.0
        } else {
            self.pruned as f64 / total as f64
        }
    }
}

/// A pruned operator: a trained classifier wrapped around any
/// [`PrunableOperator`] (Algorithm 2 of the paper, generalized).
///
/// [`ElfRefactor`] (= `Elf<Refactor>`) is the paper's operator;
/// `Elf<Rewrite>` is the conclusion's first extension target and trains
/// through the same dataset machinery ([`crate::Suite::new`]).
///
/// A pass checks nothing; to SAT-prove it preserved the circuit's function,
/// run it as a [`Flow`](crate::Flow) stage under
/// [`Flow::with_verify`](crate::Flow::with_verify).
///
/// # Examples
///
/// ```no_run
/// use elf_core::{ElfClassifier, ElfConfig, ElfRefactor};
/// use elf_aig::Aig;
/// # fn classifier() -> ElfClassifier { unimplemented!() }
///
/// let classifier = classifier();
/// let elf = ElfRefactor::new(classifier, ElfConfig::default());
/// let mut aig = Aig::new();
/// let stats = elf.run(&mut aig);
/// println!("pruned {:.1}% of cuts", stats.prune_rate() * 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct Elf<O: PrunableOperator> {
    classifier: ElfClassifier,
    operator: O,
    options: ElfOptions,
}

/// The paper's ELF operator: classifier-pruned refactoring.
pub type ElfRefactor = Elf<Refactor>;

impl ElfRefactor {
    /// Creates the classic refactor-based ELF operator from a trained
    /// classifier (the paper's configuration surface).
    pub fn new(classifier: ElfClassifier, config: ElfConfig) -> Self {
        Elf::with_operator(classifier, Refactor::new(config.refactor), config.into())
    }
}

impl<O: PrunableOperator> Elf<O> {
    /// Wraps `operator` with a trained classifier: the classifier decides,
    /// per node, whether the operator is worth attempting.
    ///
    /// The operator receives a fresh cut-factoring cache sized by
    /// [`ElfOptions::cut_cache`]; a [`Flow`](crate::Flow) is how several
    /// passes share one cache.
    pub fn with_operator(classifier: ElfClassifier, mut operator: O, options: ElfOptions) -> Self {
        operator.set_cut_cache(CutCache::new(options.cut_cache));
        Elf {
            classifier,
            operator,
            options,
        }
    }

    /// The wrapped operator.
    pub fn operator(&self) -> &O {
        &self.operator
    }

    /// The operator-independent flow options.
    pub fn options(&self) -> ElfOptions {
        self.options
    }

    /// Runs one ELF pass over the graph (Algorithm 2) with the configured
    /// [`ElfOptions::parallelism`]: the operator sweeps every node's
    /// features, [`ElfClassifier::classify`] decides the whole batch at
    /// once, and the operator resynthesizes the kept nodes.  A pruned
    /// [`Flow`](crate::Flow) stage runs the very same pass.  Graph mutation
    /// is sequential, so the result is identical for every thread count.
    pub fn run(&self, aig: &mut Aig) -> ElfStats {
        pruned_pass(
            &self.operator,
            &self.classifier,
            self.options.parallelism,
            aig,
        )
    }

    /// Runs ELF `applications` times in sequence (the paper's "ELF x 2"),
    /// returning the per-pass statistics.
    pub fn run_repeated(&self, aig: &mut Aig, applications: usize) -> Vec<ElfStats> {
        (0..applications).map(|_| self.run(aig)).collect()
    }
}

/// One classifier-pruned pass of `operator` over `aig` — the pass behind
/// [`Elf::run`] and every pruned [`Flow`](crate::Flow) stage.  Only the
/// sweep fans out over `parallelism`; the forward pass runs on the calling
/// thread.
pub(crate) fn pruned_pass<O: PrunableOperator>(
    operator: &O,
    classifier: &ElfClassifier,
    parallelism: Parallelism,
    aig: &mut Aig,
) -> ElfStats {
    let start = Instant::now();
    let (mut feature_time, mut classify_time) = (Duration::ZERO, Duration::ZERO);
    let op = operator.run_batched(aig, parallelism, |features| {
        feature_time = start.elapsed();
        let classify_start = Instant::now();
        let _span = elf_obs::span!("classify", cuts = features.len());
        let rows: Vec<[f32; NUM_FEATURES]> = features.iter().map(|(_, f)| f.to_array()).collect();
        let keep = classifier.classify(&rows);
        classify_time = classify_start.elapsed();
        keep
    });
    // What the classifier pruned and kept is what the pass driver counted.
    ElfStats {
        op,
        feature_time,
        classify_time,
        pruned: op.cuts_pruned,
        kept: op.cuts_resynthesized,
        total_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::DEFAULT_THRESHOLD;
    use elf_aig::{check_equivalence, EquivalenceResult, Lit};
    use elf_nn::{Dataset, Mlp, Normalizer};
    use elf_opt::Rewrite;

    /// Builds a classifier with hand-set normalizer statistics and an
    /// untrained (random) network — sufficient for exercising the flow.
    fn dummy_classifier(threshold: f32) -> ElfClassifier {
        let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
        ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), threshold)
    }

    fn redundant_circuit() -> Aig {
        let mut aig = Aig::new();
        let inputs: Vec<Lit> = aig.add_inputs(6);
        let mut acc = inputs[5];
        for w in inputs.windows(3) {
            let t0 = aig.and(w[0], w[1]);
            let t1 = aig.and(w[0], w[2]);
            let or = aig.or(t0, t1);
            acc = aig.and(acc, or);
        }
        aig.add_output(acc);
        aig.cleanup();
        aig
    }

    #[test]
    fn keep_everything_matches_baseline_quality() {
        // With threshold 0 the classifier keeps every cut, so ELF must reach
        // exactly the same node count as the baseline.
        let mut elf_aig = redundant_circuit();
        let mut baseline_aig = redundant_circuit();
        let elf = ElfRefactor::new(dummy_classifier(0.0), ElfConfig::default());
        let stats = elf.run(&mut elf_aig);
        let baseline = Refactor::new(RefactorParams::default()).run(&mut baseline_aig);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.op.cuts_committed, baseline.cuts_committed);
        assert_eq!(
            elf_aig.num_reachable_ands(),
            baseline_aig.num_reachable_ands()
        );
    }

    #[test]
    fn prune_everything_changes_nothing() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let elf = ElfRefactor::new(dummy_classifier(1.1), ElfConfig::default());
        let stats = elf.run(&mut aig);
        assert_eq!(stats.kept, 0);
        assert_eq!(stats.op.cuts_committed, 0);
        assert!((stats.prune_rate() - 1.0).abs() < 1e-9);
        assert_eq!(golden.num_ands(), aig.num_ands());
    }

    #[test]
    fn elf_preserves_functionality() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let elf = ElfRefactor::new(dummy_classifier(DEFAULT_THRESHOLD), ElfConfig::default());
        let _ = elf.run(&mut aig);
        assert!(aig.check_invariants().is_empty());
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 77),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn repeated_application_reports_each_pass() {
        let mut aig = redundant_circuit();
        let elf = ElfRefactor::new(dummy_classifier(0.0), ElfConfig::default());
        let passes = elf.run_repeated(&mut aig, 2);
        assert_eq!(passes.len(), 2);
        // The second pass cannot commit more gain than remains.
        assert!(passes[1].op.total_gain <= passes[0].op.total_gain);
    }

    /// Trained end-to-end smoke test: train on one circuit, apply to another.
    #[test]
    fn trained_classifier_runs_end_to_end() {
        use crate::dataset::circuit_dataset;
        use elf_nn::TrainConfig;
        let train_circuit = redundant_circuit();
        let data = circuit_dataset(&train_circuit, &RefactorParams::default());
        let data = if data.class_counts().1 == 0 {
            // Ensure at least one positive example for training stability.
            let mut d = Dataset::new();
            d.extend_from(&data);
            d.push(vec![1.0, 2.0, 2.0, 10.0, 3.0, 5.0], true);
            d
        } else {
            data
        };
        let config = TrainConfig {
            epochs: 5,
            ..Default::default()
        };
        let (classifier, _) = ElfClassifier::fit(&data, &config, 13);
        let mut target = redundant_circuit();
        let golden = target.clone();
        let elf = ElfRefactor::new(classifier, ElfConfig::default());
        let stats = elf.run(&mut target);
        assert_eq!(stats.pruned + stats.kept, stats.op.nodes_visited);
        assert_eq!(
            check_equivalence(&golden, &target, 8, 80),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn elf_rewrite_with_always_keep_matches_plain_rewrite() {
        let mut pruned_aig = redundant_circuit();
        let mut plain_aig = redundant_circuit();
        let elf = Elf::with_operator(
            dummy_classifier(0.0),
            Rewrite::default(),
            ElfOptions::default(),
        );
        let stats = elf.run(&mut pruned_aig);
        let plain = Rewrite::default().run(&mut plain_aig);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.op.cuts_committed, plain.cuts_committed);
        assert_eq!(
            pruned_aig.num_reachable_ands(),
            plain_aig.num_reachable_ands()
        );
    }

    #[test]
    fn elf_rewrite_preserves_functionality_in_both_modes() {
        let mut aig = redundant_circuit();
        let golden = aig.clone();
        let elf = Elf::with_operator(
            dummy_classifier(DEFAULT_THRESHOLD),
            Rewrite::new(),
            ElfOptions::default(),
        );
        let stats = elf.run(&mut aig);
        assert_eq!(stats.pruned + stats.kept, stats.op.nodes_visited);
        assert!(aig.check_invariants().is_empty());
        assert_eq!(
            check_equivalence(&golden, &aig, 8, 81),
            EquivalenceResult::Equivalent
        );
    }
}
