//! Experiment harness: leave-one-out training, baseline-vs-ELF comparison and
//! classifier quality evaluation (the data behind Tables I–VIII).

use std::time::Duration;

use elf_nn::{ConfusionMatrix, TrainConfig};
use elf_opt::{CutCache, OpStats, PrunableOperator, Refactor, RefactorParams};

use crate::classifier::ElfClassifier;
use crate::dataset::{
    collect_labeled_cuts, collect_labeled_cuts_with, cuts_to_arrays, leave_one_out_dataset_with,
    BenchCircuit,
};
use crate::flow::{Elf, ElfConfig, ElfRefactor, ElfStats};

/// Everything configurable about a paper-style experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// ELF operator configuration (refactor parameters, batching, normalization).
    pub elf: ElfConfig,
    /// Classifier training hyper-parameters.
    pub train: TrainConfig,
    /// Seed for model initialization.
    pub seed: u64,
    /// How many times ELF is applied in the comparison (1 for Table III/V,
    /// 2 for Table IV).
    pub applications: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            elf: ElfConfig::default(),
            train: TrainConfig::default(),
            seed: 0xE1F,
            applications: 1,
        }
    }
}

/// Per-circuit statistics (Tables I and II).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitStatsRow {
    /// Circuit name.
    pub name: String,
    /// AND-node count.
    pub ands: usize,
    /// Logic depth.
    pub level: u32,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of cuts the baseline refactor commits.
    pub refactored: usize,
    /// Number of cuts the baseline refactor forms.
    pub cuts: usize,
}

impl CircuitStatsRow {
    /// Fraction of cuts that get refactored (the "Refactored" percentage).
    pub fn refactored_fraction(&self) -> f64 {
        if self.cuts == 0 {
            0.0
        } else {
            self.refactored as f64 / self.cuts as f64
        }
    }
}

/// Computes the Table I/II statistics row for one circuit.
pub fn circuit_stats(circuit: &BenchCircuit, params: &RefactorParams) -> CircuitStatsRow {
    let mut copy = circuit.aig.clone();
    let level = copy.depth();
    let stats = Refactor::new(*params).run(&mut copy);
    CircuitStatsRow {
        name: circuit.name.clone(),
        ands: circuit.aig.num_reachable_ands(),
        level,
        inputs: circuit.aig.num_inputs(),
        outputs: circuit.aig.num_outputs(),
        refactored: stats.cuts_committed,
        cuts: stats.cuts_formed,
    }
}

/// One row of a baseline-vs-ELF comparison table (Tables III, IV, V, VI).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Circuit name.
    pub name: String,
    /// AND count before optimization.
    pub nodes_before: usize,
    /// Baseline runtime.
    pub baseline_runtime: Duration,
    /// AND count after the baseline refactor.
    pub baseline_ands: usize,
    /// Depth after the baseline refactor.
    pub baseline_level: u32,
    /// ELF runtime (all applications summed).
    pub elf_runtime: Duration,
    /// AND count after ELF.
    pub elf_ands: usize,
    /// Depth after ELF.
    pub elf_level: u32,
    /// Per-pass ELF statistics.
    pub elf_passes: Vec<ElfStats>,
    /// Baseline statistics.
    pub baseline_stats: OpStats,
}

impl ComparisonRow {
    /// Baseline runtime divided by ELF runtime.
    pub fn speedup(&self) -> f64 {
        let elf = self.elf_runtime.as_secs_f64();
        if elf <= 0.0 {
            f64::INFINITY
        } else {
            self.baseline_runtime.as_secs_f64() / elf
        }
    }

    /// Relative AND-count difference `(ELF - baseline) / baseline` in percent.
    pub fn and_difference_percent(&self) -> f64 {
        if self.baseline_ands == 0 {
            0.0
        } else {
            (self.elf_ands as f64 - self.baseline_ands as f64) / self.baseline_ands as f64 * 100.0
        }
    }

    /// Relative depth difference in percent.
    pub fn level_difference_percent(&self) -> f64 {
        if self.baseline_level == 0 {
            0.0
        } else {
            (self.elf_level as f64 - self.baseline_level as f64) / self.baseline_level as f64
                * 100.0
        }
    }

    /// Fraction of cuts pruned by ELF, averaged over passes.
    pub fn prune_rate(&self) -> f64 {
        if self.elf_passes.is_empty() {
            0.0
        } else {
            self.elf_passes
                .iter()
                .map(ElfStats::prune_rate)
                .sum::<f64>()
                / self.elf_passes.len() as f64
        }
    }
}

/// One row of a classifier-quality table (Tables VII and VIII).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityRow {
    /// Circuit name.
    pub name: String,
    /// Confusion matrix of the classifier on this circuit's cuts.
    pub confusion: ConfusionMatrix,
}

/// Trains a classifier for any [`PrunableOperator`], leaving out circuit
/// `held_out` (the paper's evaluation protocol, operator-generic: labels are
/// produced by `operator`'s own commits).
pub fn train_leave_one_out_with<O: PrunableOperator>(
    operator: &O,
    circuits: &[BenchCircuit],
    held_out: usize,
    train: &TrainConfig,
    seed: u64,
) -> ElfClassifier {
    let data = leave_one_out_dataset_with(operator, circuits, held_out);
    let (classifier, _report) = ElfClassifier::fit(&data, train, seed);
    classifier
}

/// Trains the ELF classifier leaving out circuit `held_out` (the paper's
/// evaluation protocol: the test circuit is never part of training).
pub fn train_leave_one_out(
    circuits: &[BenchCircuit],
    held_out: usize,
    config: &ExperimentConfig,
) -> ElfClassifier {
    train_leave_one_out_with(
        &Refactor::new(config.elf.refactor),
        circuits,
        held_out,
        &config.train,
        config.seed,
    )
}

/// Trains the ELF classifier on every circuit in `circuits` (used when the
/// evaluation set is disjoint, e.g. training on EPFL and testing on the
/// synthetic circuits of Table VI).
pub fn train_on_all(circuits: &[BenchCircuit], config: &ExperimentConfig) -> ElfClassifier {
    let mut data = elf_nn::Dataset::new();
    for circuit in circuits {
        data.extend_from(&crate::dataset::circuit_dataset_standardized(
            &circuit.aig,
            &config.elf.refactor,
        ));
    }
    let (classifier, _report) = ElfClassifier::fit(&data, &config.train, config.seed);
    classifier
}

/// Runs a baseline operator and its pruned counterpart on (copies of) one
/// circuit and returns the comparison row.  This is the operator-generic
/// core of [`compare_on_circuit`]; `table_rewrite` uses it with [`Rewrite`]
/// to evaluate pruned rewriting through the identical protocol.
///
/// Both arms run with the same cut-cache configuration: the baseline gets a
/// fresh cache of `elf`'s [`ElfOptions::cut_cache`](crate::ElfOptions), its
/// own (never shared with the pruned arm), so the reported speed-up is what
/// pruning buys and not what memoization buys.
///
/// [`Rewrite`]: elf_opt::Rewrite
pub fn compare_with_operator<O: PrunableOperator + Clone>(
    circuit: &BenchCircuit,
    baseline: &O,
    elf: &Elf<O>,
    applications: usize,
) -> ComparisonRow {
    // Baseline.
    let baseline = symmetric_baseline(baseline, elf);
    let mut baseline_aig = circuit.aig.clone();
    let baseline_stats = baseline.run(&mut baseline_aig);
    let baseline_ands = baseline_aig.num_reachable_ands();
    let baseline_level = baseline_aig.depth();

    // Pruned operator (possibly applied multiple times).
    let mut elf_aig = circuit.aig.clone();
    let elf_passes = elf.run_repeated(&mut elf_aig, applications.max(1));
    let elf_runtime = elf_passes.iter().map(|p| p.total_time).sum();
    let elf_ands = elf_aig.num_reachable_ands();
    let elf_level = elf_aig.depth();

    ComparisonRow {
        name: circuit.name.clone(),
        nodes_before: circuit.aig.num_reachable_ands(),
        baseline_runtime: baseline_stats.runtime,
        baseline_ands,
        baseline_level,
        elf_runtime,
        elf_ands,
        elf_level,
        elf_passes,
        baseline_stats,
    }
}

/// A copy of `baseline` with a fresh cut cache configured like the one
/// [`Elf::with_operator`] gave the pruned arm's operator.
fn symmetric_baseline<O: PrunableOperator + Clone>(baseline: &O, elf: &Elf<O>) -> O {
    let mut baseline = baseline.clone();
    baseline.set_cut_cache(CutCache::new(elf.options().cut_cache));
    baseline
}

/// Runs baseline refactor and ELF on (copies of) one circuit and returns the
/// comparison row.
pub fn compare_on_circuit(
    circuit: &BenchCircuit,
    classifier: &ElfClassifier,
    config: &ExperimentConfig,
) -> ComparisonRow {
    compare_with_operator(
        circuit,
        &Refactor::new(config.elf.refactor),
        &ElfRefactor::new(classifier.clone(), config.elf),
        config.applications,
    )
}

/// Evaluates classifier quality against labels produced by any baseline
/// [`PrunableOperator`].
pub fn quality_with_operator<O: PrunableOperator>(
    circuit: &BenchCircuit,
    operator: &O,
    classifier: &ElfClassifier,
    self_normalize: bool,
) -> QualityRow {
    let cuts = collect_labeled_cuts_with(operator, &circuit.aig);
    let (features, labels) = cuts_to_arrays(&cuts);
    let confusion = classifier.evaluate(&features, &labels, self_normalize);
    QualityRow {
        name: circuit.name.clone(),
        confusion,
    }
}

/// Evaluates classifier quality (recall, accuracy, confusion matrix) on one
/// circuit, against labels produced by the baseline refactor operator.
pub fn quality_on_circuit(
    circuit: &BenchCircuit,
    classifier: &ElfClassifier,
    config: &ExperimentConfig,
) -> QualityRow {
    let cuts = collect_labeled_cuts(&circuit.aig, &config.elf.refactor);
    let (features, labels) = cuts_to_arrays(&cuts);
    let confusion = classifier.evaluate(&features, &labels, config.elf.self_normalize);
    QualityRow {
        name: circuit.name.clone(),
        confusion,
    }
}

/// Result of running the full leave-one-out protocol over a suite of circuits.
#[derive(Debug, Clone, Default)]
pub struct SuiteResult {
    /// One comparison row per circuit.
    pub comparisons: Vec<ComparisonRow>,
    /// One quality row per circuit.
    pub qualities: Vec<QualityRow>,
}

impl SuiteResult {
    /// Geometric-mean speed-up over all circuits.
    pub fn mean_speedup(&self) -> f64 {
        if self.comparisons.is_empty() {
            return 1.0;
        }
        let product: f64 = self
            .comparisons
            .iter()
            .map(|row| row.speedup().max(1e-9))
            .map(f64::ln)
            .sum();
        (product / self.comparisons.len() as f64).exp()
    }

    /// Worst (largest) AND-count degradation in percent.
    pub fn worst_and_difference_percent(&self) -> f64 {
        self.comparisons
            .iter()
            .map(ComparisonRow::and_difference_percent)
            .fold(0.0, f64::max)
    }

    /// Average recall over all circuits.
    pub fn mean_recall(&self) -> f64 {
        if self.qualities.is_empty() {
            return 1.0;
        }
        self.qualities
            .iter()
            .map(|q| q.confusion.recall())
            .sum::<f64>()
            / self.qualities.len() as f64
    }

    /// Average accuracy over all circuits.
    pub fn mean_accuracy(&self) -> f64 {
        if self.qualities.is_empty() {
            return 1.0;
        }
        self.qualities
            .iter()
            .map(|q| q.confusion.accuracy())
            .sum::<f64>()
            / self.qualities.len() as f64
    }
}

/// Runs the complete leave-one-out protocol over a suite: for every circuit,
/// train on the others, then compare baseline vs ELF and record classifier
/// quality.
pub fn run_suite(circuits: &[BenchCircuit], config: &ExperimentConfig) -> SuiteResult {
    let mut result = SuiteResult::default();
    for held_out in 0..circuits.len() {
        let classifier = train_leave_one_out(circuits, held_out, config);
        result
            .comparisons
            .push(compare_on_circuit(&circuits[held_out], &classifier, config));
        result
            .qualities
            .push(quality_on_circuit(&circuits[held_out], &classifier, config));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::{Aig, Lit};

    fn small_circuit(seed: u64) -> BenchCircuit {
        let mut aig = Aig::with_name(format!("c{seed}"));
        let inputs: Vec<Lit> = aig.add_inputs(8);
        let mut acc = inputs[(seed as usize) % 8];
        for i in 0..6 {
            let a = inputs[(seed as usize + i) % 8];
            let b = inputs[(seed as usize + 2 * i + 1) % 8];
            let c = inputs[(seed as usize + 3 * i + 2) % 8];
            let t0 = aig.and(a, b);
            let t1 = aig.and(a, c);
            let or = aig.or(t0, t1);
            let x = aig.xor(or, b);
            acc = aig.and(acc, x);
        }
        aig.add_output(acc);
        aig.cleanup();
        BenchCircuit::new(format!("c{seed}"), aig)
    }

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            train: TrainConfig {
                epochs: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn circuit_stats_counts_commits() {
        let circuit = small_circuit(1);
        let row = circuit_stats(&circuit, &RefactorParams::default());
        assert_eq!(row.ands, circuit.aig.num_reachable_ands());
        assert!(row.cuts >= row.refactored);
        assert!(row.refactored_fraction() <= 1.0);
        assert_eq!(row.inputs, 8);
        assert_eq!(row.outputs, 1);
    }

    #[test]
    fn comparison_row_metrics_are_consistent() {
        let circuits: Vec<BenchCircuit> = (0..3).map(small_circuit).collect();
        let config = quick_config();
        let classifier = train_leave_one_out(&circuits, 0, &config);
        let row = compare_on_circuit(&circuits[0], &classifier, &config);
        assert_eq!(row.nodes_before, circuits[0].aig.num_reachable_ands());
        // Neither flow may increase the node count, and both end at or below
        // the starting size.
        assert!(row.baseline_ands <= row.nodes_before);
        assert!(row.elf_ands <= row.nodes_before);
        assert!(row.speedup() > 0.0);
        assert!(row.prune_rate() >= 0.0 && row.prune_rate() <= 1.0);
    }

    #[test]
    fn comparison_arms_differ_only_in_pruning() {
        use elf_nn::{Mlp, Normalizer};
        use elf_opt::CutCacheConfig;

        // Threshold 0 keeps every cut, so the pruned arm does exactly the
        // baseline's work: any difference between the arms would come from
        // how they were set up, not from pruning.
        let keep_everything = ElfClassifier::from_parts(
            Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
            Mlp::paper_architecture(5),
            0.0,
        );
        let circuit = small_circuit(2);
        for cut_cache in [CutCacheConfig::default(), CutCacheConfig::disabled()] {
            let config = ExperimentConfig {
                elf: ElfConfig {
                    cut_cache,
                    ..ElfConfig::default()
                },
                ..quick_config()
            };
            let row = compare_on_circuit(&circuit, &keep_everything, &config);
            assert_eq!(row.prune_rate(), 0.0);
            assert_eq!(row.elf_ands, row.baseline_ands);
            assert_eq!(row.elf_level, row.baseline_level);

            let elf = ElfRefactor::new(keep_everything.clone(), config.elf);
            let plain = Refactor::new(config.elf.refactor);
            assert!(!plain.cut_cache().is_enabled(), "as constructed: no cache");
            let baseline = symmetric_baseline(&plain, &elf);
            assert_eq!(
                baseline.cut_cache().is_enabled(),
                elf.operator().cut_cache().is_enabled()
            );
            assert_eq!(baseline.cut_cache().is_enabled(), cut_cache.enabled);
            // A cache of its own: warming the baseline's leaves the pruned
            // arm's empty.
            let _ = baseline.run(&mut circuit.aig.clone());
            assert_eq!(elf.operator().cut_cache().stats().entries, 0);
        }
    }

    #[test]
    fn quality_row_covers_every_cut() {
        let circuits: Vec<BenchCircuit> = (0..3).map(small_circuit).collect();
        let config = quick_config();
        let classifier = train_leave_one_out(&circuits, 1, &config);
        let row = quality_on_circuit(&circuits[1], &classifier, &config);
        let cuts = collect_labeled_cuts(&circuits[1].aig, &config.elf.refactor);
        assert_eq!(row.confusion.total(), cuts.len());
    }

    #[test]
    fn suite_aggregates_are_well_formed() {
        let circuits: Vec<BenchCircuit> = (0..3).map(small_circuit).collect();
        let config = quick_config();
        let suite = run_suite(&circuits, &config);
        assert_eq!(suite.comparisons.len(), 3);
        assert_eq!(suite.qualities.len(), 3);
        assert!(suite.mean_speedup() > 0.0);
        assert!(suite.mean_recall() >= 0.0 && suite.mean_recall() <= 1.0);
        assert!(suite.mean_accuracy() >= 0.0 && suite.mean_accuracy() <= 1.0);
    }

    #[test]
    fn double_application_uses_two_passes() {
        let circuits: Vec<BenchCircuit> = (0..2).map(small_circuit).collect();
        let config = ExperimentConfig {
            applications: 2,
            ..quick_config()
        };
        let classifier = train_leave_one_out(&circuits, 0, &config);
        let row = compare_on_circuit(&circuits[0], &classifier, &config);
        assert_eq!(row.elf_passes.len(), 2);
    }
}
