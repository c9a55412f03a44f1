//! Experiment harness: the paper's leave-one-out protocol, baseline-vs-ELF
//! comparison and classifier quality evaluation (the data behind Tables
//! I–VIII), for any [`PrunableOperator`].

use std::time::Duration;

use elf_nn::{ConfusionMatrix, Dataset, TrainConfig};
use elf_opt::{CutCache, OpStats, PrunableOperator, Refactor, RefactorParams};
use elf_par::Parallelism;

use crate::classifier::ElfClassifier;
use crate::dataset::{
    collect_labeled_cuts_with, cuts_to_arrays, cuts_to_dataset, standardize_per_circuit,
    BenchCircuit,
};
use crate::flow::{Elf, ElfConfig, ElfOptions, ElfStats};

/// Everything configurable about a paper-style experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// ELF operator configuration (refactor parameters and flow options).
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

/// Runs a baseline operator and its pruned counterpart on (copies of) one
/// circuit and returns the comparison row.
///
/// Both arms run with the same cut-cache configuration: the baseline gets a
/// fresh cache of `elf`'s [`ElfOptions::cut_cache`], its own (never shared
/// with the pruned arm), so the reported speed-up is what pruning buys and
/// not what memoization buys.
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

/// The paper's evaluation protocol over a suite of circuits, for any
/// [`PrunableOperator`]: `operator` labels every circuit's cuts with its own
/// commits, a classifier trained on all circuits but one prunes that one,
/// and the pruned operator is compared against `operator` as the baseline.
///
/// Each circuit's per-circuit standardized dataset is collected once, when
/// the suite is built, and every training set concatenates those datasets
/// in suite order.  Training is seeded, so every row is reproducible.
#[derive(Debug)]
pub struct Suite<O: PrunableOperator> {
    circuits: Vec<BenchCircuit>,
    operator: O,
    datasets: Vec<Dataset>,
    config: ExperimentConfig,
}

impl Suite<Refactor> {
    /// The paper's suite: refactor with `config.elf.refactor` labels the
    /// cuts and is the baseline.
    pub fn refactor(circuits: Vec<BenchCircuit>, config: ExperimentConfig) -> Self {
        Suite::new(circuits, Refactor::new(config.elf.refactor), config)
    }
}

impl<O: PrunableOperator + Clone + Sync> Suite<O> {
    /// Collects the labelled cut dataset of every circuit, one circuit per
    /// worker of `config.elf.parallelism`.
    pub fn new(circuits: Vec<BenchCircuit>, operator: O, config: ExperimentConfig) -> Self {
        let datasets = config.elf.parallelism.map(&circuits, |_, circuit| {
            let cuts = collect_labeled_cuts_with(&operator, &circuit.aig);
            standardize_per_circuit(&cuts_to_dataset(&cuts))
        });
        Suite {
            circuits,
            operator,
            datasets,
            config,
        }
    }

    /// The circuits of the suite.
    pub fn circuits(&self) -> &[BenchCircuit] {
        &self.circuits
    }

    /// Each circuit's labelled cuts, standardized with that circuit's own
    /// statistics, in the order the operator visited them.
    pub fn datasets(&self) -> &[Dataset] {
        &self.datasets
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The training set that leaves out circuit `held_out` (every circuit
    /// when `None`).
    pub(crate) fn training_set(&self, held_out: Option<usize>) -> Dataset {
        let mut data = Dataset::new();
        for (index, dataset) in self.datasets.iter().enumerate() {
            if Some(index) != held_out {
                data.extend_from(dataset);
            }
        }
        data
    }

    /// Trains a classifier on every circuit except `held_out` (on every
    /// circuit when `None`, for evaluation sets disjoint from the suite).
    pub fn train(&self, held_out: Option<usize>) -> ElfClassifier {
        let data = self.training_set(held_out);
        let (classifier, _report) = ElfClassifier::fit(&data, &self.config.train, self.config.seed);
        classifier
    }

    /// Baseline vs pruned operator on `circuit`, applied
    /// [`ExperimentConfig::applications`] times.
    pub fn compare(&self, circuit: &BenchCircuit, classifier: &ElfClassifier) -> ComparisonRow {
        self.compare_on(circuit, classifier, self.config.elf.parallelism)
    }

    fn compare_on(
        &self,
        circuit: &BenchCircuit,
        classifier: &ElfClassifier,
        parallelism: Parallelism,
    ) -> ComparisonRow {
        let options = ElfOptions {
            parallelism,
            ..self.config.elf.into()
        };
        let elf = Elf::with_operator(classifier.clone(), self.operator.clone(), options);
        compare_with_operator(circuit, &self.operator, &elf, self.config.applications)
    }

    /// Classifier quality (recall, accuracy, confusion matrix) on
    /// `circuit`, against the labels the operator's own commits give its
    /// cuts.
    pub fn quality(&self, circuit: &BenchCircuit, classifier: &ElfClassifier) -> QualityRow {
        let cuts = collect_labeled_cuts_with(&self.operator, &circuit.aig);
        let (features, labels) = cuts_to_arrays(&cuts);
        QualityRow {
            name: circuit.name.clone(),
            confusion: classifier.evaluate(&features, &labels),
        }
    }

    /// Leave-one-out comparison rows (Tables III, IV and V).
    pub fn comparison_rows(&self) -> Vec<ComparisonRow> {
        self.leave_one_out(|circuit, classifier, inner| self.compare_on(circuit, classifier, inner))
    }

    /// Leave-one-out quality rows (Tables VII and VIII).
    pub fn quality_rows(&self) -> Vec<QualityRow> {
        self.leave_one_out(|circuit, classifier, _| self.quality(circuit, classifier))
    }

    /// Leave-one-out comparison and quality rows, both from the one
    /// classifier trained per held-out circuit.
    pub fn rows(&self) -> Vec<(ComparisonRow, QualityRow)> {
        self.leave_one_out(|circuit, classifier, inner| {
            (
                self.compare_on(circuit, classifier, inner),
                self.quality(circuit, classifier),
            )
        })
    }

    /// Hands every circuit, with a classifier trained on the others, to
    /// `row`.  Every held-out circuit trains and runs independently, so the
    /// protocol fans out one held-out circuit per worker and gathers the
    /// rows in circuit order.  When it does fan out (more than one circuit),
    /// the pruned passes inside run sequential: both layers spawning `N`
    /// workers would put `N²` threads on `N` cores.  Results are identical
    /// either way; only wall clock moves.
    fn leave_one_out<T: Send>(
        &self,
        row: impl Fn(&BenchCircuit, &ElfClassifier, Parallelism) -> T + Sync,
    ) -> Vec<T> {
        let parallelism = self.config.elf.parallelism;
        let inner = if self.circuits.len() > 1 {
            Parallelism::sequential()
        } else {
            parallelism
        };
        parallelism.map(&self.circuits, |held_out, circuit| {
            row(circuit, &self.train(Some(held_out)), inner)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::collect_labeled_cuts;
    use crate::flow::ElfRefactor;
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
        let suite = Suite::refactor(circuits, quick_config());
        let classifier = suite.train(Some(0));
        let row = suite.compare(&suite.circuits()[0], &classifier);
        assert_eq!(
            row.nodes_before,
            suite.circuits()[0].aig.num_reachable_ands()
        );
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

            let row = compare_with_operator(&circuit, &plain, &elf, 1);
            assert_eq!(row.prune_rate(), 0.0);
            assert_eq!(row.elf_ands, row.baseline_ands);
            assert_eq!(row.elf_level, row.baseline_level);
        }
    }

    #[test]
    fn quality_row_covers_every_cut() {
        let circuits: Vec<BenchCircuit> = (0..3).map(small_circuit).collect();
        let suite = Suite::refactor(circuits, quick_config());
        let classifier = suite.train(Some(1));
        let row = suite.quality(&suite.circuits()[1], &classifier);
        assert_eq!(row.confusion.total(), suite.datasets()[1].len());
        let cuts = collect_labeled_cuts(&suite.circuits()[1].aig, &RefactorParams::default());
        assert_eq!(row.confusion.total(), cuts.len());
    }

    #[test]
    fn suite_aggregates_are_well_formed() {
        let circuits: Vec<BenchCircuit> = (0..3).map(small_circuit).collect();
        let suite = Suite::refactor(circuits, quick_config());
        let rows = suite.rows();
        assert_eq!(rows.len(), 3);
        for ((comparison, quality), circuit) in rows.iter().zip(suite.circuits()) {
            assert_eq!(comparison.name, circuit.name);
            assert_eq!(quality.name, circuit.name);
            assert!(comparison.speedup() > 0.0);
            let cm = quality.confusion;
            assert!(cm.recall() >= 0.0 && cm.recall() <= 1.0);
            assert!(cm.accuracy() >= 0.0 && cm.accuracy() <= 1.0);
        }
        // The single-table entries train the same classifiers.
        let ands = |row: &ComparisonRow| (row.elf_ands, row.elf_level, row.prune_rate());
        let comparisons = suite.comparison_rows();
        let qualities = suite.quality_rows();
        for (index, (comparison, quality)) in rows.iter().enumerate() {
            assert_eq!(ands(&comparisons[index]), ands(comparison));
            assert_eq!(&qualities[index], quality);
        }
    }

    #[test]
    fn double_application_uses_two_passes() {
        let circuits: Vec<BenchCircuit> = (0..2).map(small_circuit).collect();
        let config = ExperimentConfig {
            applications: 2,
            ..quick_config()
        };
        let suite = Suite::refactor(circuits, config);
        let classifier = suite.train(Some(0));
        let row = suite.compare(&suite.circuits()[0], &classifier);
        assert_eq!(row.elf_passes.len(), 2);
    }
}
