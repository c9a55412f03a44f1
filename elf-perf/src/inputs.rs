//! Everything a workload is given: circuits made from the seed, the
//! baseline-labelled cuts of each, and a classifier put at the benchmark's
//! own operating point.  The layer crates only ever see what is built here.

use std::time::Instant;

use elf_aig::Aig;
use elf_circuits::{generate_random_netlist, words};
use elf_core::{
    collect_labeled_cuts, cuts_to_arrays, cuts_to_dataset, standardize_per_circuit, ElfClassifier,
};
use elf_nn::{Dataset, TrainConfig};
use elf_opt::{LabeledCut, RefactorParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The flow every workload but `arith_rf` runs.
pub const SCRIPT: &str = "rf; rw; rs";

/// Recall, on the baseline's own labels, at which every pruned arm runs.
/// Fixing recall fixes the quality side of the trade: a change cannot get
/// faster by pruning more, and a better classifier prunes more at this point.
pub const RECALL_POINT: f64 = 0.90;

/// Seed of model initialisation and of the training loop.  It does not follow
/// `--seed`: at fixed recall the prune rate, and with it the pruned arm's
/// time, swings up to twofold with the initialisation alone, which would
/// bury every other effect.  The classifier is part of the program under
/// test; the seed chooses its inputs.
pub const MODEL_SEED: u64 = 0xE1F;

/// Input sizes: the full benchmark, or the `--smoke` set that finishes in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Operand widths of `div`, `hyp`, `multiplier`, `sqrt`, `square`.
    pub arith_widths: [usize; 5],
    /// `industrial_suite` scale of `flow_cached`.
    pub flow_scale: f64,
    /// `industrial_suite` scale of the `cec_verify` pairs.
    pub cec_scale: f64,
    /// Circuits in the `serve_open` job pool.
    pub pool: usize,
    /// SAT conflicts one equivalence check may spend.
    pub cec_budget: u64,
    /// `Scale::Tiny` arithmetic circuits among the `cec_verify` inputs.
    pub cec_arith: &'static [&'static str],
}

impl Sizes {
    /// Sizes of a measured run: about 1 k ANDs per arithmetic circuit and
    /// 8 k over the ten industrial designs, so that three interleaved trials
    /// and three set-ups fit the run the driver allows.
    pub const FULL: Sizes = Sizes {
        arith_widths: [10, 7, 10, 20, 11],
        flow_scale: 0.003,
        cec_scale: 0.001,
        pool: 32,
        // 3 % of the checker's default: no check takes more than about a
        // second, and the harder arithmetic pairs stay undecided.
        cec_budget: 3_000,
        cec_arith: &elf_circuits::ARITHMETIC_NAMES,
    };

    /// Sizes of `--smoke`: everything in seconds.
    pub const SMOKE: Sizes = Sizes {
        arith_widths: [6, 4, 6, 10, 6],
        flow_scale: 0.001,
        cec_scale: 0.0005,
        pool: 8,
        cec_budget: 300,
        cec_arith: &["sqrt", "square"],
    };
}

/// The arithmetic circuits of the paper's Table III, `log2` left out (alone
/// it is half the run).
pub const ARITH_NAMES: [&str; 5] = ["div", "hyp", "multiplier", "sqrt", "square"];

/// Builds one arithmetic circuit at operand width `width`, the way
/// `elf_circuits::arithmetic_circuit` does at its three fixed scales.
pub fn arithmetic(name: &str, width: usize) -> Aig {
    let mut aig = Aig::with_name(name);
    let outputs = match name {
        "div" => {
            let a = aig.add_inputs(width);
            let b = aig.add_inputs(width);
            let (mut quotient, remainder) = words::divide(&mut aig, &a, &b);
            quotient.extend(remainder);
            quotient
        }
        "hyp" => {
            let x = aig.add_inputs(width);
            let y = aig.add_inputs(width);
            let xx = words::square(&mut aig, &x);
            let yy = words::square(&mut aig, &y);
            let (mut radicand, carry) = words::add(&mut aig, &xx, &yy);
            radicand.push(carry);
            if radicand.len() % 2 == 1 {
                radicand.push(aig.constant(false));
            }
            words::isqrt(&mut aig, &radicand)
        }
        "multiplier" => {
            let a = aig.add_inputs(width);
            let b = aig.add_inputs(width);
            words::multiply(&mut aig, &a, &b)
        }
        "sqrt" => {
            let radicand = aig.add_inputs(width);
            words::isqrt(&mut aig, &radicand)
        }
        "square" => {
            let a = aig.add_inputs(width);
            words::square(&mut aig, &a)
        }
        other => panic!("unknown arithmetic circuit `{other}`"),
    };
    for lit in outputs {
        aig.add_output(lit);
    }
    aig.cleanup();
    aig
}

/// The five arithmetic circuits at the given widths.
pub fn arithmetic_set(widths: &[usize; 5]) -> Vec<(String, Aig)> {
    ARITH_NAMES
        .iter()
        .zip(widths)
        .map(|(name, &width)| (name.to_string(), arithmetic(name, width)))
        .collect()
}

/// The `serve_open` job pool: seeded random netlists of 16–96 target ANDs
/// (a few milliseconds of flow each).  Sizes, depths and redundancy are
/// spread evenly over the pool and only the structure follows the seed, so
/// two seeds give pools of the same weight.
pub fn job_pool(count: usize, seed: u64) -> Vec<(String, Aig)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E00);
    (0..count)
        .map(|index| {
            let ands = 16 + 80 * index / count.max(2).saturating_sub(1);
            let name = format!("job {index}");
            let aig = generate_random_netlist(
                &name,
                8 + ands / 10,
                4 + ands / 20,
                ands,
                9 + (7 * index) % 16,
                0.02 + 0.08 * ((5 * index) % count) as f64 / count as f64,
                rng.gen::<u64>(),
            );
            (name, aig)
        })
        .collect()
}

/// A seeded order of `0..count` (Fisher–Yates).
pub fn permutation(count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Seeded Poisson arrivals: due times in seconds from the phase start, at
/// `rate` per second for `seconds`, each with a pool index.  Jobs cycle
/// through a seeded order of the pool, so every stretch of the schedule
/// carries the same mix of circuits and only the gaps are random.
pub fn poisson_schedule(rate: f64, seconds: f64, pool: usize, seed: u64) -> Vec<(f64, usize)> {
    let order = permutation(pool, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut due = 0.0f64;
    loop {
        due += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if due >= seconds {
            return schedule;
        }
        schedule.push((due, order[schedule.len() % pool]));
    }
}

/// How the classifier of a circuit set is trained and thresholded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// One classifier per circuit, trained on the others (the paper's
    /// protocol), thresholded on the held-out circuit.
    LeaveOneOut,
    /// One classifier trained on every circuit, thresholded per circuit.
    Pooled,
    /// One classifier and one threshold over all circuits' cuts: what a
    /// service with a single published model can run.
    PooledOneThreshold,
}

/// One input circuit with its labels and its classifier.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Name for reports.
    pub name: String,
    /// The circuit as generated.
    pub aig: Aig,
    /// Every cut of the circuit, labelled by the baseline refactor pass.
    pub cuts: Vec<LabeledCut>,
    /// The classifier at the fixed-recall operating point.
    pub classifier: ElfClassifier,
    /// Threshold `ElfClassifier::fit` shipped.
    pub shipped_threshold: f32,
    /// Recall on `cuts` at the shipped threshold (`None` without positives).
    pub shipped_recall: Option<f64>,
}

impl Circuit {
    /// The classifier as `fit` returned it.
    pub fn shipped_classifier(&self) -> ElfClassifier {
        let mut classifier = self.classifier.clone();
        classifier.set_threshold(self.shipped_threshold);
        classifier
    }

    /// The classifier with threshold 0: it keeps every cut.
    pub fn keep_all_classifier(&self) -> ElfClassifier {
        let mut classifier = self.classifier.clone();
        classifier.set_threshold(0.0);
        classifier
    }
}

impl Prepared {
    /// [`inputs_print`](crate::check::inputs_print) of the circuits in run order.
    pub fn inputs_print(&self) -> f64 {
        crate::check::inputs_print(
            self.circuits
                .iter()
                .map(|c| crate::check::fingerprint(&c.aig)),
        )
    }
}

/// Wall time of the parts of set-up, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimes {
    /// Circuit generation (`elf-circuits`).
    pub gen_s: f64,
    /// Labelled-cut collection (`elf-core` dataset, a recording baseline pass).
    pub dataset_s: f64,
    /// `ElfClassifier::fit` (`elf-nn` training).
    pub train_s: f64,
}

/// A workload's inputs, ready to run.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The circuits, in run order.
    pub circuits: Vec<Circuit>,
    /// Where set-up time went.
    pub times: SetupTimes,
}

/// The largest threshold at which at least [`RECALL_POINT`] of the positive
/// `labels` score at or above it; 1.0 when nothing is positive.
pub fn fixed_recall_threshold(scores: &[f32], labels: &[bool]) -> f32 {
    let mut positives: Vec<f32> = scores
        .iter()
        .zip(labels)
        .filter_map(|(score, &positive)| positive.then_some(*score))
        .collect();
    if positives.is_empty() {
        return 1.0;
    }
    positives.sort_by(f32::total_cmp);
    let needed = (RECALL_POINT * positives.len() as f64).ceil() as usize;
    positives[positives.len() - needed.clamp(1, positives.len())]
}

/// Share of positive `labels` whose score reaches `threshold`.
pub fn recall_at(scores: &[f32], labels: &[bool], threshold: f32) -> Option<f64> {
    let positives = labels.iter().filter(|&&l| l).count();
    let kept = scores
        .iter()
        .zip(labels)
        .filter(|(score, &positive)| positive && **score >= threshold)
        .count();
    (positives > 0).then(|| kept as f64 / positives as f64)
}

/// Generates circuits with `generate`, labels their cuts with the baseline
/// refactor pass, trains by `protocol` and puts each classifier at the
/// fixed-recall point of its circuit.
pub fn prepare(generate: impl FnOnce() -> Vec<(String, Aig)>, protocol: Protocol) -> Prepared {
    let start = Instant::now();
    let named = generate();
    let gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let params = RefactorParams::default();
    let cuts: Vec<Vec<LabeledCut>> = named
        .iter()
        .map(|(_, aig)| collect_labeled_cuts(aig, &params))
        .collect();
    let datasets: Vec<Dataset> = cuts
        .iter()
        .map(|cuts| standardize_per_circuit(&cuts_to_dataset(cuts)))
        .collect();
    let dataset_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let config = TrainConfig {
        seed: MODEL_SEED,
        ..TrainConfig::default()
    };
    let fit_without = |held_out: Option<usize>| {
        let mut data = Dataset::new();
        for (index, dataset) in datasets.iter().enumerate() {
            if Some(index) != held_out {
                data.extend_from(dataset);
            }
        }
        ElfClassifier::fit(&data, &config, MODEL_SEED).0
    };
    let classifiers: Vec<ElfClassifier> = match protocol {
        Protocol::LeaveOneOut => (0..named.len()).map(|i| fit_without(Some(i))).collect(),
        Protocol::Pooled | Protocol::PooledOneThreshold => {
            vec![fit_without(None); named.len()]
        }
    };
    let train_s = start.elapsed().as_secs_f64();

    let scored: Vec<(Vec<f32>, Vec<bool>)> = cuts
        .iter()
        .zip(&classifiers)
        .map(|(cuts, classifier)| {
            let (features, labels) = cuts_to_arrays(cuts);
            (classifier.predict_batch_self_normalized(&features), labels)
        })
        .collect();
    let pooled_threshold = (protocol == Protocol::PooledOneThreshold).then(|| {
        let scores: Vec<f32> = scored.iter().flat_map(|(s, _)| s.iter().copied()).collect();
        let labels: Vec<bool> = scored.iter().flat_map(|(_, l)| l.iter().copied()).collect();
        fixed_recall_threshold(&scores, &labels)
    });

    let circuits = named
        .into_iter()
        .zip(cuts)
        .zip(classifiers)
        .zip(&scored)
        .map(
            |((((name, aig), cuts), mut classifier), (scores, labels))| {
                let shipped_threshold = classifier.threshold();
                classifier.set_threshold(
                    pooled_threshold.unwrap_or_else(|| fixed_recall_threshold(scores, labels)),
                );
                Circuit {
                    name,
                    aig,
                    cuts,
                    classifier,
                    shipped_threshold,
                    shipped_recall: recall_at(scores, labels, shipped_threshold),
                }
            },
        )
        .collect();

    Prepared {
        circuits,
        times: SetupTimes {
            gen_s,
            dataset_s,
            train_s,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_recall_threshold_keeps_nine_in_ten_positives() {
        let scores: Vec<f32> = (0..20).map(|i| i as f32 / 20.0).collect();
        let labels = vec![true; 20];
        let threshold = fixed_recall_threshold(&scores, &labels);
        assert_eq!(recall_at(&scores, &labels, threshold), Some(0.9));
        // One step higher would drop below the recall point.
        assert!(recall_at(&scores, &labels, threshold + 0.05).unwrap() < RECALL_POINT);
        // A lone positive is kept; no positive prunes everything.
        assert_eq!(fixed_recall_threshold(&[0.3, 0.7], &[false, true]), 0.7);
        assert_eq!(fixed_recall_threshold(&[0.3, 0.7], &[false, false]), 1.0);
        assert_eq!(recall_at(&[0.3], &[false], 0.5), None);
    }

    #[test]
    fn the_seed_alone_decides_the_generated_inputs() {
        assert_eq!(
            poisson_schedule(200.0, 0.5, 8, 3),
            poisson_schedule(200.0, 0.5, 8, 3)
        );
        assert_ne!(
            poisson_schedule(200.0, 0.5, 8, 3),
            poisson_schedule(200.0, 0.5, 8, 4)
        );
        let prints = |pool: Vec<(String, Aig)>| {
            let prints = pool.iter().map(|(_, aig)| crate::check::fingerprint(aig));
            prints.collect::<Vec<_>>()
        };
        assert_eq!(prints(job_pool(4, 9)), prints(job_pool(4, 9)));
        assert_ne!(prints(job_pool(4, 9)), prints(job_pool(4, 10)));
    }

    #[test]
    fn arithmetic_matches_the_library_at_its_tiny_scale() {
        for (name, width) in ARITH_NAMES.iter().zip([8, 6, 8, 12, 8]) {
            let ours = arithmetic(name, width);
            let theirs = elf_circuits::arithmetic_circuit(name, elf_circuits::Scale::Tiny);
            assert_eq!(ours.num_ands(), theirs.num_ands(), "{name}");
        }
    }
}
