//! The training loop used to fit the ELF classifier.
//!
//! It runs the paper's one recipe (Adam, cosine annealing with warm
//! restarts, class-balanced resampling, MixUp and early stopping), whose
//! settings are the constants below.  A run chooses only its epoch budget,
//! loss and seed ([`TrainConfig`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data::{mixup, Dataset, WeightedRandomSampler};
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::metrics::ConfusionMatrix;
use crate::model::Mlp;
use crate::optim::{Adam, CosineAnnealingWarmRestarts};

/// Mini-batch size.
const BATCH_SIZE: usize = 64;
/// Initial learning rate for Adam.  The paper trains with Adam at 0.1 under
/// PyTorch; this from-scratch implementation is stabler at a smaller base
/// rate with the same cosine-annealing warm restarts.
const LEARNING_RATE: f32 = 0.02;
/// Early-stopping patience (epochs without validation improvement).
const PATIENCE: usize = 10;
/// Fraction of the data held out for validation / early stopping.
const VALIDATION_FRACTION: f32 = 0.2;
/// MixUp augmentation strength.
const MIXUP_ALPHA: f32 = 0.4;
/// Extra MixUp examples per epoch, as a fraction of the train set.
const MIXUP_FRACTION: f32 = 0.25;
/// Length (in epochs) of the first cosine-annealing period.
const SCHEDULER_PERIOD: f32 = 10.0;
/// Period multiplier after each warm restart.
const SCHEDULER_MULT: f32 = 2.0;

/// What a training run may vary: everything else of the recipe is fixed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Loss function.
    pub loss: Loss,
    /// RNG seed (sampling, shuffling, MixUp).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            loss: Loss::BinaryCrossEntropy,
            seed: 0xE1F,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Number of epochs actually run (early stopping may cut training short).
    pub epochs_run: usize,
    /// Epoch index (0-based) with the best validation loss.
    pub best_epoch: usize,
    /// Training loss per epoch.
    pub train_losses: Vec<f32>,
    /// Validation loss per epoch.
    pub validation_losses: Vec<f32>,
    /// Validation confusion matrix of the best model at threshold 0.5.
    pub validation_metrics: ConfusionMatrix,
}

/// Trains `model` in place on `data` and returns a report.
///
/// The model with the best validation loss is restored before returning.
///
/// # Panics
///
/// Panics if `data` is empty or its feature width does not match the model.
pub fn train(model: &mut Mlp, data: &Dataset, config: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_eq!(
        data.num_features(),
        model.num_inputs(),
        "dataset width must match the model input size"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Stratified: the cut-classification task is heavily imbalanced, and a
    // plain shuffle split can leave the validation slice without a single
    // positive (making recall-driven early stopping and reporting
    // meaningless, e.g. the quickstart's 0 % recall at Tiny scale).
    let (train_set, valid_set) = data.split_stratified(VALIDATION_FRACTION, config.seed);
    let (train_set, valid_set) = if valid_set.is_empty() || train_set.is_empty() {
        (data.clone(), data.clone())
    } else {
        (train_set, valid_set)
    };

    let sampler = WeightedRandomSampler::balanced(&train_set);
    let schedule = CosineAnnealingWarmRestarts::new(
        LEARNING_RATE,
        LEARNING_RATE * 1e-3,
        SCHEDULER_PERIOD,
        SCHEDULER_MULT,
    );
    let mut optimizer = Adam::new(LEARNING_RATE);

    let valid_labels = valid_set.labels();

    let mut best_loss = f32::INFINITY;
    let mut best_model = model.clone();
    let mut best_epoch = 0;
    let mut epochs_without_improvement = 0;
    let mut train_losses = Vec::new();
    let mut validation_losses = Vec::new();

    for epoch in 0..config.epochs {
        optimizer.set_learning_rate(schedule.learning_rate_at(epoch as f32));

        // Assemble this epoch's training pool: resampled originals + MixUp.
        let mut pool = train_set.select(&sampler.sample(train_set.len(), &mut rng));
        let extra = ((train_set.len() as f32) * MIXUP_FRACTION) as usize;
        pool.extend_from(&mixup(
            &train_set,
            extra,
            MIXUP_ALPHA,
            config.seed.wrapping_add(epoch as u64),
        ));

        // Mini-batch SGD over the pool.
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        let batch_targets = pool.labels().chunks(BATCH_SIZE);
        for (rows, targets) in pool.features().chunks(BATCH_SIZE).zip(batch_targets) {
            let activations = model.forward_cached(&Matrix::from_rows(rows));
            // The network's one output column.
            let output = activations[activations.len() - 1].data();
            epoch_loss += config.loss.value(output, targets);
            let grad_output = config.loss.gradient(output, targets);
            let grads = model.backward(&activations, &grad_output);
            optimizer.step(model, &grads);
            batches += 1;
        }
        train_losses.push(epoch_loss / batches.max(1) as f32);

        // Validation.
        let valid_loss = config
            .loss
            .value(&model.predict(valid_set.features()), valid_labels);
        validation_losses.push(valid_loss);
        if valid_loss < best_loss {
            best_loss = valid_loss;
            best_model = model.clone();
            best_epoch = epoch;
            epochs_without_improvement = 0;
        } else {
            epochs_without_improvement += 1;
            if epochs_without_improvement >= PATIENCE {
                break;
            }
        }
    }

    *model = best_model;
    let probabilities = model.predict(valid_set.features());
    let labels_bool: Vec<bool> = valid_labels.iter().map(|&l| l >= 0.5).collect();
    let validation_metrics = ConfusionMatrix::from_probabilities(&probabilities, &labels_bool, 0.5);

    TrainReport {
        epochs_run: train_losses.len(),
        best_epoch,
        train_losses,
        validation_losses,
        validation_metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A separable but imbalanced synthetic task reminiscent of the cut
    /// classification problem: positives live in a small corner of the space.
    fn imbalanced_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Dataset::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = x[0] < 0.25 && x[4] > 0.6;
            data.push(x, label);
        }
        data
    }

    #[test]
    fn training_learns_the_imbalanced_task() {
        let data = imbalanced_dataset(1200, 3);
        let mut model = Mlp::paper_architecture(7);
        let config = TrainConfig {
            epochs: 25,
            ..Default::default()
        };
        let report = train(&mut model, &data, &config);
        assert!(report.epochs_run >= 5);
        assert!(
            report.validation_metrics.recall() > 0.6,
            "{:?}",
            report.validation_metrics
        );
        assert!(report.validation_metrics.accuracy() > 0.7);
        // Loss curves should exist for every epoch run.
        assert_eq!(report.train_losses.len(), report.epochs_run);
        assert_eq!(report.validation_losses.len(), report.epochs_run);
    }

    #[test]
    fn early_stopping_halts_training() {
        // Labels independent of the features: nothing generalises, so the
        // validation loss stops improving long before the epoch budget.
        let mut rng = StdRng::seed_from_u64(5);
        let mut data = Dataset::new();
        for _ in 0..60 {
            let x: Vec<f32> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
            data.push(x, rng.gen_range(0.0..1.0) < 0.3);
        }
        let mut model = Mlp::paper_architecture(1);
        let config = TrainConfig {
            epochs: 200,
            ..Default::default()
        };
        let report = train(&mut model, &data, &config);
        assert_eq!(report.epochs_run, report.best_epoch + 1 + PATIENCE);
        assert!(report.epochs_run < config.epochs);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn training_on_empty_dataset_panics() {
        let mut model = Mlp::paper_architecture(1);
        let _ = train(&mut model, &Dataset::new(), &TrainConfig::default());
    }
}
