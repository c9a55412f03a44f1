//! The training loop used to fit the ELF classifier.
//!
//! It runs the paper's one recipe (Adam, cosine annealing with warm
//! restarts, class-balanced resampling, MixUp and early stopping), whose
//! settings are the constants below.  A run chooses only its epoch budget,
//! loss and seed ([`TrainConfig`]).
//!
//! # One fused step
//!
//! Everything a run writes per epoch and per mini-batch lives in buffers
//! sized once per run: the epoch's pool ([`Pool`]), the step's activations
//! and gradients ([`Workspace`]) and Adam's moments, so training allocates
//! a few times per epoch, never per batch or per row.  A mini-batch is held
//! **batch-major** (feature `f` of its rows contiguous), which is how the
//! pool stores it: the batch's slice of the pool is the network's input as
//! it is.  A step runs the forward products, the loss and its gradient,
//! backpropagation (the first layer's input gradient is not computed) and
//! one in-place Adam update per layer, through the kernels of
//! [`crate::matrix`].
//!
//! The step keeps the arithmetic of the naive per-element loops: every
//! product element is summed from `0.0` in ascending order of its inner
//! index (inputs, outputs or the batch's rows), a bias is added after its
//! sum, the clamped loss is divided by the batch's size, and Adam's
//! expressions keep their operand order, with no fused multiply-add and no
//! reassociation.  A trained model is therefore bit-identical to one
//! trained through a `Matrix` per batch: `tests/golden_training.rs` pins
//! two, and this module's tests compare every step with that pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data::{mix, mix_pair, Dataset, WeightedRandomSampler};
use crate::loss::Loss;
use crate::matrix;
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

/// The buffers of one training step, sized by the model once per run: every
/// layer's output and parameter gradients, and the gradient flowing back.
/// Batch values are batch-major, `values[feature * rows + row]`.
pub(crate) struct Workspace {
    /// Each layer's output for the batch.
    pub(crate) outputs: Vec<Vec<f32>>,
    /// The gradient with respect to the current layer's output, then, chained
    /// through its activation, its pre-activation.
    grad: Vec<f32>,
    /// The pre-activation gradient row-major, as the weight gradient reads
    /// it: each row padded to [`matrix::padded`] values.
    grad_rows: Vec<f32>,
    /// The gradient with respect to the current layer's input.
    grad_input: Vec<f32>,
    /// Each layer's weight and bias gradients, shaped as
    /// [`Mlp::zeroed_parameters`].
    pub(crate) grads: Vec<[Vec<f32>; 2]>,
}

impl Workspace {
    /// A workspace for batches of up to [`BATCH_SIZE`] rows through `model`.
    pub(crate) fn new(model: &Mlp) -> Self {
        let layers = model.layers();
        let widest = layers.iter().map(|l| l.inputs().max(l.outputs()));
        let batch = |width: usize| vec![0.0; width * BATCH_SIZE];
        let widest = widest.max().unwrap_or(0);
        let grad = batch(widest);
        Workspace {
            outputs: layers.iter().map(|l| batch(l.outputs())).collect(),
            grad_rows: batch(matrix::padded(widest)),
            grad_input: grad.clone(),
            grad,
            grads: model.zeroed_parameters(),
        }
    }

    /// Runs a batch of `rows` rows (`input`, batch-major) through `model`,
    /// keeping every layer's output in [`Workspace::outputs`].
    pub(crate) fn forward(&mut self, model: &Mlp, input: &[f32], rows: usize) {
        for (index, layer) in model.layers().iter().enumerate() {
            let (below, rest) = self.outputs.split_at_mut(index);
            let x = below.last().map_or(input, |x| &x[..layer.inputs() * rows]);
            let out = &mut rest[0][..layer.outputs() * rows];
            matrix::forward(x, rows, layer.weights(), layer.bias(), out);
            layer.activation().apply_all(out);
        }
    }

    /// Computes every layer's parameter gradients of `loss` on one batch,
    /// its input (batch-major) and one target per row, through `model`'s
    /// one output, and returns the batch's loss.
    pub(crate) fn gradients(&mut self, model: &Mlp, batch: (&[f32], &[f32]), loss: Loss) -> f32 {
        let (input, targets) = batch;
        let rows = targets.len();
        self.forward(model, input, rows);
        let layers = model.layers();
        let probabilities = &self.outputs[layers.len() - 1][..rows];
        let batch_loss = loss.value(probabilities, targets);
        loss.gradient(probabilities, targets, &mut self.grad[..rows]);
        for (index, layer) in layers.iter().enumerate().rev() {
            let (inputs, outputs) = (layer.inputs(), layer.outputs());
            let grad = &mut self.grad[..outputs * rows];
            let stride = matrix::padded(outputs);
            let grad_rows = &mut self.grad_rows[..stride * rows];
            let y = &self.outputs[index][..outputs * rows];
            // Chain through the activation, dL/dz = dL/dy * act'(y), and
            // copy the result into rows.
            let act = layer.activation();
            grad.iter_mut()
                .zip(y)
                .for_each(|(g, &y)| *g *= act.derivative_from_output(y));
            for (j, lane) in grad.chunks_exact(rows).enumerate() {
                for (&g, g_row) in lane.iter().zip(grad_rows.chunks_exact_mut(stride)) {
                    g_row[j] = g;
                }
            }
            let x = match index {
                0 => input,
                _ => &self.outputs[index - 1][..inputs * rows],
            };
            let [dw, db] = &mut self.grads[index];
            matrix::weight_gradient(x, grad_rows, rows, dw, db);
            if index > 0 {
                let grad_input = &mut self.grad_input[..inputs * rows];
                matrix::input_gradient(grad, rows, layer.weights(), grad_input);
                std::mem::swap(&mut self.grad, &mut self.grad_input);
            }
        }
        batch_loss
    }
}

/// One epoch's training pool in one buffer, rewritten in place every epoch:
/// the resampled train split, then the MixUp rows.  Each mini-batch's rows
/// are stored batch-major, so [`Pool::batches`] hands out the network's
/// input as it is.
struct Pool {
    width: usize,
    features: Vec<f32>,
    labels: Vec<f32>,
}

impl Pool {
    fn new(rows: usize, width: usize) -> Self {
        Pool {
            width,
            features: vec![0.0; rows * width],
            labels: vec![0.0; rows],
        }
    }

    /// Writes pool row `row`: its features, in order, and its label.
    fn write(&mut self, row: usize, features: impl Iterator<Item = f32>, label: f32) {
        let start = row - row % BATCH_SIZE;
        let batch_rows = (self.labels.len() - start).min(BATCH_SIZE);
        let batch = &mut self.features[start * self.width..][..batch_rows * self.width];
        for (lane, value) in batch.chunks_exact_mut(batch_rows).zip(features) {
            lane[row - start] = value;
        }
        self.labels[row] = label;
    }

    /// The mini-batches in pool order: each one's features and labels.
    fn batches(&self) -> impl Iterator<Item = (&[f32], &[f32])> {
        let features = self.features.chunks(BATCH_SIZE * self.width);
        features.zip(self.labels.chunks(BATCH_SIZE))
    }
}

/// Copies `from`'s weights and biases into `to`, a model of its shape.
fn copy_parameters(to: &mut Mlp, from: &Mlp) {
    for (to, from) in to.layers.iter_mut().zip(&from.layers) {
        to.weights.data_mut().copy_from_slice(from.weights.data());
        to.bias.copy_from_slice(&from.bias);
    }
}

/// Trains `model` in place on `data` and returns a report.
///
/// The model with the best validation loss is restored before returning.
///
/// # Panics
///
/// Panics if `data` is empty, its feature width does not match the model,
/// or the model does not have exactly one output.
pub fn train(model: &mut Mlp, data: &Dataset, config: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert_eq!(
        data.num_features(),
        model.num_inputs(),
        "dataset width must match the model input size"
    );
    assert_eq!(model.num_outputs(), 1, "training fits one output");
    let mut rng = StdRng::seed_from_u64(config.seed);
    // Stratified: the cut-classification task is heavily imbalanced, and a
    // plain shuffle split can leave the validation slice without a single
    // positive (making recall-driven early stopping and reporting
    // meaningless, e.g. the quickstart's 0 % recall at Tiny scale).
    let (mut train_split, mut valid_split) =
        data.split_stratified(VALIDATION_FRACTION, config.seed);
    if train_split.is_empty() || valid_split.is_empty() {
        train_split = (0..data.len()).collect();
        valid_split.clone_from(&train_split);
    }
    let gather = |split: &[usize]| -> (Vec<&[f32]>, Vec<f32>) {
        let examples = split
            .iter()
            .map(|&i| (&data.features()[i][..], data.labels()[i]));
        examples.unzip()
    };
    let (train_rows, train_labels) = gather(&train_split);
    let (valid_rows, valid_labels) = gather(&valid_split);

    let sampler = WeightedRandomSampler::balanced(&train_labels);
    let schedule = CosineAnnealingWarmRestarts::new(
        LEARNING_RATE,
        LEARNING_RATE * 1e-3,
        SCHEDULER_PERIOD,
        SCHEDULER_MULT,
    );
    let mut optimizer = Adam::new(LEARNING_RATE, model);
    let mut workspace = Workspace::new(model);
    let mixed = match train_rows.len() {
        0 | 1 => 0,
        n => ((n as f32) * MIXUP_FRACTION) as usize,
    };
    let mut pool = Pool::new(train_rows.len() + mixed, data.num_features());

    let mut best_loss = f32::INFINITY;
    let mut best_model = model.clone();
    let mut best_epoch = 0;
    let mut epochs_without_improvement = 0;
    let mut train_losses = Vec::new();
    let mut validation_losses = Vec::new();

    for epoch in 0..config.epochs {
        optimizer.set_learning_rate(schedule.learning_rate_at(epoch as f32));

        // This epoch's pool: the train split resampled to balanced classes,
        // then MixUp rows drawn from it.
        for row in 0..train_rows.len() {
            let i = sampler.draw(&mut rng);
            pool.write(row, train_rows[i].iter().copied(), train_labels[i]);
        }
        let mut mix_rng = StdRng::seed_from_u64(config.seed.wrapping_add(epoch as u64));
        for row in train_rows.len()..pool.labels.len() {
            let (i, j, lambda) = mix_pair(train_rows.len(), MIXUP_ALPHA, &mut mix_rng);
            let pair = train_rows[i].iter().zip(train_rows[j]);
            let label = mix(lambda, train_labels[i], train_labels[j]);
            pool.write(row, pair.map(|(&a, &b)| mix(lambda, a, b)), label);
        }

        // Mini-batch SGD over the pool.
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for batch in pool.batches() {
            epoch_loss += workspace.gradients(model, batch, config.loss);
            optimizer.step(model, &workspace.grads);
            batches += 1;
        }
        train_losses.push(epoch_loss / batches.max(1) as f32);

        // Validation.
        let valid_loss = config
            .loss
            .value(&model.predict(&valid_rows), &valid_labels);
        validation_losses.push(valid_loss);
        if valid_loss < best_loss {
            best_loss = valid_loss;
            copy_parameters(&mut best_model, model);
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
    let probabilities = model.predict(&valid_rows);
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

/// Feature rows laid out batch-major, as a training step reads its input.
#[cfg(test)]
pub(crate) fn batch_major<R: AsRef<[f32]>>(rows: &[R]) -> Vec<f32> {
    let width = rows.first().map_or(0, |row| row.as_ref().len());
    (0..width)
        .flat_map(|f| rows.iter().map(move |row| row.as_ref()[f]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Activation;
    use crate::matrix::Matrix;
    use proptest::prelude::*;
    use rand::Rng;

    /// The per-batch pipeline the fused step replaced, kept as its oracle:
    /// the batch as one row-major `Matrix` per layer (`forward_cached`),
    /// backpropagation into a gradient matrix per layer (`backward`), and an
    /// Adam step that computes every parameter's delta before subtracting
    /// it (`Adam::step`, `apply_update`).  Every product is the naive loop,
    /// each element summed from `0.0` in ascending order.
    struct Oracle {
        model: Mlp,
        steps: u64,
        /// First and second moments, shaped as the fused step's.
        m: Vec<[Vec<f32>; 2]>,
        v: Vec<[Vec<f32>; 2]>,
    }

    impl Oracle {
        fn new(model: Mlp) -> Self {
            let zeros = |layer: &crate::layer::Dense| {
                let weights = vec![0.0; layer.inputs() * layer.outputs()];
                [weights, vec![0.0; layer.outputs()]]
            };
            let m: Vec<_> = model.layers().iter().map(zeros).collect();
            Oracle {
                model,
                steps: 0,
                v: m.clone(),
                m,
            }
        }

        /// The batch's input followed by every layer's output.
        fn forward_cached(&self, input: Matrix) -> Vec<Matrix> {
            let mut activations = vec![input];
            for layer in self.model.layers() {
                let x = &activations[activations.len() - 1];
                let mut y = Matrix::zeros(x.rows(), layer.outputs());
                for i in 0..x.rows() {
                    for j in 0..layer.outputs() {
                        let mut sum = 0.0;
                        for k in 0..layer.inputs() {
                            sum += x.get(i, k) * layer.weights().get(k, j);
                        }
                        y.set(i, j, layer.activation().apply(sum + layer.bias()[j]));
                    }
                }
                activations.push(y);
            }
            activations
        }

        /// Each layer's weight and bias gradients.
        fn backward(&self, activations: &[Matrix], mut grad: Matrix) -> Vec<(Matrix, Vec<f32>)> {
            let mut grads = Vec::new();
            for (index, layer) in self.model.layers().iter().enumerate().rev() {
                let (x, y) = (&activations[index], &activations[index + 1]);
                let (rows, act) = (x.rows(), layer.activation());
                let mut pre = Matrix::zeros(rows, layer.outputs());
                for i in 0..rows {
                    for j in 0..layer.outputs() {
                        let derivative = act.derivative_from_output(y.get(i, j));
                        pre.set(i, j, grad.get(i, j) * derivative);
                    }
                }
                let mut dw = Matrix::zeros(layer.inputs(), layer.outputs());
                let mut input_grad = Matrix::zeros(rows, layer.inputs());
                for k in 0..layer.inputs() {
                    for j in 0..layer.outputs() {
                        let sum = (0..rows).fold(0.0, |sum, i| sum + x.get(i, k) * pre.get(i, j));
                        dw.set(k, j, sum);
                    }
                    for i in 0..rows {
                        let sum = (0..layer.outputs()).fold(0.0, |sum, j| {
                            sum + pre.get(i, j) * layer.weights().get(k, j)
                        });
                        input_grad.set(i, k, sum);
                    }
                }
                let db = (0..layer.outputs())
                    .map(|j| (0..rows).fold(0.0, |sum, i| sum + pre.get(i, j)))
                    .collect();
                grads.push((dw, db));
                grad = input_grad;
            }
            grads.reverse();
            grads
        }

        /// One step at learning rate `rate`; returns the batch's loss.
        fn step(&mut self, rows: &[Vec<f32>], targets: &[f32], loss: Loss, rate: f32) -> f32 {
            let activations = self.forward_cached(Matrix::from_rows(rows));
            let output = activations[activations.len() - 1].data();
            let batch_loss = loss.value(output, targets);
            let mut grad_output = vec![0.0; targets.len()];
            loss.gradient(output, targets, &mut grad_output);
            let grad_output = Matrix::from_vec(targets.len(), 1, grad_output);
            let grads = self.backward(&activations, grad_output);
            self.steps += 1;
            let t = self.steps as f32;
            let (beta1, beta2, epsilon) = (0.9f32, 0.999f32, 1e-8f32);
            let (c1, c2) = (1.0 - beta1.powf(t), 1.0 - beta2.powf(t));
            let adam = |g: &[f32], m: &mut [f32], v: &mut [f32]| -> Vec<f32> {
                (0..g.len())
                    .map(|idx| {
                        m[idx] = beta1 * m[idx] + (1.0 - beta1) * g[idx];
                        v[idx] = beta2 * v[idx] + (1.0 - beta2) * g[idx] * g[idx];
                        let m_hat = m[idx] / c1;
                        let v_hat = v[idx] / c2;
                        rate * m_hat / (v_hat.sqrt() + epsilon)
                    })
                    .collect()
            };
            let mut deltas = Vec::new();
            let moments = self.m.iter_mut().zip(&mut self.v);
            for ((dw, db), ([wm, bm], [wv, bv])) in grads.iter().zip(moments) {
                deltas.push((adam(dw.data(), wm, wv), adam(db, bm, bv)));
            }
            for (layer, (dw, db)) in self.model.layers.iter_mut().zip(deltas) {
                let weights = layer.weights.data_mut().iter_mut();
                weights.zip(dw).for_each(|(w, d)| *w -= d);
                layer.bias.iter_mut().zip(db).for_each(|(b, d)| *b -= d);
            }
            batch_loss
        }
    }

    /// Bit-identical, but for the payloads of `NaN`s (see `matrix`'s
    /// determinism contract).
    fn same(a: &[f32], b: &[f32]) -> bool {
        let bits = |(x, y): (&f32, &f32)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.len() == b.len() && a.iter().zip(b).all(bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Consecutive fused steps leave the weights, biases and Adam
        /// moments the oracle leaves, and report its batch losses, bit for
        /// bit: layers 1–16 wide under either activation, both losses, and
        /// batches of 1–64 rows.
        #[test]
        fn the_fused_step_matches_the_matrix_pipeline_bit_for_bit(
            widths in proptest::collection::vec(1usize..=16, 1..=4),
            sigmoid in (any::<bool>(), any::<bool>()),
            pos_weight in 0u32..30,
            batches in proptest::collection::vec(1usize..=64, 1..=4),
            seed in any::<u64>(),
        ) {
            let activation = |s| if s { Activation::Sigmoid } else { Activation::Relu };
            let sizes: Vec<usize> = widths.iter().copied().chain([1]).collect();
            let mut fused = Mlp::new(&sizes, activation(sigmoid.0), activation(sigmoid.1), seed);
            let loss = match pos_weight {
                0 => Loss::BinaryCrossEntropy,
                w => Loss::WeightedBce { pos_weight: w as f32 / 2.0 },
            };
            let mut workspace = Workspace::new(&fused);
            let mut adam = Adam::new(LEARNING_RATE, &fused);
            let mut oracle = Oracle::new(fused.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            for (step, &rows) in batches.iter().enumerate() {
                let batch: Vec<Vec<f32>> = (0..rows)
                    .map(|_| (0..sizes[0]).map(|_| rng.gen_range(-3.0..3.0f32)).collect())
                    .collect();
                let targets: Vec<f32> = (0..rows)
                    .map(|_| [0.0, 1.0, rng.gen_range(0.0..1.0f32)][rng.gen_range(0..3usize)])
                    .collect();
                let rate = LEARNING_RATE / (step + 1) as f32;
                adam.set_learning_rate(rate);
                let input = batch_major(&batch);
                let fused_loss = workspace.gradients(&fused, (&input, &targets), loss);
                adam.step(&mut fused, &workspace.grads);
                let oracle_loss = oracle.step(&batch, &targets, loss, rate);
                prop_assert!(same(&[fused_loss], &[oracle_loss]), "step {step}: loss");
                let layers = fused.layers().iter().zip(oracle.model.layers()).enumerate();
                for (index, (a, b)) in layers {
                    prop_assert!(same(a.weights().data(), b.weights().data()), "step {step}: W{index}");
                    prop_assert!(same(a.bias(), b.bias()), "step {step}: b{index}");
                    let fused_moments = adam.m[index].iter().chain(&adam.v[index]);
                    let moments = fused_moments.zip(oracle.m[index].iter().chain(&oracle.v[index]));
                    for (moment, (x, y)) in moments.enumerate() {
                        prop_assert!(same(x, y), "step {step}: layer {index} moment {moment}");
                    }
                }
            }
        }
    }

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
