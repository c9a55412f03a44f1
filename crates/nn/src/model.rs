//! The multi-layer perceptron and its inference kernel.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layer::{Activation, Dense};

/// Rows [`Mlp::predict`] carries through the network at a time.
const BLOCK_ROWS: usize = 16;

/// The widest layer [`Mlp::predict`] runs in stack buffers (the paper's
/// network is 12 wide).
const STACK_WIDTH: usize = 16;

/// A cheaply-cloneable shared handle to trained [`Mlp`] weights.
///
/// Serving layers fan one trained model out to many flows, jobs and worker
/// threads; cloning the handle bumps a reference count instead of copying
/// the weight matrices, so a per-request clone allocates **zero** weight
/// bytes.  The weights behind a handle are immutable — retraining produces a
/// *new* model (and a new handle), which is what lets in-flight users keep
/// the exact version they started with.
pub type SharedMlp = std::sync::Arc<Mlp>;

/// A feed-forward neural network (multi-layer perceptron).
///
/// The ELF classifier is the 4-layer instance created by
/// [`Mlp::paper_architecture`]: shape `6 -> 12 -> 12 -> 6 -> 1` with ReLU
/// hidden activations and a sigmoid output, totalling 325 parameters.
///
/// # Examples
///
/// ```
/// use elf_nn::Mlp;
/// let model = Mlp::paper_architecture(42);
/// assert_eq!(model.num_params(), 325);
/// let probabilities = model.predict(&[[0.0f32; 6], [1.0; 6]]);
/// assert_eq!(probabilities.len(), 2);
/// assert!(probabilities.iter().all(|p| (0.0..=1.0).contains(p)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    pub(crate) layers: Vec<Dense>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, Xavier-initialized.
    ///
    /// `sizes` lists the width of every layer including input and output,
    /// e.g. `[6, 12, 12, 6, 1]`.  Hidden layers use `hidden` activation and
    /// the final layer uses `output` activation.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are provided.
    pub fn new(sizes: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for window in sizes.windows(2) {
            let is_last = layers.len() == sizes.len() - 2;
            let activation = if is_last { output } else { hidden };
            layers.push(Dense::xavier(window[0], window[1], activation, &mut rng));
        }
        Mlp { layers }
    }

    /// The exact architecture used by the paper: `6 -> 12 -> 12 -> 6 -> 1`
    /// (325 parameters), ReLU hidden activations, sigmoid output.
    pub fn paper_architecture(seed: u64) -> Self {
        Self::new(
            &[6, 12, 12, 6, 1],
            Activation::Relu,
            Activation::Sigmoid,
            seed,
        )
    }

    /// Builds a model from pre-constructed layers.
    pub fn from_layers(layers: Vec<Dense>) -> Self {
        Mlp { layers }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Number of input features expected by the network.
    pub fn num_inputs(&self) -> usize {
        self.layers.first().map_or(0, Dense::inputs)
    }

    /// Number of outputs produced by the network.
    pub fn num_outputs(&self) -> usize {
        self.layers.last().map_or(0, Dense::outputs)
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// A zero per parameter of each layer: its weights (row-major), then its
    /// biases — the shape of the gradients and moments training keeps.
    pub(crate) fn zeroed_parameters(&self) -> Vec<[Vec<f32>; 2]> {
        let zeros = |layer: &Dense| {
            [
                vec![0.0; layer.inputs() * layer.outputs()],
                vec![0.0; layer.outputs()],
            ]
        };
        self.layers.iter().map(zeros).collect()
    }

    /// Freezes the trained model into a [`SharedMlp`] handle.
    ///
    /// # Examples
    ///
    /// ```
    /// use elf_nn::Mlp;
    /// let shared = Mlp::paper_architecture(42).into_shared();
    /// let clone = std::sync::Arc::clone(&shared); // no weight copy
    /// assert!(std::sync::Arc::ptr_eq(&shared, &clone));
    /// ```
    pub fn into_shared(self) -> SharedMlp {
        std::sync::Arc::new(self)
    }

    /// Computes the network's first output for every feature row: the one
    /// inference kernel.
    ///
    /// Rows go through the network 16 at a time, each layer's values held
    /// feature-major (the block's rows side by side per feature) in two
    /// ping-pong buffers — on the stack while no layer is wider than 16,
    /// one heap buffer per call otherwise — so every multiply-add runs
    /// across the block's rows at once and inference allocates only the
    /// returned `Vec`.  Each value is accumulated as the training step's
    /// forward product accumulates it: from `0.0` over ascending inputs,
    /// then the bias, then the activation, so the probabilities equal the
    /// first output lane of training's forward pass bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if a row's length is not the network's input count.
    pub fn predict<R: AsRef<[f32]>>(&self, features: &[R]) -> Vec<f32> {
        let mut probabilities = Vec::with_capacity(features.len());
        let width = self
            .layers
            .iter()
            .map(|layer| layer.inputs().max(layer.outputs()))
            .fold(1, usize::max);
        let mut stack = [0.0f32; 2 * BLOCK_ROWS * STACK_WIDTH];
        let mut heap = Vec::new();
        let buffer: &mut [f32] = if width <= STACK_WIDTH {
            &mut stack
        } else {
            heap.resize(2 * BLOCK_ROWS * width, 0.0);
            &mut heap
        };
        let (mut input, mut output) = buffer.split_at_mut(buffer.len() / 2);
        let inputs = self.num_inputs();
        for block in features.chunks(BLOCK_ROWS) {
            for (r, row) in block.iter().enumerate() {
                let row = row.as_ref();
                assert_eq!(row.len(), inputs, "a row holds one value per input");
                for (k, &value) in row.iter().enumerate() {
                    input[k * BLOCK_ROWS + r] = value;
                }
            }
            for layer in &self.layers {
                let (weights, outputs) = (layer.weights.data(), layer.outputs());
                let lanes = output.chunks_exact_mut(BLOCK_ROWS);
                for ((j, lane), &bias) in lanes.enumerate().zip(&layer.bias) {
                    let mut acc = [0.0f32; BLOCK_ROWS];
                    let values = input.chunks_exact(BLOCK_ROWS);
                    for (x, row) in values.zip(weights.chunks_exact(outputs)) {
                        let w = row[j];
                        for (a, &x) in acc.iter_mut().zip(x) {
                            *a += x * w;
                        }
                    }
                    for (y, a) in lane.iter_mut().zip(acc) {
                        *y = a + bias;
                    }
                }
                layer
                    .activation()
                    .apply_all(&mut output[..outputs * BLOCK_ROWS]);
                std::mem::swap(&mut input, &mut output);
            }
            probabilities.extend_from_slice(&input[..block.len()]);
        }
        probabilities
    }

    /// Computes output probabilities with the batch split into row chunks
    /// that run on `parallelism` worker threads.
    ///
    /// Every output row of a dense forward pass depends only on the matching
    /// input row (and the accumulation order over the inner dimension is
    /// fixed), so chunking the batch changes nothing about the arithmetic:
    /// the result is **bit-identical** to [`Mlp::predict`] for any thread
    /// count and any chunking — the deterministic gather then restores the
    /// input row order.
    ///
    /// # Examples
    ///
    /// ```
    /// use elf_nn::Mlp;
    /// use elf_par::Parallelism;
    ///
    /// let model = Mlp::paper_architecture(42);
    /// let rows: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32 / 32.0; 6]).collect();
    /// let seq = model.predict(&rows);
    /// let par = model.predict_with(&rows, Parallelism::threads(4));
    /// assert_eq!(seq, par);
    /// ```
    pub fn predict_with<R: AsRef<[f32]> + Sync>(
        &self,
        features: &[R],
        parallelism: elf_par::Parallelism,
    ) -> Vec<f32> {
        let _span = elf_obs::span!("nn_forward", rows = features.len());
        if parallelism.is_sequential() || features.len() < 2 {
            return self.predict(features);
        }
        // One batched forward pass per chunk keeps the matrix-multiply
        // batching win; several chunks per worker keep the queue balanced.
        let chunk_len = features
            .len()
            .div_ceil(parallelism.num_threads() * 4)
            .max(1);
        let chunks: Vec<&[R]> = features.chunks(chunk_len).collect();
        parallelism
            .map(&chunks, |_, chunk| self.predict(chunk))
            .into_iter()
            .flatten()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Loss;
    use crate::train::{batch_major, Workspace};

    #[test]
    fn paper_architecture_has_325_params() {
        let model = Mlp::paper_architecture(7);
        assert_eq!(model.num_params(), 325);
        assert_eq!(model.num_inputs(), 6);
        assert_eq!(model.num_outputs(), 1);
        assert_eq!(model.layers().len(), 4);
    }

    #[test]
    fn forward_output_is_probability() {
        let model = Mlp::paper_architecture(3);
        let x = [vec![0.5; 6], vec![-1.0, 2.0, 0.0, 1.0, 3.0, -2.0]];
        let y = model.predict(&x);
        assert_eq!(y.len(), 2);
        for p in y {
            assert!((0.0..=1.0).contains(&p), "output {p} is not a probability");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Tiny network, tiny batch: compare analytic and numeric gradients.
        let mut model = Mlp::new(&[2, 3, 1], Activation::Relu, Activation::Sigmoid, 11);
        let rows = [vec![0.3, -0.7], vec![1.2, 0.4]];
        let targets = [1.0f32, 0.0];
        let loss = |model: &Mlp| -> f32 {
            let out = model.predict(&rows);
            let mut total = 0.0;
            for (&p, &t) in out.iter().zip(&targets) {
                let p = p.clamp(1e-6, 1.0 - 1e-6);
                total += -(t * p.ln() + (1.0 - t) * (1.0 - p).ln());
            }
            total / targets.len() as f32
        };
        // The training step's analytic gradients.
        let mut workspace = Workspace::new(&model);
        let input = batch_major(&rows);
        workspace.gradients(&model, (&input, &targets), Loss::BinaryCrossEntropy);

        // Numeric check on a handful of weights of the first layer.
        let eps = 1e-3;
        for &(r, c) in &[(0usize, 0usize), (1, 2), (0, 1)] {
            let base = model.layers[0].weights.get(r, c);
            model.layers[0].weights.set(r, c, base + eps);
            let plus = loss(&model);
            model.layers[0].weights.set(r, c, base - eps);
            let minus = loss(&model);
            model.layers[0].weights.set(r, c, base);
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = workspace.grads[0][0][r * 3 + c];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "gradient mismatch at ({r},{c}): numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn predict_handles_empty_input() {
        let model = Mlp::paper_architecture(1);
        let none: &[Vec<f32>] = &[];
        assert!(model.predict(none).is_empty());
        assert!(model
            .predict_with(none, elf_par::Parallelism::threads(4))
            .is_empty());
    }

    /// `predict` equals the first output lane of the training step's forward
    /// pass bit for bit at every batch size around the kernel's block, on
    /// the paper's network and on one, loaded from text, wider than the
    /// stack buffers.
    #[test]
    fn predict_equals_forward_bit_for_bit() {
        let wide = Mlp::new(&[6, 40, 17, 3], Activation::Relu, Activation::Sigmoid, 11);
        let wide = crate::model_from_text(&crate::model_to_text(&wide)).expect("a round trip");
        for model in [Mlp::paper_architecture(3), wide] {
            for rows in [0, 1, 2, 15, 16, 17, 40] {
                let batch: Vec<[f32; 6]> = (0..rows)
                    .map(|r| std::array::from_fn(|k| ((r * 7 + k * 5) % 13) as f32 / 2.5 - 2.0))
                    .collect();
                let vectors: Vec<Vec<f32>> = batch.iter().map(|row| row.to_vec()).collect();
                let predicted: Vec<u32> =
                    model.predict(&batch).iter().map(|p| p.to_bits()).collect();
                let expected: Vec<u32> = if rows == 0 {
                    Vec::new()
                } else {
                    let mut workspace = Workspace::new(&model);
                    workspace.forward(&model, &batch_major(&vectors), rows);
                    let out = workspace.outputs.last().expect("the output layer");
                    out[..rows].iter().map(|p| p.to_bits()).collect()
                };
                assert_eq!(predicted, expected, "{rows} rows");
                let from_vectors: Vec<u32> = model
                    .predict(&vectors)
                    .iter()
                    .map(|p| p.to_bits())
                    .collect();
                assert_eq!(from_vectors, expected, "{rows} rows");
            }
        }
    }

    #[test]
    fn chunked_prediction_is_bit_identical() {
        let model = Mlp::paper_architecture(17);
        let rows: Vec<Vec<f32>> = (0..123)
            .map(|i| (0..6).map(|j| ((i * 7 + j) as f32).sin()).collect())
            .collect();
        let sequential: Vec<u32> = model.predict(&rows).iter().map(|p| p.to_bits()).collect();
        for threads in [1, 2, 3, 7] {
            let parallel: Vec<u32> = model
                .predict_with(&rows, elf_par::Parallelism::threads(threads))
                .iter()
                .map(|p| p.to_bits())
                .collect();
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = Mlp::paper_architecture(123);
        let b = Mlp::paper_architecture(123);
        let c = Mlp::paper_architecture(124);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
