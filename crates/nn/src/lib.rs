//! # elf-nn
//!
//! A minimal, dependency-free neural-network framework sized for the ELF use
//! case: training and deploying a 325-parameter feed-forward classifier whose
//! inference must be cheaper than resynthesizing a cut.
//!
//! The crate replaces the paper's PyTorch + ONNX Runtime stack with:
//!
//! * [`Matrix`], [`Dense`], [`Mlp`] — a small dense network and its batched
//!   inference kernel ([`Mlp::predict`]);
//! * [`Dataset`], [`Normalizer`] — labelled rows, mean–variance
//!   normalization and stratified validation splits;
//! * [`train`] — the paper's one training recipe, fixed in the crate: Adam at
//!   a base rate of 0.02 (the paper's 0.1 is unstable here), mini-batches of
//!   64, cosine annealing with warm restarts (first period 10 epochs, then
//!   doubling), each epoch's pool resampled to balanced classes plus 25 %
//!   MixUp examples (alpha 0.4), and early stopping with patience 10 on a
//!   stratified 20 % validation split.  [`TrainConfig`] sets only the epoch
//!   budget, the [`Loss`] and the seed.  Each mini-batch runs one fused
//!   step — forward, backpropagation and an in-place Adam update — on
//!   batch-major buffers sized once per run, bit-identical to the naive
//!   per-element loops;
//! * [`Loss`] — binary cross entropy and weighted BCE (the losses that did
//!   best in the paper's loss ablation).  Both are in use: the library
//!   default trains plain BCE, the `paper` harness `WeightedBce` with
//!   `pos_weight` 20, until one training config is chosen on held-out AUC;
//! * [`ConfusionMatrix`] — recall/accuracy reporting as in Tables VII/VIII.
//!
//! # Examples
//!
//! ```
//! use elf_nn::{train, Dataset, Mlp, TrainConfig};
//!
//! // A toy separable task with six features, like the cut features.
//! let mut data = Dataset::new();
//! for i in 0..200 {
//!     let x = (i % 10) as f32 / 10.0;
//!     data.push(vec![x, 1.0 - x, 0.5, x * x, 0.1, 0.9], x > 0.7);
//! }
//! let mut model = Mlp::paper_architecture(1);
//! let config = TrainConfig { epochs: 5, ..Default::default() };
//! let report = train(&mut model, &data, &config);
//! assert_eq!(report.train_losses.len(), report.epochs_run);
//! ```

mod data;
mod layer;
mod loss;
mod matrix;
mod metrics;
mod model;
mod optim;
mod serialize;
mod train;

pub use data::{Dataset, Normalizer, SharedNormalizer};
pub use layer::{Activation, Dense};
pub use loss::Loss;
pub use matrix::Matrix;
pub use metrics::ConfusionMatrix;
pub use model::{Mlp, SharedMlp};
pub use serialize::{model_from_text, model_to_text, ParseModelError};
pub use train::{train, TrainConfig, TrainReport};
