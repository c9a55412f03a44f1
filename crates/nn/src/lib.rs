//! # elf-nn
//!
//! A minimal, dependency-free neural-network framework sized for the ELF use
//! case: training and deploying a 325-parameter feed-forward classifier whose
//! inference must be cheaper than resynthesizing a cut.
//!
//! The crate replaces the paper's PyTorch + ONNX Runtime stack with:
//!
//! * [`Matrix`], [`Dense`], [`Mlp`] — a small dense network with manual
//!   backpropagation and batched inference;
//! * [`Loss`] — binary cross entropy and weighted BCE (the losses that did
//!   best in the paper's loss ablation);
//! * [`Adam`] and [`CosineAnnealingWarmRestarts`] — the paper's optimizer and
//!   learning-rate schedule;
//! * [`Dataset`], [`Normalizer`], [`WeightedRandomSampler`], [`mixup`] — the
//!   data pipeline (mean–variance normalization, balanced resampling, MixUp
//!   augmentation, stratified validation splits);
//! * [`train`] — the training loop with early stopping;
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

pub use data::{mixup, Dataset, Normalizer, SharedNormalizer, WeightedRandomSampler};
pub use layer::{Activation, Dense};
pub use loss::Loss;
pub use matrix::Matrix;
pub use metrics::ConfusionMatrix;
pub use model::{Gradients, Mlp, SharedMlp};
pub use optim::{Adam, CosineAnnealingWarmRestarts};
pub use serialize::{model_from_text, model_to_text, ParseModelError};
pub use train::{train, TrainConfig, TrainReport};
