//! # elf-core
//!
//! ELF — Efficient Logic synthesis by pruning redundancy in reFactoring.
//!
//! This crate is the paper's primary contribution: a lightweight learned
//! classifier that predicts, from six structural cut features, whether an
//! operator will succeed at a node, and an operator wrapper that skips
//! (prunes) the nodes predicted to fail.  Because only ~0.05–10.8 % of
//! cuts are ever committed, pruning the rest removes most of the operator's
//! runtime at negligible quality cost.
//!
//! The pieces:
//!
//! * [`ElfClassifier`] — mean–variance normalization fused with the paper's
//!   325-parameter MLP, trained in batch.  One method,
//!   [`ElfClassifier::classify`], makes every keep/prune decision:
//!   standardize one circuit's batch with its own statistics, run the
//!   forward pass, threshold.  Pruned passes and
//!   [`ElfClassifier::evaluate`] (Tables VII and VIII) both call it;
//! * [`circuit_dataset`] / [`collect_labeled_cuts_with`] — training-data
//!   collection by running a baseline [`elf_opt::PrunableOperator`] in
//!   recording mode;
//! * [`Elf`] — the pruned operator (Algorithm 2), generic over the wrapped
//!   operator: collect features for every cut, classify the whole batch
//!   once, then resynthesize only the surviving nodes.  [`ElfRefactor`]
//!   (= `Elf<Refactor>`) is the paper's instantiation; `Elf<Rewrite>` is the
//!   conclusion's first extension target;
//! * [`Flow`] — script-style pipelines (`rf; rw; rs`).  A stage is an
//!   operator plus an optional classifier, so plain and pruned stages mix
//!   freely; a pruned stage runs the very pass [`Elf::run`] runs.  The flow
//!   holds one thread count and, optionally, one cut cache shared by every
//!   stage, and reports uniform per-stage [`FlowStats`];
//! * [`VerifyMode`] — the correctness gate: a [`Flow`] built with
//!   [`Flow::with_verify`] SAT-proves (via `elf-cec`) that a run preserved
//!   the circuit's function, per stage or end to end, with the verdict
//!   reported in [`FlowStats::verify`].  `Flow` is the only place that
//!   verifies: a standalone [`Elf`] pass checks nothing;
//! * [`experiment`] — the leave-one-out protocol ([`Suite`], generic over the
//!   operator), baseline-vs-ELF comparison rows and classifier quality
//!   metrics that regenerate the paper's tables.
//!
//! # Examples
//!
//! Train on a set of circuits and accelerate refactoring of another:
//!
//! ```
//! use elf_aig::Aig;
//! use elf_core::{circuit_dataset, ElfClassifier, ElfConfig, ElfRefactor};
//! use elf_nn::TrainConfig;
//! use elf_opt::RefactorParams;
//!
//! // A tiny training circuit with redundant logic.
//! let mut train_aig = Aig::new();
//! let inputs = train_aig.add_inputs(4);
//! let t0 = train_aig.and(inputs[0], inputs[1]);
//! let t1 = train_aig.and(inputs[0], inputs[2]);
//! let f = train_aig.or(t0, t1);
//! let g = train_aig.and(f, inputs[3]);
//! train_aig.add_output(g);
//!
//! let data = circuit_dataset(&train_aig, &RefactorParams::default());
//! let config = TrainConfig { epochs: 3, ..Default::default() };
//! let (classifier, _) = ElfClassifier::fit(&data, &config, 7);
//!
//! let mut target = train_aig.clone();
//! let elf = ElfRefactor::new(classifier, ElfConfig::default());
//! let stats = elf.run(&mut target);
//! assert_eq!(stats.pruned + stats.kept, stats.op.cuts_formed);
//! ```
//!
//! Compose a script-style pipeline mixing plain and pruned operators:
//!
//! ```
//! use elf_aig::Aig;
//! use elf_core::Flow;
//!
//! let mut aig = Aig::new();
//! let inputs = aig.add_inputs(3);
//! let t0 = aig.and(inputs[0], inputs[1]);
//! let t1 = aig.and(inputs[0], inputs[2]);
//! let f = aig.or(t0, t1);
//! aig.add_output(f);
//!
//! let stats = Flow::from_script("rf; rw; rs").unwrap().run(&mut aig);
//! assert!(stats.ands_after <= stats.ands_before);
//! ```

mod classifier;
mod dataset;
pub mod experiment;
mod flow;
mod pipeline;
mod verify;

pub use classifier::{ElfClassifier, ParseClassifierError, DEFAULT_THRESHOLD, RECALL_TARGET};
pub use dataset::{
    circuit_dataset, collect_labeled_cuts, collect_labeled_cuts_with, cuts_to_arrays,
    cuts_to_dataset, standardize_per_circuit, BenchCircuit,
};
pub use experiment::{
    circuit_stats, compare_with_operator, CircuitStatsRow, ComparisonRow, ExperimentConfig,
    QualityRow, Suite,
};
pub use flow::{Elf, ElfConfig, ElfOptions, ElfRefactor, ElfStats};
pub use pipeline::{Flow, FlowStats, ParseFlowError, StageStats};
pub use verify::{VerifyCheck, VerifyMode, VerifyOutcome};
// Convenience re-export: the equivalence verdict carried by
// [`VerifyCheck::result`], so callers inspecting counterexamples need no
// explicit `elf-cec` dependency.
pub use elf_cec::Equivalence;
// Convenience re-export: the parallelism knob lives inside `ElfConfig`,
// `ElfOptions` and `Flow`, so callers configuring it should not need an
// explicit `elf-par` dependency.
pub use elf_par::Parallelism;
// Convenience re-export: the cut-factoring cache knob lives inside
// `ElfConfig`/`ElfOptions` and the handle attaches through
// `Flow::with_cut_cache`, so callers sizing or sharing it should not need
// an explicit `elf-opt` dependency.
pub use elf_opt::{CutCache, CutCacheConfig, CutCacheStats};
