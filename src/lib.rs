//! # elf
//!
//! Facade crate of the ELF reproduction: **E**fficient **L**ogic synthesis by
//! pruning redundancy in re**F**actoring (Tsaras et al., DAC 2025).
//!
//! ELF observes that the ABC `refactor` operator wastes ~98 % of its time
//! resynthesizing cuts that never improve, and prunes those cuts with a
//! 325-parameter classifier over six structural cut features, obtaining a
//! multi-x speed-up at negligible area cost.  This workspace re-builds the
//! whole stack from scratch in Rust:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`aig`] (`elf-aig`) | And-Inverter Graph, structural hashing, MFFC, simulation, AIGER I/O, reconvergence-driven cuts and cut features |
//! | [`sop`] (`elf-sop`) | Truth tables, irredundant SOP (Minato–Morreale), algebraic factoring |
//! | [`opt`] (`elf-opt`) | Refactor, rewrite and resubstitution as per-node steps behind the `PrunableOperator` trait and its one pass loop, all reporting `OpStats` |
//! | [`nn`] (`elf-nn`) | Minimal MLP framework and one training recipe (Adam at 0.02, batches of 64, cosine warm restarts every 10 → 20 → … epochs, balanced resampling, 25 % MixUp at alpha 0.4, patience-10 early stopping on a stratified 20 % split); a run sets only epochs, loss (plain BCE by default, `WeightedBce` 20 in the `paper` harness) and seed |
//! | [`par`] (`elf-par`) | Deterministic std-threads parallel engine (scoped pool, chunked queue, order-preserving gather) |
//! | [`core`] (`elf-core`) | The ELF classifier, the generic pruned operator `Elf<O>`, script-style `Flow` pipelines and the experiment protocol |
//! | [`serve`] (`elf-serve`) | Long-lived `ElfService`: one bounded FIFO that blocks or rejects when full, shard workers running each job's flow inline, versioned hot-swap `ModelRegistry`, channel request/response API |
//! | [`cec`] (`elf-cec`) | SAT-based combinational equivalence checking: a zero-dependency CDCL solver, miter construction, fraig-style simulation-guided SAT sweeping — the correctness gate behind `core::VerifyMode` |
//! | [`obs`] (`elf-obs`) | Zero-dependency observability: lock-free counters/gauges/log-bucketed latency histograms with a Prometheus text scrape, plus `ELF_TRACE`-gated tracing spans exported as Chrome `trace_event` JSON |
//! | [`circuits`] (`elf-circuits`) | EPFL-style arithmetic, industrial-like and synthetic workload generators |
//!
//! The operator layer is a small type algebra: every operator implements
//! `opt::PrunableOperator` by supplying its per-node resynthesis step and
//! its feature window; the trait's one pass loop provides the plain,
//! recording and batched runs (all returning `opt::OpStats`) and
//! batch feature collection, `core::Elf<O>` wraps any operator with a
//! trained classifier (`core::ElfRefactor` = `Elf<Refactor>` is the paper's
//! operator), and `core::Flow` composes plain and pruned stages into
//! ABC-script-style pipelines.
//!
//! # Examples
//!
//! Accelerate refactoring of a freshly generated multiplier:
//!
//! ```
//! use elf::circuits::epfl::{arithmetic_circuit, Scale};
//! use elf::core::{circuit_dataset, ElfClassifier, ElfConfig, ElfRefactor};
//! use elf::nn::TrainConfig;
//! use elf::opt::RefactorParams;
//!
//! // Train on a small squarer, prune refactoring of a small multiplier.
//! let trainer = arithmetic_circuit("square", Scale::Tiny);
//! let data = circuit_dataset(&trainer, &RefactorParams::default());
//! let (classifier, _) = ElfClassifier::fit(
//!     &data,
//!     &TrainConfig { epochs: 3, ..Default::default() },
//!     7,
//! );
//!
//! let mut target = arithmetic_circuit("multiplier", Scale::Tiny);
//! let elf = ElfRefactor::new(classifier, ElfConfig::default());
//! let stats = elf.run(&mut target);
//! assert!(stats.prune_rate() >= 0.0);
//! ```
//!
//! Compose a script-style pipeline, optionally mixing in pruned stages:
//!
//! ```
//! use elf::circuits::epfl::{arithmetic_circuit, Scale};
//! use elf::core::Flow;
//! use elf::opt::RefactorParams;
//!
//! let mut aig = arithmetic_circuit("sqrt", Scale::Tiny);
//! let before = aig.num_reachable_ands();
//!
//! // `rf; rw; rs`, ABC-script style...
//! let stats = Flow::from_script("rf; rw; rs").unwrap().run(&mut aig);
//! assert_eq!(stats.ands_before, before);
//! assert!(stats.ands_after <= before);
//!
//! // ...or explicitly, with per-stage parameters.
//! let flow = Flow::new()
//!     .refactor(RefactorParams::default())
//!     .rewrite()
//!     .resub();
//! assert_eq!(flow.stage_names(), vec!["refactor", "rewrite", "resub"]);
//! ```
//!
//! Serve circuits from a long-lived [`serve::ElfService`] — a fixed shard of
//! worker threads behind a **bounded** admission queue
//! ([`serve::ServeConfig::queue_bound`], with a block-or-reject
//! [`serve::AdmissionPolicy`] on overload that always hands the circuit
//! back), sharing classifiers through a versioned hot-swap
//! [`serve::ModelRegistry`] ([`serve::ServiceHandle::submit_with`] selects a
//! version per request), with each worker running its job's whole flow
//! inline on the version pinned at submit — all weights behind `Arc` so
//! submitting allocates zero model bytes.  Results are per-job
//! deterministic: node-for-node identical to the offline
//! [`core::Flow::pruned_from_script`] path with the job's pinned version,
//! for any shard count, admission policy, registry activity or client
//! interleaving:
//!
//! ```
//! use elf::circuits::epfl::{arithmetic_circuit, Scale};
//! use elf::core::{ElfClassifier, Flow};
//! use elf::nn::{Mlp, Normalizer};
//! use elf::par::Parallelism;
//! use elf::serve::{ElfService, ServeConfig};
//!
//! let classifier = ElfClassifier::from_parts(
//!     Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
//!     Mlp::paper_architecture(5),
//!     0.5,
//! );
//! let config = ServeConfig { shards: Parallelism::threads(2), ..Default::default() };
//! let service = ElfService::start(classifier.clone(), config);
//!
//! // Fire a small burst through one client handle and collect it back.
//! let mut handle = service.handle();
//! let source = arithmetic_circuit("square", Scale::Tiny);
//! let id = handle.submit(source.clone(), "rf; rw").unwrap();
//! let response = handle.recv().expect("one job outstanding");
//! assert_eq!(response.job_id, id);
//!
//! // The served result equals the offline pruned flow, node for node.
//! let mut offline = source.clone();
//! Flow::pruned_from_script("rf; rw", &classifier, service.options())
//!     .unwrap()
//!     .run(&mut offline);
//! assert_eq!(
//!     elf::aig::aiger::to_ascii(&response.aig),
//!     elf::aig::aiger::to_ascii(&offline),
//! );
//! assert_eq!(service.shutdown().jobs_served, 1);
//! ```
//!
//! Prove (by SAT, not simulation) that an optimization preserved the
//! circuit's function, either standalone through [`cec`] or as a flow-level
//! gate through [`core::VerifyMode`]:
//!
//! ```
//! use elf::cec::check_equivalence;
//! use elf::circuits::epfl::{arithmetic_circuit, Scale};
//! use elf::core::{Flow, VerifyMode};
//!
//! let mut aig = arithmetic_circuit("square", Scale::Tiny);
//! let golden = aig.clone();
//!
//! let stats = Flow::from_script("rf; rw").unwrap()
//!     .with_verify(VerifyMode::Final)
//!     .run(&mut aig);
//! assert!(stats.verify.unwrap().proved());
//!
//! // The standalone checker agrees (and would hand back a concrete
//! // counterexample input vector if it did not).
//! assert!(check_equivalence(&golden, &aig).is_proved());
//! ```

pub use elf_aig as aig;
pub use elf_cec as cec;
pub use elf_circuits as circuits;
pub use elf_core as core;
pub use elf_nn as nn;
pub use elf_obs as obs;
pub use elf_opt as opt;
pub use elf_par as par;
pub use elf_serve as serve;
pub use elf_sop as sop;
