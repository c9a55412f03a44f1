//! # elf-serve
//!
//! A long-lived serving layer for the ELF flow: the first step from the
//! paper's one-shot experiment harness toward a traffic-serving synthesis
//! system.
//!
//! An [`ElfService`] is constructed once from a trained
//! [`ElfClassifier`](elf_core::ElfClassifier) and amortizes it across many
//! independent circuit requests:
//!
//! * **Admission** — clients hold [`ServiceHandle`]s and
//!   [`submit`](ServiceHandle::submit) `(circuit, flow script)` jobs over a
//!   channel; scripts are the same ABC-style `"rf; rw; rs"` strings
//!   [`Flow::from_script`](elf_core::Flow::from_script) parses, with every
//!   stage classifier-pruned.  The queue is **bounded**
//!   ([`ServeConfig::queue_bound`]): a full queue follows the configured
//!   [`AdmissionPolicy`] — block for a slot (backpressure) or reject
//!   immediately.  Rejected jobs come back as
//!   [`SubmitError::Overloaded`] *with the circuit handed back*, and are
//!   counted in [`ServiceStats`].
//! * **Sharding** — a fixed set of long-lived worker threads (the
//!   [`ServeConfig::shards`] knob, following the workspace's
//!   [`Parallelism`](elf_par::Parallelism) convention) pulls jobs from one
//!   FIFO, each worker taking the oldest waiting job, so a giant circuit
//!   ties up only the worker that took it.  A worker runs its job's whole
//!   flow inline — [`Flow::run`](elf_core::Flow::run) on the flow built at
//!   submission, forward passes included — so graph mutation stays inside
//!   one worker, sequential per job.
//! * **The model plane** — the classifier lives in a versioned
//!   [`ModelRegistry`]: publish retrained versions, switch the default,
//!   retire old ones, all while the service runs.  Plain `submit` uses the
//!   current default; [`submit_with`](ServiceHandle::submit_with) selects a
//!   version per request.  Jobs **pin** their version at submission, so a
//!   hot-swap never perturbs in-flight work, and all model state travels by
//!   `Arc` — submitting allocates zero model-weight bytes.
//! * **Responses** — each handle owns a private response channel:
//!   [`recv`](ServiceHandle::recv)/[`try_recv`](ServiceHandle::try_recv)
//!   deliver [`JobResponse`]s (optimized AIG plus per-job [`ServeStats`]:
//!   pinned model version, queue depth, cache hits, timings, and the flow's
//!   own [`FlowStats`](elf_core::FlowStats)), in completion order, and
//!   [`outstanding`](ServiceHandle::outstanding) counts the jobs still
//!   owed.  Every job is answered even if its worker dies mid-job
//!   (the response arrives with [`JobResponse::failed`] set) — clients can
//!   never hang on a job that will not complete.
//! * **Shutdown** — [`ElfService::shutdown`] (or drop) closes admission,
//!   drains the queue, joins every thread and reports [`ServiceStats`].
//!
//! ## Determinism
//!
//! Serving is **per-job deterministic**: a job's output AIG is node-for-node
//! identical to running the same script offline through
//! [`Flow::pruned_from_script`](elf_core::Flow::pruned_from_script) with the
//! job's pinned classifier version and [`ElfService::options`] — for any
//! shard count, queue bound, admission policy, client thread count,
//! submission interleaving or concurrent registry swaps.  It holds by
//! construction, not by argument:
//!
//! 1. the served job *is* that offline flow — built by
//!    `Flow::pruned_from_script` at submission and run by one worker, with
//!    graph mutation sequential inside it;
//! 2. a job resolves its classifier version exactly once, at submission,
//!    and holds that `Arc` to completion — publish/retire/set-default can
//!    only affect *later* submissions.
//!
//! The same goes for the forward-pass counters
//! ([`ServiceStats::inference_batches`] and
//! [`inference_rows`](ServiceStats::inference_rows)): they are sums over
//! the jobs' own [`FlowStats`](elf_core::FlowStats), so they too are equal
//! for every shard and client count.  The queue bound and the admission
//! policy trade latency for memory only; results never move — shedding
//! changes *which* jobs run, never what an accepted job computes.
//!
//! # Examples
//!
//! Serve a burst of jobs and check one against the offline path:
//!
//! ```
//! use elf_aig::Aig;
//! use elf_core::{ElfClassifier, Flow};
//! use elf_nn::{Mlp, Normalizer};
//! use elf_par::Parallelism;
//! use elf_serve::{ElfService, ServeConfig};
//!
//! // An untrained classifier is enough to exercise the machinery.
//! let classifier = ElfClassifier::from_parts(
//!     Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
//!     Mlp::paper_architecture(5),
//!     0.5,
//! );
//! let config = ServeConfig { shards: Parallelism::threads(2), ..Default::default() };
//! let service = ElfService::start(classifier.clone(), config);
//! let mut handle = service.handle();
//!
//! let mut aig = Aig::new();
//! let inputs = aig.add_inputs(4);
//! let t0 = aig.and(inputs[0], inputs[1]);
//! let t1 = aig.and(inputs[0], inputs[2]);
//! let f = aig.or(t0, t1);
//! let g = aig.and(f, inputs[3]);
//! aig.add_output(g);
//!
//! for _ in 0..4 {
//!     handle.submit(aig.clone(), "rf; rw").unwrap();
//! }
//! let mut served = Vec::new();
//! while let Some(response) = handle.recv() {
//!     served.push(response);
//! }
//! assert_eq!(served.len(), 4);
//!
//! // Node-for-node identical to the offline pruned flow.
//! let mut offline = aig.clone();
//! Flow::pruned_from_script("rf; rw", &classifier, service.options())
//!     .unwrap()
//!     .run(&mut offline);
//! assert_eq!(served[0].aig.num_reachable_ands(), offline.num_reachable_ands());
//! service.shutdown();
//! ```
//!
//! Shed load instead of queueing it, keeping the circuit on rejection:
//!
//! ```
//! use elf_serve::{AdmissionPolicy, ServeConfig, SubmitError};
//!
//! let config = ServeConfig {
//!     queue_bound: 64,
//!     admission: AdmissionPolicy::Reject,
//!     ..Default::default()
//! };
//! // ... submit as usual; a full queue returns
//! // `SubmitError::Overloaded { circuit }` and the caller retries later:
//! fn retry_later(err: SubmitError) -> elf_aig::Aig {
//!     err.into_circuit()
//! }
//! # let _ = config;
//! ```

mod queue;
mod registry;
mod service;

pub use queue::AdmissionPolicy;
pub use registry::{ModelId, ModelRegistry};
pub use service::{
    ElfService, JobId, JobResponse, ServeConfig, ServeStats, ServiceHandle, ServiceStats,
    SubmitError,
};
// Convenience re-export: the verification knob lives in `elf-core`, but it
// is set through `ServeConfig`, so serving callers should not need an
// explicit `elf-core` dependency to switch it on.
pub use elf_core::VerifyMode;
