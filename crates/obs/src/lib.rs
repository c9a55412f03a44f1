//! # elf-obs
//!
//! Zero-dependency observability for the ELF stack: a lock-free
//! [`metrics`] registry (counters, gauges, log-bucketed latency
//! histograms with exact p50/p99/max readout, Prometheus-style text
//! exposition) and a [`trace`] facade (RAII [`span!`] guards, per-thread
//! ring buffers, `ELF_TRACE` gating, Chrome `trace_event` export with a
//! round-trip [`chrome`] parser).
//!
//! Everything here is built from `std` atomics — the offline build
//! constraint rules out `tracing`/`prometheus`, and the serving layer
//! rules out panics: nothing on a recording path locks, allocates
//! unboundedly, or unwraps.
//!
//! # Examples
//!
//! ```
//! use elf_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! {
//!     let _span = elf_obs::span!("rf", node_count = 42); // inert: ELF_TRACE unset
//!     registry.counter(elf_obs::names::FLOW_RUNS).inc();
//!     registry.histogram("elf_stage_runtime_us").record(1250);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters[elf_obs::names::FLOW_RUNS], 1);
//! assert_eq!(snap.histograms["elf_stage_runtime_us"].p50(), 1250); // single sample: exact
//! ```

pub mod chrome;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot};
pub use trace::{JobScope, Span};

/// The process-wide default [`Registry`] (shorthand for
/// [`Registry::global`]).
pub fn global() -> Registry {
    Registry::global()
}

/// Opens an RAII trace span: `span!("rf")`, `span!("rf", node_count = n)`.
///
/// Returns a [`trace::Span`] guard that records the span when dropped.
/// While tracing is disabled (no `ELF_TRACE`, no
/// [`trace::force_enable`]) the expansion is a branch and an inert guard —
/// no allocation, no clock read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::Span::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::Span::enter_with($name, vec![$((stringify!($key), $value as i64)),+])
        } else {
            $crate::trace::Span::disabled()
        }
    };
    ($name:expr, $($key:ident),+ $(,)?) => {
        $crate::span!($name, $($key = $key),+)
    };
}

/// Canonical metric names: one constant per family so call sites,
/// dashboards and the README table cannot drift apart.
///
/// Families ending in `_us` carry wall-clock microseconds and are excluded
/// from the cross-thread-count bit-equality contract (see
/// [`metrics::Snapshot::counter_space_diff`]); everything else is
/// counter-space deterministic.
pub mod names {
    /// Flow pipelines executed (counter).
    pub const FLOW_RUNS: &str = "elf_flow_runs_total";
    /// Per-stage wall-clock runtime (histogram, µs; label `stage`).
    pub const STAGE_RUNTIME_US: &str = "elf_stage_runtime_us";
    /// Resynthesized cuts committed per stage (counter; label `stage`).
    pub const STAGE_COMMITS: &str = "elf_stage_commits_total";
    /// Resynthesized cuts rejected per stage (counter; label `stage`).
    pub const STAGE_REJECTS: &str = "elf_stage_rejects_total";
    /// Cuts the classifier pruned before resynthesis (counter; label `stage`).
    pub const STAGE_PRUNED: &str = "elf_stage_cuts_pruned_total";
    /// Nodes visited per stage (counter; label `stage`).
    pub const STAGE_VISITED: &str = "elf_stage_nodes_visited_total";
    /// AND-node gain accumulated per stage (counter; label `stage`).
    pub const STAGE_GAIN: &str = "elf_stage_node_gain_total";
    /// Kept nodes of a batched pruned pass that were handed the window the
    /// feature sweep formed instead of forming their cut again (counter;
    /// label `stage`).
    pub const STAGE_WINDOWS_REUSED: &str = "elf_stage_windows_reused_total";

    /// Cut-cache lookup hits (counter).
    pub const CUT_CACHE_HITS: &str = "elf_cut_cache_hits_total";
    /// Cut-cache lookup misses (counter).
    pub const CUT_CACHE_MISSES: &str = "elf_cut_cache_misses_total";
    /// Canonical classes resident in the cut cache (gauge).
    pub const CUT_CACHE_ENTRIES: &str = "elf_cut_cache_entries";
    /// Canonical classes the cut cache stops growing at (gauge).
    pub const CUT_CACHE_CAPACITY: &str = "elf_cut_cache_capacity";

    /// SAT equivalence checks performed (counter).
    pub const VERIFY_CHECKS: &str = "elf_verify_checks_total";
    /// Wall-clock time per SAT equivalence check (histogram, µs).
    pub const VERIFY_US: &str = "elf_verify_us";
    /// SAT conflicts spent across all checks (counter).
    pub const SAT_CONFLICTS: &str = "elf_sat_conflicts_total";
    /// SAT queries issued across all checks (counter).
    pub const SAT_CALLS: &str = "elf_sat_calls_total";
    /// Checks that exhausted their conflict budget (counter).
    pub const VERIFY_UNDECIDED: &str = "elf_verify_undecided_total";
    /// Checks that ended in a counterexample (counter).
    pub const VERIFY_REFUTED: &str = "elf_verify_refuted_total";

    /// Jobs served to completion (counter).
    pub const JOBS_SERVED: &str = "elf_jobs_served_total";
    /// Jobs that died with a worker (counter).
    pub const JOBS_FAILED: &str = "elf_jobs_failed_total";
    /// Jobs shed at admission (counter; label `policy`).
    pub const JOBS_SHED: &str = "elf_jobs_shed_total";
    /// Admission-queue depth after the latest push/pop (gauge).
    pub const QUEUE_DEPTH: &str = "elf_queue_depth";
    /// Per-job admission-to-dequeue wait (histogram, µs).
    pub const QUEUE_WAIT_US: &str = "elf_queue_wait_us";
    /// Per-job dequeue-to-response service time (histogram, µs).
    pub const JOB_SERVICE_US: &str = "elf_job_service_us";
    /// Classifier forward passes run by served jobs (counter).
    pub const INFER_BATCHES: &str = "elf_inference_batches_total";
    /// Cuts decided by those forward passes (counter; label `model`).
    pub const INFER_ROWS: &str = "elf_inference_rows_total";
}

#[cfg(test)]
mod tests {
    #[test]
    fn span_macro_compiles_in_every_arity() {
        crate::trace::force_disable();
        let node_count = 3usize;
        let _a = crate::span!("plain");
        let _b = crate::span!("kv", nodes = 2 + 2);
        let _c = crate::span!("bare", node_count);
        let _d = crate::span!("multi", a = 1, b = node_count,);
    }
}
