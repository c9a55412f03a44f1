//! `elf-perf`: the repository's benchmark.
//!
//! One process runs one workload: it builds every input from `--seed`,
//! measures for `--seconds` with tracing off (`--trace 0`, the end-to-end
//! metrics) or probes every layer with tracing on (`--trace 1`, the
//! per-layer metrics), checks every output, and prints one JSON line.
//! `elf-perf run` does that for all four workloads and writes one result
//! file; `elf-perf compare` sets two such files side by side.
//!
//! The benchmark calls public functions of the layer crates only.  See
//! `README.md` for the workloads, the metric glossary and how the layers
//! are expected to move the end-to-end numbers.

pub mod bench;
pub mod check;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod serving;
pub mod stats;
pub mod workloads;
