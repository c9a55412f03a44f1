//! Metrics-determinism twins: observability must never leak nondeterminism.
//!
//! Two contracts, each checked end to end through `Flow`:
//!
//! 1. **Result transparency** — attaching a metrics registry (or not)
//!    changes nothing about the optimized circuit: node-for-node identical
//!    structure with metrics on, off, and at any thread count.
//! 2. **Counter-space determinism** — for a fixed workload, every counter
//!    and every non-wall-clock histogram (count, sum, buckets) is
//!    bit-identical across `ELF_THREADS=1` and `ELF_THREADS=4` runs.  Only
//!    wall-clock samples (families ending `_us`) may differ, and those are
//!    still compared by sample *count*.

use elf_aig::Aig;
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{ElfClassifier, ElfOptions, Flow, Parallelism, VerifyMode, DEFAULT_THRESHOLD};
use elf_nn::{Mlp, Normalizer};
use elf_obs::metrics::{Registry, Snapshot};
use elf_obs::names;

/// An untrained classifier with hand-set statistics and a mid threshold:
/// deterministic, and it genuinely prunes some cuts while keeping others.
fn mixed_classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

fn workload_circuit() -> Aig {
    let script: Vec<GateChoice> = (0..40)
        .map(|i| (i as u8, 3 * i + 1, 5 * i + 2, 7 * i + 3))
        .collect();
    scripted_circuit(6, &script)
}

/// One reachable AND gate: `(id, fanin0, compl0, fanin1, compl1)`.
type Gate = (u32, u32, bool, u32, bool);

/// Exact structural fingerprint: every reachable AND with its fanins, plus
/// the outputs.
fn structure(aig: &Aig) -> Vec<Gate> {
    aig.topological_order()
        .into_iter()
        .map(|id| {
            let (f0, f1) = aig.fanins(id);
            (
                id.index(),
                f0.node().index(),
                f0.is_complemented(),
                f1.node().index(),
                f1.is_complemented(),
            )
        })
        .collect()
}

/// Runs the fixed workload at `threads`, recording into a fresh isolated
/// registry; returns the optimized structure and the metrics snapshot.
fn run_metered(threads: usize) -> (Vec<Gate>, Snapshot) {
    let registry = Registry::new();
    let classifier = mixed_classifier();
    let mut aig = workload_circuit();
    Flow::pruned_from_script("rf; rw; rs", &classifier, ElfOptions::default())
        .expect("script parses")
        .with_verify(VerifyMode::Final)
        .with_parallelism(Parallelism::threads(threads))
        .with_metrics(registry.clone())
        .run(&mut aig);
    (structure(&aig), registry.snapshot())
}

#[test]
fn counter_space_metrics_are_bit_identical_across_thread_counts() {
    let (structure_1, snapshot_1) = run_metered(1);
    let (structure_4, snapshot_4) = run_metered(4);

    // The workload itself is deterministic across thread counts...
    assert_eq!(structure_1, structure_4);

    // ...and so is everything the registry recorded, outside wall-clock
    // sample values.  `counter_space_diff` reports every violating series.
    let diff = snapshot_1.counter_space_diff(&snapshot_4);
    assert!(
        diff.is_empty(),
        "metrics diverged across thread counts:\n{}",
        diff.join("\n")
    );
    assert!(snapshot_1.counter_space_eq(&snapshot_4));

    // The twin is only meaningful if the run actually recorded something.
    assert_eq!(snapshot_1.counters.get(names::FLOW_RUNS), Some(&1));
    assert!(
        snapshot_1
            .counters
            .keys()
            .any(|name| name.starts_with(names::STAGE_VISITED)),
        "per-stage counters missing from the snapshot"
    );
    // The batched stages handed kept nodes their sweep windows, as many at
    // one thread as at four (the diff above covers every series; this pins
    // that the family is recorded and non-trivial).
    let reused = |snapshot: &Snapshot| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(names::STAGE_WINDOWS_REUSED))
            .map(|(_, &count)| count)
            .sum()
    };
    assert!(reused(&snapshot_1) > 0, "no window reused");
    assert_eq!(reused(&snapshot_1), reused(&snapshot_4));
    assert_eq!(snapshot_1.counters.get(names::VERIFY_CHECKS), Some(&1));
    // The check proved the flow's output: nothing refuted, nothing undecided
    // (`pipeline.rs`'s unit tests hold the refuted twin — only there can the
    // gate be handed a broken output).
    assert_eq!(snapshot_1.counters.get(names::VERIFY_REFUTED), Some(&0));
    assert_eq!(snapshot_1.counters.get(names::VERIFY_UNDECIDED), Some(&0));
    assert!(
        snapshot_1
            .histograms
            .keys()
            .any(|name| name.starts_with(names::STAGE_RUNTIME_US)),
        "stage runtime histograms missing from the snapshot"
    );
}

#[test]
fn attaching_metrics_never_changes_the_optimized_circuit() {
    let classifier = mixed_classifier();

    let mut plain = workload_circuit();
    Flow::pruned_from_script("rf; rw; rs", &classifier, ElfOptions::default())
        .expect("script parses")
        .run(&mut plain);

    let registry = Registry::new();
    let mut metered = workload_circuit();
    Flow::pruned_from_script("rf; rw; rs", &classifier, ElfOptions::default())
        .expect("script parses")
        .with_metrics(registry.clone())
        .run(&mut metered);

    assert_eq!(structure(&plain), structure(&metered));
    // And the metered run did record its stages.
    assert_eq!(registry.snapshot().counters.get(names::FLOW_RUNS), Some(&1));
}

#[test]
fn wall_clock_families_are_compared_by_count_only() {
    // Build two snapshots whose `_us` histograms hold different sample
    // values but the same sample count: counter-space equal.  Then break the
    // count and watch the diff report it.
    let a = Registry::new();
    let b = Registry::new();
    a.histogram("elf_demo_us").record(10);
    b.histogram("elf_demo_us").record(99_999);
    assert!(a.snapshot().counter_space_eq(&b.snapshot()));

    b.histogram("elf_demo_us").record(1);
    let diff = a.snapshot().counter_space_diff(&b.snapshot());
    assert_eq!(diff.len(), 1, "unexpected diff: {diff:?}");
    assert!(diff[0].contains("elf_demo_us"));
}
