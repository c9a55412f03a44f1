//! Concurrency test layer, flow side: classifier-pruned passes driven by the
//! `elf-par` engine must behave **identically** at every thread count —
//! identical prune decisions, identical statistics, and node-for-node
//! identical result AIGs — and repeated parallel runs must land on the same
//! simulation fingerprint every time.
//!
//! Graph mutation is sequential by construction (only collection and
//! classification fan out), so any divergence these tests catch is a
//! nondeterministic merge in the parallel engine, not a scheduling accident
//! being tolerated.

use elf_aig::{check_equivalence, simulation_signature, Aig, EquivalenceResult};
use elf_circuits::{script_strategy, scripted_circuit, GateChoice};
use elf_core::{Elf, ElfClassifier, ElfOptions, ElfStats, Flow, Parallelism, DEFAULT_THRESHOLD};
use elf_nn::{Mlp, Normalizer};
use elf_opt::{PrunableOperator, Refactor, Resubstitution, Rewrite};
use proptest::prelude::*;

/// Thread counts exercised by the equivalence properties.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// An untrained classifier with hand-set statistics and a mid threshold:
/// deterministic, and it genuinely prunes some cuts while keeping others.
fn mixed_classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

/// One AND node of a structural fingerprint: id plus both fanin literals.
type StructuralNode = (u32, u32, bool, u32, bool);

/// Exact structural fingerprint: every reachable AND node (in topological
/// order) with its fanin literals, plus the output literals.  Two graphs
/// with equal structure are the same network node for node.
fn structure(aig: &Aig) -> (Vec<StructuralNode>, Vec<(u32, bool)>) {
    let nodes = aig
        .topological_order()
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
        .collect();
    let outputs = aig
        .outputs()
        .iter()
        .map(|lit| (lit.node().index(), lit.is_complemented()))
        .collect();
    (nodes, outputs)
}

/// Runs one pruned pass sequentially and at every parallel thread count and
/// asserts identical decisions, statistics and result networks.
fn check_elf_determinism<O: PrunableOperator + Clone>(operator: O, source: &Aig) {
    let elf = |parallelism| {
        let options = ElfOptions {
            parallelism,
            ..ElfOptions::default()
        };
        Elf::with_operator(mixed_classifier(), operator.clone(), options)
    };

    let mut sequential_aig = source.clone();
    let sequential_stats = elf(Parallelism::sequential()).run(&mut sequential_aig);
    let sequential_structure = structure(&sequential_aig);

    for threads in THREAD_COUNTS {
        let mut parallel_aig = source.clone();
        let parallel_stats: ElfStats = elf(Parallelism::threads(threads)).run(&mut parallel_aig);
        assert_eq!(
            (sequential_stats.pruned, sequential_stats.kept),
            (parallel_stats.pruned, parallel_stats.kept),
            "{}: prune decisions diverged at {threads} threads",
            O::NAME
        );
        assert_eq!(
            sequential_stats.op.cuts_committed,
            parallel_stats.op.cuts_committed,
            "{}: commits diverged at {threads} threads",
            O::NAME
        );
        assert_eq!(
            sequential_structure,
            structure(&parallel_aig),
            "{}: result AIG diverged at {threads} threads",
            O::NAME
        );
        assert!(parallel_aig.check_invariants().is_empty());
    }
    assert_eq!(
        check_equivalence(source, &sequential_aig, 16, 61),
        EquivalenceResult::Equivalent
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Headline equivalence property: pruned Refactor / Rewrite /
    /// Resubstitution produce identical prune decisions and node-for-node
    /// identical AIGs at 1, 2, 3 and 7 threads.
    #[test]
    fn pruned_passes_are_deterministic_across_thread_counts(script in script_strategy(28)) {
        let source = scripted_circuit(5, &script);
        check_elf_determinism(Refactor::default(), &source);
        check_elf_determinism(Rewrite::default(), &source);
        check_elf_determinism(Resubstitution, &source);
    }
}

/// A denser fixed circuit for the repeated-run stress test.
fn stress_circuit() -> Aig {
    let script: Vec<GateChoice> = (0..48)
        .map(|i| (i as u8, 3 * i + 1, 5 * i + 2, 7 * i + 3))
        .collect();
    scripted_circuit(7, &script)
}

/// Repeated-run determinism: the same pruned `rf; rw; rs` flow, run ten
/// times at max threads, must hash to the same simulation fingerprint every
/// time — the kind of nondeterministic merge a single-run comparison misses.
#[test]
fn stress_repeated_parallel_flow_runs_hash_identically() {
    let source = stress_circuit();
    let max_threads = Parallelism::threads(8);
    let flow = Flow::pruned_from_script("rf; rw; rs", &mixed_classifier(), ElfOptions::default())
        .expect("script parses")
        .with_parallelism(max_threads);

    // Reference: the identical flow forced sequential.
    let mut reference_aig = source.clone();
    let sequential =
        Flow::pruned_from_script("rf; rw; rs", &mixed_classifier(), ElfOptions::default())
            .expect("script parses")
            .with_parallelism(Parallelism::sequential());
    sequential.run(&mut reference_aig);
    let reference = simulation_signature(&reference_aig, 8, 0xE1F);

    for run in 0..10 {
        let mut aig = source.clone();
        let stats = flow.run(&mut aig);
        assert_eq!(stats.stages.len(), 3, "run {run}");
        let signature = simulation_signature(&aig, 8, 0xE1F);
        assert_eq!(
            signature, reference,
            "run {run} diverged from the sequential reference"
        );
        assert_eq!(structure(&aig), structure(&reference_aig), "run {run}");
        assert!(aig.check_invariants().is_empty(), "run {run}");
    }
    assert_eq!(
        check_equivalence(&source, &reference_aig, 16, 77),
        EquivalenceResult::Equivalent
    );
}

/// The flow's one thread count reaches every pruned stage: a flow parsed
/// with sequential options and then set to 7 threads still equals the
/// all-sequential result.
#[test]
fn flow_override_is_applied_and_deterministic() {
    let source = stress_circuit();
    let options = ElfOptions {
        parallelism: Parallelism::sequential(),
        ..Default::default()
    };

    let mut overridden_aig = source.clone();
    Flow::pruned_from_script("rf; rw", &mixed_classifier(), options)
        .unwrap()
        .with_parallelism(Parallelism::threads(7))
        .run(&mut overridden_aig);

    let mut plain_aig = source.clone();
    Flow::pruned_from_script("rf; rw", &mixed_classifier(), options)
        .unwrap()
        .run(&mut plain_aig);

    assert_eq!(structure(&overridden_aig), structure(&plain_aig));
}
