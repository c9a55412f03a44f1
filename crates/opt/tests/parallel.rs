//! Concurrency test layer, operator side: parallel batch feature collection
//! must be **byte-identical** to the sequential sweep for every operator and
//! every thread count.
//!
//! Together with `elf-core`'s `tests/parallel.rs` (identical prune decisions
//! and node-for-node identical AIGs) this pins the determinism contract of
//! the `elf-par` engine: parallelism may change wall-clock time, never
//! results.

use elf_aig::{Aig, CutFeatures, NodeId};
use elf_circuits::{script_strategy, scripted_circuit};
use elf_opt::{PrunableOperator, Refactor, RefactorParams, Resubstitution, Rewrite};
use elf_par::Parallelism;
use proptest::prelude::*;

/// Thread counts exercised by every equivalence property: sequential, even,
/// odd, and more workers than most generated graphs have chunks.
const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Byte-level view of a feature dataset: node ids plus the raw bits of every
/// `f32`, so `-0.0 == 0.0`-style float equality cannot mask a divergence.
fn dataset_bytes(features: &[(NodeId, CutFeatures)]) -> Vec<(u32, [u32; 6])> {
    features
        .iter()
        .map(|(node, f)| (node.index(), f.to_array().map(f32::to_bits)))
        .collect()
}

/// Asserts that parallel collection matches the sequential sweep for one
/// operator on one circuit, at every thread count.
fn check_operator<O: PrunableOperator>(operator: &O, aig: Aig) {
    let sequential = operator.collect_features_with(&aig, Parallelism::sequential());
    let sequential_bytes = dataset_bytes(&sequential);
    for threads in THREAD_COUNTS {
        let parallel = operator.collect_features_with(&aig, Parallelism::threads(threads));
        assert_eq!(
            sequential_bytes,
            dataset_bytes(&parallel),
            "{} features diverged at {threads} threads",
            O::NAME
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Headline equivalence property: for each of Refactor / Rewrite /
    /// Resubstitution, the parallel feature dataset is byte-identical to the
    /// sequential one at 1, 2, 3 and 7 threads.
    #[test]
    fn parallel_feature_collection_is_byte_identical(script in script_strategy(40)) {
        check_operator(&Refactor::default(), scripted_circuit(6, &script));
        check_operator(&Rewrite::default(), scripted_circuit(6, &script));
        check_operator(&Resubstitution, scripted_circuit(6, &script));
    }

    /// The same contract holds for arbitrary cut parameters (not just each
    /// operator's default feature window).
    #[test]
    fn parallel_collection_matches_for_custom_windows(
        script in script_strategy(32),
        max_leaves in 2usize..16,
    ) {
        let aig = scripted_circuit(6, &script);
        let operator = Refactor::new(RefactorParams {
            cut: elf_aig::CutParams::with_max_leaves(max_leaves),
            ..Default::default()
        });
        let sequential = operator.collect_features_with(&aig, Parallelism::sequential());
        for threads in THREAD_COUNTS {
            let parallel = operator.collect_features_with(&aig, Parallelism::threads(threads));
            prop_assert_eq!(
                dataset_bytes(&sequential),
                dataset_bytes(&parallel),
                "max_leaves={} threads={}", max_leaves, threads
            );
        }
    }

    /// The read-only cut engine leaves the graph observably untouched: a
    /// parallel sweep followed by the sequential sweep still matches, and
    /// the graph's invariants hold.
    #[test]
    fn parallel_collection_does_not_perturb_the_graph(script in script_strategy(32)) {
        let aig = scripted_circuit(5, &script);
        let operator = Refactor::default();
        let before = operator.collect_features_with(&aig, Parallelism::sequential());
        let _ = operator.collect_features_with(&aig, Parallelism::threads(7));
        let after = operator.collect_features_with(&aig, Parallelism::sequential());
        prop_assert_eq!(dataset_bytes(&before), dataset_bytes(&after));
        prop_assert!(aig.check_invariants().is_empty(), "{:?}", aig.check_invariants());
    }
}
