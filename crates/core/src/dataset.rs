//! Training-data collection: label every cut of a circuit with the baseline
//! operator's decision.
//!
//! The collection functions are generic over any
//! [`PrunableOperator`]: the `*_with` variants take the operator whose
//! commits define the labels, so a rewrite (or resubstitution) classifier
//! trains through exactly the same machinery as the paper's refactor
//! classifier.  The parameter-taking functions are refactor-specific
//! conveniences kept for the original API.

use elf_aig::{Aig, NUM_FEATURES};
use elf_nn::{Dataset, Normalizer};
use elf_opt::{LabeledCut, PrunableOperator, Refactor, RefactorParams};

/// A named circuit used for training or evaluation.
#[derive(Debug, Clone)]
pub struct BenchCircuit {
    /// Human-readable name (e.g. `"div"` or `"design 3"`).
    pub name: String,
    /// The circuit itself.
    pub aig: Aig,
}

impl BenchCircuit {
    /// Creates a named benchmark circuit.
    pub fn new(name: impl Into<String>, aig: Aig) -> Self {
        BenchCircuit {
            name: name.into(),
            aig,
        }
    }
}

/// Runs a baseline operator on a *copy* of the circuit and returns one
/// labelled sample per visited cut (the paper's training-data collection,
/// generalized to any [`PrunableOperator`]).
pub fn collect_labeled_cuts_with<O: PrunableOperator>(operator: &O, aig: &Aig) -> Vec<LabeledCut> {
    let mut copy = aig.clone();
    let (_, samples) = operator.run_recording(&mut copy);
    samples
}

/// Runs the baseline refactor on a *copy* of the circuit and returns one
/// labelled sample per visited cut (the paper's training-data collection).
pub fn collect_labeled_cuts(aig: &Aig, params: &RefactorParams) -> Vec<LabeledCut> {
    collect_labeled_cuts_with(&Refactor::new(*params), aig)
}

/// Converts labelled cuts into an [`elf_nn::Dataset`].
pub fn cuts_to_dataset(cuts: &[LabeledCut]) -> Dataset {
    let mut data = Dataset::new();
    for cut in cuts {
        data.push(cut.features.to_array().to_vec(), cut.committed);
    }
    data
}

/// Collects a dataset directly from a circuit (refactor labels).
pub fn circuit_dataset(aig: &Aig, params: &RefactorParams) -> Dataset {
    cuts_to_dataset(&collect_labeled_cuts(aig, params))
}

/// Standardizes a circuit's feature dataset with its own statistics.
///
/// The paper standardizes every dataset individually ("each dataset is
/// standardized individually with mean variance normalization") so that the
/// classifier generalizes across circuits whose absolute feature ranges
/// (levels, fanouts, node counts) differ wildly.  Training sets are built
/// from per-circuit standardized data, and inference standardizes the test
/// circuit's batch with its own statistics.
pub fn standardize_per_circuit(dataset: &Dataset) -> Dataset {
    if dataset.is_empty() {
        return dataset.clone();
    }
    Normalizer::fit(dataset).transform(dataset)
}

/// Extracts feature arrays and labels from labelled cuts (for evaluation).
pub fn cuts_to_arrays(cuts: &[LabeledCut]) -> (Vec<[f32; NUM_FEATURES]>, Vec<bool>) {
    let features = cuts.iter().map(|c| c.features.to_array()).collect();
    let labels = cuts.iter().map(|c| c.committed).collect();
    (features, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_aig::Lit;

    fn redundant_circuit(seed: u64) -> Aig {
        let mut aig = Aig::with_name(format!("circuit-{seed}"));
        let inputs: Vec<Lit> = aig.add_inputs(6);
        let mut acc = inputs[0];
        for i in 0..4 {
            let a = inputs[(seed as usize + i) % 6];
            let b = inputs[(seed as usize + i + 1) % 6];
            let c = inputs[(seed as usize + i + 2) % 6];
            let t0 = aig.and(a, b);
            let t1 = aig.and(a, c);
            let or = aig.or(t0, t1);
            acc = aig.and(acc, or);
        }
        aig.add_output(acc);
        aig.cleanup();
        aig
    }

    #[test]
    fn labels_match_baseline_commit_count() {
        let aig = redundant_circuit(1);
        let params = RefactorParams::default();
        let cuts = collect_labeled_cuts(&aig, &params);
        let committed = cuts.iter().filter(|c| c.committed).count();
        let mut copy = aig.clone();
        let stats = Refactor::new(params).run(&mut copy);
        assert_eq!(committed, stats.cuts_committed);
        assert_eq!(cuts.len(), stats.nodes_visited);
    }

    #[test]
    fn dataset_has_six_features_per_sample() {
        let aig = redundant_circuit(2);
        let data = circuit_dataset(&aig, &RefactorParams::default());
        assert!(!data.is_empty());
        assert_eq!(data.num_features(), NUM_FEATURES);
    }

    #[test]
    fn leave_one_out_excludes_held_out_circuit() {
        let circuits: Vec<BenchCircuit> = (0..3)
            .map(|i| BenchCircuit::new(format!("c{i}"), redundant_circuit(i)))
            .collect();
        let params = RefactorParams::default();
        let full: usize = circuits
            .iter()
            .map(|c| circuit_dataset(&c.aig, &params).len())
            .sum();
        let held = circuit_dataset(&circuits[1].aig, &params).len();
        let suite = crate::experiment::Suite::refactor(circuits, Default::default());
        let loo = suite.training_set(Some(1));
        assert_eq!(loo.len(), full - held);
    }

    #[test]
    fn collection_does_not_mutate_the_input() {
        let aig = redundant_circuit(3);
        let nodes_before = aig.num_ands();
        let _ = collect_labeled_cuts(&aig, &RefactorParams::default());
        assert_eq!(aig.num_ands(), nodes_before);
    }

    #[test]
    fn rewrite_labels_flow_through_the_generic_machinery() {
        use elf_opt::Rewrite;
        let aig = redundant_circuit(4);
        let operator = Rewrite::default();
        let cuts = collect_labeled_cuts_with(&operator, &aig);
        let mut copy = aig.clone();
        let stats = operator.run(&mut copy);
        assert_eq!(cuts.len(), stats.nodes_visited);
        let committed = cuts.iter().filter(|c| c.committed).count();
        assert_eq!(committed, stats.cuts_committed);
        let data = cuts_to_dataset(&cuts);
        assert_eq!(data.len(), cuts.len());
        assert_eq!(data.num_features(), NUM_FEATURES);
    }
}
