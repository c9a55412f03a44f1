//! End-to-end integration tests spanning every crate: workload generation,
//! baseline refactoring, classifier training, ELF pruning, and quality
//! verification.

use elf::aig::check_equivalence;
use elf::circuits::epfl::{arithmetic_circuit, arithmetic_suite, Scale};
use elf::circuits::industrial::{generate_industrial, IndustrialProfile};
use elf::core::experiment::{circuit_stats, compare_with_operator, ExperimentConfig, Suite};
use elf::core::{
    circuit_dataset, BenchCircuit, Elf, ElfClassifier, ElfConfig, ElfOptions, ElfRefactor, Flow,
};
use elf::nn::TrainConfig;
use elf::opt::{Refactor, RefactorParams, Rewrite};

fn quick_experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        train: TrainConfig {
            epochs: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tiny_suite() -> Vec<BenchCircuit> {
    arithmetic_suite(Scale::Tiny)
        .into_iter()
        .map(|(name, aig)| BenchCircuit::new(name, aig))
        .collect()
}

#[test]
fn refactor_preserves_functionality_on_arithmetic_circuits() {
    for (name, aig) in arithmetic_suite(Scale::Tiny) {
        let golden = aig.clone();
        let mut optimized = aig;
        let stats = Refactor::new(RefactorParams::default()).run(&mut optimized);
        assert!(
            optimized.check_invariants().is_empty(),
            "{name}: {:?}",
            optimized.check_invariants()
        );
        assert!(
            check_equivalence(&golden, &optimized, 32, 11).holds(),
            "{name}: refactor changed the function"
        );
        assert!(
            stats.nodes_visited > 0,
            "{name}: no cuts were formed by refactor"
        );
    }
}

#[test]
fn redundancy_statistics_match_the_papers_premise() {
    // The paper's core observation (Fig. 1): the overwhelming majority of
    // cuts fail to be refactored.
    let mut total_cuts = 0usize;
    let mut total_commits = 0usize;
    for (_, aig) in arithmetic_suite(Scale::Tiny) {
        let mut copy = aig;
        let stats = Refactor::new(RefactorParams::default()).run(&mut copy);
        total_cuts += stats.nodes_visited;
        total_commits += stats.cuts_committed;
    }
    let commit_rate = total_commits as f64 / total_cuts as f64;
    assert!(
        commit_rate < 0.25,
        "commit rate {commit_rate} is too high for the pruning premise to hold"
    );
}

#[test]
fn leave_one_out_flow_preserves_function_and_prunes() {
    let config = quick_experiment_config();
    let suite = Suite::refactor(tiny_suite(), config);
    // Hold out the multiplier (index of "multiplier" in the suite).
    let held_out = suite
        .circuits()
        .iter()
        .position(|c| c.name == "multiplier")
        .expect("multiplier exists");
    let classifier = suite.train(Some(held_out));

    let golden = suite.circuits()[held_out].aig.clone();
    let mut optimized = golden.clone();
    let elf = ElfRefactor::new(classifier, ElfConfig::default());
    let stats = elf.run(&mut optimized);

    assert!(optimized.check_invariants().is_empty());
    assert!(check_equivalence(&golden, &optimized, 32, 5).holds());
    // The classifier must actually prune something on an unseen circuit.
    assert!(stats.pruned > 0, "classifier pruned nothing");
    assert!(optimized.num_reachable_ands() <= golden.num_reachable_ands());
}

#[test]
fn comparison_and_quality_rows_are_consistent() {
    let suite = Suite::refactor(tiny_suite(), quick_experiment_config());
    let circuit = &suite.circuits()[0];
    let classifier = suite.train(Some(0));
    let row = suite.compare(circuit, &classifier);
    assert_eq!(row.name, circuit.name);
    assert!(row.baseline_ands <= row.nodes_before);
    assert!(row.elf_ands <= row.nodes_before);

    let quality = suite.quality(circuit, &classifier);
    let stats = circuit_stats(circuit, &RefactorParams::default());
    assert_eq!(quality.confusion.total(), stats.cuts);
    // True positives + false negatives equals the number of refactorable cuts.
    assert_eq!(
        quality.confusion.true_positives + quality.confusion.false_negatives,
        stats.refactored
    );
}

#[test]
fn elf_quality_loss_is_bounded_when_recall_is_perfect() {
    // With threshold 0 the classifier keeps everything: quality must match
    // the baseline exactly, which bounds the quality loss attributable to
    // the flow itself (as opposed to classification errors).
    let circuit = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let (mut classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 3,
            ..Default::default()
        },
        5,
    );
    classifier.set_threshold(0.0);

    let mut baseline_aig = circuit.clone();
    Refactor::new(RefactorParams::default()).run(&mut baseline_aig);
    let mut elf_aig = circuit.clone();
    ElfRefactor::new(classifier, ElfConfig::default()).run(&mut elf_aig);
    assert_eq!(
        baseline_aig.num_reachable_ands(),
        elf_aig.num_reachable_ands()
    );
}

#[test]
fn industrial_designs_work_through_the_whole_pipeline() {
    let profile = IndustrialProfile {
        name: "integration",
        inputs: 96,
        outputs: 32,
        target_ands: 3000,
        target_depth: 45,
        redundancy: 0.08,
    };
    let designs: Vec<BenchCircuit> = (0..3)
        .map(|i| {
            BenchCircuit::new(
                format!("design {i}"),
                generate_industrial(&profile, 1.0, 50 + i),
            )
        })
        .collect();
    let config = ExperimentConfig {
        train: TrainConfig {
            epochs: 8,
            ..Default::default()
        },
        seed: 11,
        ..Default::default()
    };
    let suite = Suite::refactor(designs, config);
    let training_rows: usize = suite.datasets()[1..].iter().map(|d| d.len()).sum();
    assert!(training_rows > 100);
    let classifier = suite.train(Some(0));
    let golden = suite.circuits()[0].aig.clone();
    let mut optimized = golden.clone();
    let stats = ElfRefactor::new(classifier, ElfConfig::default()).run(&mut optimized);
    assert!(stats.pruned + stats.kept > 0);
    assert!(check_equivalence(&golden, &optimized, 24, 3).holds());
    assert!(optimized.check_invariants().is_empty());
}

#[test]
fn rewrite_classifier_trains_and_prunes_through_shared_machinery() {
    // The conclusion's extension target: Elf<Rewrite> end-to-end via the same
    // leave-one-out dataset machinery the refactor classifier uses.
    let circuits = tiny_suite();
    let operator = Rewrite::new();
    let held_out = circuits
        .iter()
        .position(|c| c.name == "multiplier")
        .expect("multiplier exists");
    let config = ExperimentConfig {
        train: TrainConfig {
            epochs: 8,
            ..Default::default()
        },
        seed: 0xE1F,
        ..Default::default()
    };
    let suite = Suite::new(circuits.clone(), operator.clone(), config);
    let classifier = suite.train(Some(held_out));

    let golden = circuits[held_out].aig.clone();
    let mut optimized = golden.clone();
    let elf = Elf::with_operator(classifier, operator.clone(), ElfOptions::default());
    let stats = elf.run(&mut optimized);
    assert_eq!(stats.pruned + stats.kept, stats.op.nodes_visited);
    assert!(stats.pruned > 0, "rewrite classifier pruned nothing");
    assert!(optimized.check_invariants().is_empty());
    assert!(check_equivalence(&golden, &optimized, 32, 6).holds());

    // The generic comparison row machinery works for the new operator too.
    let row = compare_with_operator(&circuits[held_out], &operator, &elf, 1);
    assert_eq!(row.nodes_before, golden.num_reachable_ands());
    assert!(row.elf_ands <= row.nodes_before);
}

#[test]
fn flow_pipeline_mixes_plain_and_pruned_stages() {
    let config = quick_experiment_config();
    let suite = Suite::refactor(tiny_suite(), config);
    let held_out = 2;
    let classifier = suite.train(Some(held_out));

    let golden = suite.circuits()[held_out].aig.clone();
    let mut optimized = golden.clone();
    let flow = Flow::new()
        .elf_refactor(RefactorParams::default(), classifier)
        .rewrite()
        .resub();
    assert_eq!(flow.stage_names(), vec!["elf-refactor", "rewrite", "resub"]);
    let stats = flow.run(&mut optimized);
    assert_eq!(stats.stages.len(), 3);
    assert!(stats.stages[0].elf.is_some(), "first stage is pruned");
    assert!(stats.stages[1].elf.is_none(), "second stage is plain");
    assert!(stats.ands_after <= stats.ands_before);
    assert_eq!(
        stats.total_gain(),
        golden.num_reachable_ands() as i64 - optimized.num_reachable_ands() as i64
    );
    assert!(optimized.check_invariants().is_empty());
    assert!(check_equivalence(&golden, &optimized, 32, 7).holds());
}

#[test]
fn double_application_never_hurts_area() {
    let config = ExperimentConfig {
        applications: 2,
        ..quick_experiment_config()
    };
    let suite = Suite::refactor(tiny_suite(), config);
    let classifier = suite.train(Some(1));
    let twice = suite.compare(&suite.circuits()[1], &classifier);
    let once = compare_with_operator(
        &suite.circuits()[1],
        &Refactor::new(RefactorParams::default()),
        &ElfRefactor::new(classifier, ElfConfig::default()),
        1,
    );
    assert!(twice.elf_ands <= once.elf_ands);
    assert_eq!(twice.elf_passes.len(), 2);
}
