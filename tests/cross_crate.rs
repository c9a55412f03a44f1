//! Cross-crate integration tests: AIGER persistence of generated workloads,
//! classifier persistence, and interactions between the optimization
//! operators.

use elf::aig::{aiger, check_equivalence, Aig, CutParams};
use elf::circuits::epfl::{arithmetic_circuit, Scale};
use elf::circuits::generate_random_netlist;
use elf::core::{circuit_dataset, ElfClassifier, ElfConfig, ElfRefactor};
use elf::nn::TrainConfig;
use elf::opt::{Refactor, RefactorParams, Resubstitution, Rewrite};

#[test]
fn generated_circuits_round_trip_through_aiger() {
    for name in ["multiplier", "square", "log2"] {
        let circuit = arithmetic_circuit(name, Scale::Tiny);
        let text = aiger::to_ascii(&circuit);
        let parsed = aiger::from_ascii(&text).expect("valid AIGER");
        assert_eq!(parsed.num_inputs(), circuit.num_inputs());
        assert_eq!(parsed.num_outputs(), circuit.num_outputs());
        assert!(
            check_equivalence(&circuit, &parsed, 32, 9).holds(),
            "{name}: AIGER round trip changed the function"
        );
    }
}

#[test]
fn refactored_circuit_round_trips_through_aiger() {
    let mut circuit = arithmetic_circuit("square", Scale::Tiny);
    Refactor::new(RefactorParams::default()).run(&mut circuit);
    let text = aiger::to_ascii(&circuit);
    let parsed = aiger::from_ascii(&text).expect("valid AIGER");
    assert!(check_equivalence(&circuit, &parsed, 32, 10).holds());
}

#[test]
fn operator_pipeline_is_sound() {
    // refactor -> rewrite -> resub, each preserving functionality and never
    // increasing the node count.
    let mut aig = generate_random_netlist("pipeline", 48, 16, 1500, 30, 0.1, 77);
    let golden = aig.clone();
    let start = aig.num_reachable_ands();
    Refactor::new(RefactorParams::default()).run(&mut aig);
    let after_refactor = aig.num_reachable_ands();
    Rewrite::default().run(&mut aig);
    let after_rewrite = aig.num_reachable_ands();
    Resubstitution.run(&mut aig);
    let after_resub = aig.num_reachable_ands();
    assert!(after_refactor <= start);
    assert!(after_rewrite <= after_refactor);
    assert!(after_resub <= after_rewrite);
    assert!(check_equivalence(&golden, &aig, 32, 21).holds());
    assert!(aig.check_invariants().is_empty());
}

#[test]
fn classifier_survives_serialization_in_the_flow() {
    let circuit = arithmetic_circuit("sqrt", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        17,
    );
    let restored = ElfClassifier::from_text(&classifier.to_text()).expect("round trip");

    let mut a = circuit.clone();
    let mut b = circuit.clone();
    let stats_a = ElfRefactor::new(classifier, ElfConfig::default()).run(&mut a);
    let stats_b = ElfRefactor::new(restored, ElfConfig::default()).run(&mut b);
    assert_eq!(stats_a.pruned, stats_b.pruned);
    assert_eq!(a.num_reachable_ands(), b.num_reachable_ands());
}

#[test]
fn cut_features_are_stable_across_clones() {
    let circuit = arithmetic_circuit("multiplier", Scale::Tiny);
    let clone = circuit.clone();
    let params = CutParams::default();
    let nodes: Vec<_> = circuit.and_ids().take(50).collect();
    for node in nodes {
        let a = circuit.reconvergence_cut(node, &params);
        let b = clone.reconvergence_cut(node, &params);
        assert_eq!(circuit.cut_features(&a), clone.cut_features(&b));
    }
}

#[test]
fn empty_and_trivial_graphs_are_handled_by_every_operator() {
    let mut empty = Aig::new();
    assert_eq!(Refactor::default().run(&mut empty).nodes_visited, 0);
    assert_eq!(Rewrite::default().run(&mut empty).nodes_visited, 0);
    assert_eq!(Resubstitution.run(&mut empty).nodes_visited, 0);

    let mut trivial = Aig::new();
    let a = trivial.add_input();
    let b = trivial.add_input();
    let f = trivial.and(a, b);
    trivial.add_output(f);
    assert_eq!(Refactor::default().run(&mut trivial).cuts_committed, 0);
    assert_eq!(trivial.num_ands(), 1);
}
