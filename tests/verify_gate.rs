//! The SAT correctness gate over the pruned flow: every check must be a
//! proof, and a broken circuit must be refuted by a witness that replays.
//!
//! The circuits are the serve determinism suite's fifteen scripted random
//! circuits and the six `Scale::Tiny` arithmetic benchmarks.  For each one
//! the pruned `rf; rw; rs` flow runs under `VerifyMode::Final` and under
//! `VerifyMode::PerStage`, and every check it records must be proved; the
//! standalone checker must prove the result against the input too.  Then
//! one output of the result is flipped, and the checker must return a
//! counterexample on which the input and the flipped circuit really differ.
//!
//! The classifier is a fixed untrained one that prunes some cuts and keeps
//! others: the gate is about the verifier, not about classifier quality.

use elf::aig::Aig;
use elf::cec::{check_equivalence_with, CecParams, Equivalence};
use elf::circuits::{arithmetic_suite, scripted_circuit, GateChoice, Scale};
use elf::core::{ElfClassifier, ElfOptions, Flow, VerifyMode, DEFAULT_THRESHOLD};
use elf::nn::{Mlp, Normalizer};

const SCRIPT: &str = "rf; rw; rs";

fn classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

/// The scripted random circuits of `crates/serve/tests/determinism.rs`.
fn determinism_suite() -> Vec<(String, Aig)> {
    (0..15)
        .map(|job| {
            let gates: Vec<GateChoice> = (0..20 + (job % 5) * 6)
                .map(|i| ((i + job) as u8, 3 * i + job, 5 * i + 1, 7 * i + 2 * job))
                .collect();
            (
                format!("scripted{job:02}"),
                scripted_circuit(4 + job % 3, &gates),
            )
        })
        .collect()
}

/// Runs the gate on one circuit, panicking with its name on any failure.
fn gate(name: &str, golden: &Aig, classifier: &ElfClassifier) {
    let run = |verify: VerifyMode| {
        let mut aig = golden.clone();
        let stats = Flow::pruned_from_script(SCRIPT, classifier, ElfOptions::default())
            .expect("the script parses")
            .with_verify(verify)
            .run(&mut aig);
        let outcome = stats.verify.expect("the flow verified");
        assert!(
            outcome.proved(),
            "{name}: {verify:?} did not prove the flow"
        );
        (aig, outcome.checks.len())
    };
    let (optimized, final_checks) = run(VerifyMode::Final);
    assert_eq!(final_checks, 1, "{name}: Final runs one whole-flow check");
    let (per_stage, per_stage_checks) = run(VerifyMode::PerStage);
    assert_eq!(per_stage_checks, 3, "{name}: PerStage checks every stage");
    assert_eq!(
        per_stage.num_reachable_ands(),
        optimized.num_reachable_ands(),
        "{name}: verification changed the result"
    );

    let params = CecParams::default();
    assert!(
        check_equivalence_with(golden, &optimized, &params)
            .result
            .is_proved(),
        "{name}: the standalone check did not prove the flow"
    );

    let mut broken = optimized;
    let out = broken.outputs()[0];
    broken.set_output(0, !out);
    match check_equivalence_with(golden, &broken, &params).result {
        Equivalence::CounterExample(witness) => assert_ne!(
            golden.evaluate(&witness),
            broken.evaluate(&witness),
            "{name}: the witness does not replay"
        ),
        other => panic!("{name}: a flipped output was not refuted: {other:?}"),
    }
}

#[test]
fn the_determinism_suite_passes_the_sat_gate() {
    let classifier = classifier();
    for (name, aig) in determinism_suite() {
        gate(&name, &aig, &classifier);
    }
}

#[test]
fn the_tiny_arithmetic_suite_passes_the_sat_gate() {
    let classifier = classifier();
    for (name, aig) in arithmetic_suite(Scale::Tiny) {
        gate(&name, &aig, &classifier);
    }
}
