//! Industrial-style flow: generate control-dominated netlists matched to the
//! paper's Table II profiles, train on most of them, and accelerate
//! optimization of the held-out design with a script-style [`Flow`] pipeline
//! mixing classifier-pruned and plain operators.  Also demonstrates AIGER
//! export and classifier persistence.
//!
//! Run with `cargo run --release --example industrial_flow`.
//!
//! [`Flow`]: elf::core::Flow

use elf::aig::aiger;
use elf::circuits::industrial::{generate_industrial, TABLE2_PROFILES};
use elf::core::{circuit_dataset, collect_labeled_cuts, cuts_to_arrays, ElfClassifier, Flow};
use elf::nn::{Dataset, TrainConfig};
use elf::opt::{RefactorParams, ResubParams, RewriteParams};

fn main() {
    // Small-scale versions of the ten Table II designs (~1/500th of the
    // published gate counts) keep this example interactive.
    let scale = 0.002;
    let designs: Vec<_> = TABLE2_PROFILES
        .iter()
        .enumerate()
        .map(|(index, profile)| {
            (
                profile.name,
                generate_industrial(profile, scale, 1000 + index as u64),
            )
        })
        .collect();

    let params = RefactorParams::default();
    let held_out = 4; // "design 5", the most redundant profile

    // Train on every design except the held-out one.
    let mut training = Dataset::new();
    for (index, (_, aig)) in designs.iter().enumerate() {
        if index != held_out {
            training.extend_from(&circuit_dataset(aig, &params));
        }
    }
    println!(
        "training on {} cuts from {} designs",
        training.len(),
        designs.len() - 1
    );
    let (classifier, _) = ElfClassifier::fit(
        &training,
        &TrainConfig {
            epochs: 15,
            ..Default::default()
        },
        7,
    );

    // Persist and reload the classifier, as a deployment inside a synthesis
    // tool would.
    let serialized = classifier.to_text();
    let classifier = ElfClassifier::from_text(&serialized).expect("classifier round-trips");
    println!("serialized classifier: {} bytes", serialized.len());

    // Evaluate on the held-out design.
    let (name, target) = &designs[held_out];
    let cuts = collect_labeled_cuts(target, &params);
    let (features, labels) = cuts_to_arrays(&cuts);
    let confusion = classifier.evaluate(&features, &labels);
    println!(
        "{name}: recall {:.1}%, accuracy {:.1}% over {} cuts",
        confusion.recall() * 100.0,
        confusion.accuracy() * 100.0,
        confusion.total()
    );

    // Baseline: the plain ABC-style script `rf; rw; rs`.
    let mut baseline_aig = target.clone();
    let baseline = Flow::from_script("rf; rw; rs")
        .expect("valid script")
        .run(&mut baseline_aig);

    // Accelerated: the same pipeline with the refactor stage pruned by the
    // trained classifier.
    let pruned_flow = Flow::new()
        .elf_refactor(params, classifier)
        .rewrite(RewriteParams::default())
        .resub(ResubParams::default());
    let mut elf_aig = target.clone();
    let stats = pruned_flow.run(&mut elf_aig);

    println!(
        "baseline `rf; rw; rs`: {} -> {} ANDs in {:?}",
        baseline.ands_before, baseline.ands_after, baseline.runtime,
    );
    println!(
        "pruned pipeline:       {} -> {} ANDs in {:?}",
        stats.ands_before, stats.ands_after, stats.runtime,
    );
    for stage in &stats.stages {
        let pruned = stage
            .elf
            .as_ref()
            .map(|elf| format!(", {:.1}% pruned", elf.prune_rate() * 100.0))
            .unwrap_or_default();
        println!(
            "  {:<14} -> {:>6} ANDs ({} committed of {} cuts{pruned})",
            stage.name, stage.ands_after, stage.op.cuts_committed, stage.op.cuts_formed,
        );
    }

    // Export the optimized design as ASCII AIGER.
    let out_path = std::env::temp_dir().join("elf_industrial_design.aag");
    aiger::write_ascii_file(&elf_aig, &out_path).expect("write AIGER file");
    println!("optimized design written to {}", out_path.display());
}
