//! Ablation benchmarks for the design choices called out in DESIGN.md:
//! decision threshold, level-preserving refactoring, and cut size.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use elf_aig::CutParams;
use elf_circuits::epfl::{arithmetic_circuit, Scale};
use elf_core::{circuit_dataset, ElfClassifier, ElfConfig, ElfRefactor};
use elf_nn::TrainConfig;
use elf_opt::{Refactor, RefactorParams};

fn trained_classifier() -> ElfClassifier {
    let circuit = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        21,
    );
    classifier
}

/// Decision-threshold sweep: lower thresholds keep more cuts (higher recall,
/// less speed-up), higher thresholds prune more aggressively.
fn bench_threshold(c: &mut Criterion) {
    let circuit = arithmetic_circuit("multiplier", Scale::Tiny);
    let classifier = trained_classifier();
    let mut group = c.benchmark_group("ablation_threshold");
    group.sample_size(10);
    for threshold in [0.1f32, 0.5, 0.9] {
        let mut tuned = classifier.clone();
        tuned.set_threshold(threshold);
        let elf = ElfRefactor::new(tuned, ElfConfig::default());
        group.bench_function(format!("threshold_{threshold}"), |b| {
            b.iter_batched(
                || circuit.clone(),
                |mut aig| std::hint::black_box(elf.run(&mut aig)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// Baseline refactor parameter ablations: level preservation and cut size.
fn bench_refactor_params(c: &mut Criterion) {
    let circuit = arithmetic_circuit("multiplier", Scale::Tiny);
    let mut group = c.benchmark_group("ablation_refactor_params");
    group.sample_size(10);
    let variants = [
        ("preserve_level", RefactorParams::default()),
        (
            "free_level",
            RefactorParams {
                preserve_level: false,
                ..Default::default()
            },
        ),
        (
            "cut8",
            RefactorParams {
                cut: CutParams::with_max_leaves(8),
                ..Default::default()
            },
        ),
        (
            "cut12",
            RefactorParams {
                cut: CutParams::with_max_leaves(12),
                ..Default::default()
            },
        ),
        (
            "zero_gain",
            RefactorParams {
                zero_gain: true,
                ..Default::default()
            },
        ),
    ];
    for (label, params) in variants {
        group.bench_function(label, |b| {
            b.iter_batched(
                || circuit.clone(),
                |mut aig| std::hint::black_box(Refactor::new(params).run(&mut aig)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_threshold, bench_refactor_params);
criterion_main!(benches);
