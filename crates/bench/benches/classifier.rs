//! Criterion benchmarks for the classifier: batched vs per-cut inference and
//! feature collection, quantifying the paper's claim that inference must be
//! far cheaper than resynthesis.

use criterion::{criterion_group, criterion_main, Criterion};
use elf_circuits::epfl::{arithmetic_circuit, Scale};
use elf_core::{circuit_dataset, ElfClassifier};
use elf_nn::TrainConfig;
use elf_opt::{PrunableOperator, Refactor, RefactorParams};
use elf_par::Parallelism;

fn setup() -> (ElfClassifier, Vec<[f32; 6]>) {
    let circuit = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        9,
    );
    let target = arithmetic_circuit("multiplier", Scale::Tiny);
    let features: Vec<[f32; 6]> = Refactor::new(RefactorParams::default())
        .collect_features_with(&target, Parallelism::sequential())
        .into_iter()
        .map(|(_, f)| f.to_array())
        .collect();
    (classifier, features)
}

fn bench_inference(c: &mut Criterion) {
    let (classifier, features) = setup();
    let mut group = c.benchmark_group("classifier");
    group.sample_size(30);

    // A pruned pass's decision: standardize the batch with its own
    // statistics, one forward pass, threshold.
    let classify = |batch: &[[f32; 6]]| classifier.classify(batch, Parallelism::sequential());
    group.bench_function("batched_inference_all_cuts", |b| {
        b.iter(|| std::hint::black_box(classify(&features)));
    });
    // One row per call: a single row falls back to the training statistics.
    group.bench_function("per_cut_inference", |b| {
        b.iter(|| {
            for feature in features.iter().take(64) {
                std::hint::black_box(classify(std::slice::from_ref(feature)));
            }
        });
    });
    group.bench_function("feature_collection_whole_graph", |b| {
        let refactor = Refactor::new(RefactorParams::default());
        let circuit = arithmetic_circuit("multiplier", Scale::Tiny);
        b.iter(|| {
            std::hint::black_box(
                refactor.collect_features_with(&circuit, Parallelism::sequential()),
            )
        });
    });
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let circuit = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("fit_five_epochs", |b| {
        b.iter(|| {
            let (classifier, _) = ElfClassifier::fit(
                &data,
                &TrainConfig {
                    epochs: 5,
                    ..Default::default()
                },
                11,
            );
            std::hint::black_box(classifier)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_inference, bench_training);
criterion_main!(benches);
