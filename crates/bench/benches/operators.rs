//! Criterion micro-benchmarks for the logic-optimization operators: the cost
//! of the per-cut pipeline stages and of whole baseline / ELF passes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use elf_circuits::epfl::{arithmetic_circuit, Scale};
use elf_circuits::industrial_suite;
use elf_core::{circuit_dataset, CutCacheConfig, ElfClassifier, ElfConfig, ElfRefactor};
use elf_nn::{Mlp, Normalizer, TrainConfig};
use elf_opt::{
    cut_truth_table, semi_canonicalize, Refactor, RefactorParams, Resubstitution, Rewrite,
};
use elf_sop::{factor_into, factor_truth_table, FactorScratch, FactoredForm, Sop};

fn trained_classifier() -> ElfClassifier {
    let circuit = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&circuit, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        3,
    );
    classifier
}

/// Per-cut pipeline stages: cut computation, feature extraction, resynthesis.
fn bench_cut_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("cut_pipeline");
    group.sample_size(30);
    let mut aig = arithmetic_circuit("multiplier", Scale::Tiny);
    let params = elf_aig::CutParams::default();
    let roots: Vec<_> = aig.and_ids().collect();
    let mid = roots[roots.len() / 2];

    group.bench_function("reconvergence_cut", |b| {
        b.iter(|| std::hint::black_box(aig.reconvergence_cut(mid, &params)));
    });
    let mut reusable = elf_aig::Cut::empty();
    group.bench_function("reconvergence_cut_into", |b| {
        b.iter(|| {
            aig.reconvergence_cut_into(mid, &params, &mut reusable);
            std::hint::black_box(reusable.root)
        });
    });
    let cut = aig.reconvergence_cut(mid, &params);
    group.bench_function("cut_features", |b| {
        b.iter(|| std::hint::black_box(aig.cut_features(&cut)));
    });
    group.bench_function("truth_table", |b| {
        b.iter(|| std::hint::black_box(cut_truth_table(&aig, &cut)));
    });
    let truth = cut_truth_table(&aig, &cut);
    group.bench_function("isop_and_factor", |b| {
        b.iter(|| std::hint::black_box(factor_truth_table(&truth)));
    });
    // The resynthesis kernels on the widest cut refactor forms by default:
    // ten leaves, a 16-word table.
    let wide = roots
        .iter()
        .map(|&root| aig.reconvergence_cut(root, &params))
        .find(|cut| cut.num_leaves() == params.max_leaves)
        .expect("the multiplier has full-width cuts");
    // The feature count on the ten-leaf cut with the most primary-input
    // leaves, each feeding a row of partial products: the case a fanout
    // scan paid for per leaf edge.
    let inputs: Vec<_> = aig.inputs().to_vec();
    let input_leaves = roots
        .iter()
        .map(|&root| aig.reconvergence_cut(root, &params))
        .filter(|cut| cut.num_leaves() == params.max_leaves)
        .max_by_key(|cut| {
            cut.leaves
                .iter()
                .filter(|leaf| inputs.contains(leaf))
                .count()
        })
        .expect("the multiplier has full-width cuts");
    group.bench_function("cut_features/input_leaves", |b| {
        b.iter(|| std::hint::black_box(aig.cut_features(&input_leaves)));
    });
    let wide_truth = cut_truth_table(&aig, &wide);
    group.bench_function("isop", |b| {
        b.iter(|| std::hint::black_box(Sop::isop(&wide_truth)));
    });
    // Factoring alone, as a pass does it: into a form and on stacks that
    // have met a cover before, so nothing is allocated.
    let wide_cover = Sop::isop(&wide_truth);
    let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
    group.bench_function("factor_into", |b| {
        b.iter(|| {
            factor_into(&wide_cover, &mut scratch, &mut form);
            std::hint::black_box(form.num_gates())
        });
    });
    group.bench_function("semi_canonicalize", |b| {
        b.iter(|| std::hint::black_box(semi_canonicalize(&wide_truth)));
    });
    group.finish();
}

/// Whole-pass comparison: baseline refactor vs ELF, plus the other operators.
fn bench_operator_passes(c: &mut Criterion) {
    let mut group = c.benchmark_group("operator_passes");
    group.sample_size(10);
    let circuit = arithmetic_circuit("multiplier", Scale::Tiny);
    let classifier = trained_classifier();

    group.bench_function("refactor_baseline", |b| {
        b.iter_batched(
            || circuit.clone(),
            |mut aig| std::hint::black_box(Refactor::new(RefactorParams::default()).run(&mut aig)),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("elf_refactor", |b| {
        let elf = ElfRefactor::new(classifier.clone(), ElfConfig::default());
        b.iter_batched(
            || circuit.clone(),
            |mut aig| std::hint::black_box(elf.run(&mut aig)),
            BatchSize::SmallInput,
        );
    });
    // The batched pruned pass keeping every node, cache off as in the
    // baseline: against `refactor_baseline` it is the sweep's price, since
    // a kept node reuses its window unless a commit edited it.
    group.bench_function("elf_refactor_batched_keep_all", |b| {
        let keep_all = ElfClassifier::from_parts(
            Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
            Mlp::paper_architecture(5),
            0.0,
        );
        let config = ElfConfig {
            cut_cache: CutCacheConfig::disabled(),
            ..ElfConfig::default()
        };
        let elf = ElfRefactor::new(keep_all, config);
        b.iter_batched(
            || circuit.clone(),
            |mut aig| std::hint::black_box(elf.run(&mut aig)),
            BatchSize::SmallInput,
        );
    });
    // Rewrite and resub on the multiplier's regular array and on one
    // industrial design, whose deep, irregularly shared cones cut rewrite's
    // 64-node window off mid-cone and fill its cut buckets.
    let (industrial_name, industrial) = industrial_suite(0.003, 1).swap_remove(0);
    for (name, circuit) in [
        ("multiplier", &circuit),
        (industrial_name.as_str(), &industrial),
    ] {
        group.bench_function(format!("rewrite/{name}"), |b| {
            b.iter_batched(
                || circuit.clone(),
                |mut aig| std::hint::black_box(Rewrite::default().run(&mut aig)),
                BatchSize::SmallInput,
            );
        });
        group.bench_function(format!("resubstitution/{name}"), |b| {
            b.iter_batched(
                || circuit.clone(),
                |mut aig| std::hint::black_box(Resubstitution::default().run(&mut aig)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cut_pipeline, bench_operator_passes);
criterion_main!(benches);
