//! Reproduce the paper's EPFL-arithmetic experiment in miniature: for every
//! arithmetic circuit, train the classifier on the other five (leave-one-out)
//! and compare the baseline refactor against ELF.
//!
//! Run with `cargo run --release --example arithmetic_suite`.

use elf::circuits::epfl::{arithmetic_suite, Scale};
use elf::core::experiment::{ExperimentConfig, Suite};
use elf::core::BenchCircuit;
use elf::nn::TrainConfig;

fn main() {
    // Tiny versions of the six arithmetic circuits keep this example fast;
    // the paper harness (`cargo run -p elf-bench --bin paper -- table3`)
    // uses the larger default scale.
    let circuits: Vec<BenchCircuit> = arithmetic_suite(Scale::Tiny)
        .into_iter()
        .map(|(name, aig)| BenchCircuit::new(name, aig))
        .collect();

    let config = ExperimentConfig {
        train: TrainConfig {
            epochs: 10,
            ..Default::default()
        },
        ..Default::default()
    };

    println!("running leave-one-out over {} circuits...", circuits.len());
    let (comparisons, qualities): (Vec<_>, Vec<_>) =
        Suite::refactor(circuits, config).rows().into_iter().unzip();

    println!();
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8}",
        "design", "nodes", "base(ms)", "elf(ms)", "base-AND", "elf-AND", "speedup", "ΔAND%"
    );
    for row in &comparisons {
        println!(
            "{:<12} {:>8} {:>10.2} {:>10.2} {:>9} {:>9} {:>7.2}x {:>+8.2}",
            row.name,
            row.nodes_before,
            row.baseline_runtime.as_secs_f64() * 1e3,
            row.elf_runtime.as_secs_f64() * 1e3,
            row.baseline_ands,
            row.elf_ands,
            row.speedup(),
            row.and_difference_percent(),
        );
    }

    println!();
    println!(
        "{:<12} {:>8} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "design", "recall", "accuracy", "TP", "TN", "FP", "FN"
    );
    for row in &qualities {
        let cm = row.confusion;
        println!(
            "{:<12} {:>7.1}% {:>8.1}% {:>8} {:>8} {:>8} {:>8}",
            row.name,
            cm.recall() * 100.0,
            cm.accuracy() * 100.0,
            cm.true_positives,
            cm.true_negatives,
            cm.false_positives,
            cm.false_negatives,
        );
    }

    let count = comparisons.len().max(1) as f64;
    let mean_speedup = (comparisons.iter().map(|r| r.speedup().ln()).sum::<f64>() / count).exp();
    let mean = |metric: fn(&elf::nn::ConfusionMatrix) -> f64| {
        qualities.iter().map(|r| metric(&r.confusion)).sum::<f64>() / count
    };
    let worst = comparisons
        .iter()
        .map(|r| r.and_difference_percent())
        .fold(0.0, f64::max);
    println!();
    println!(
        "mean speed-up {:.2}x, mean recall {:.1}%, mean accuracy {:.1}%, worst area loss {:+.2}%",
        mean_speedup,
        mean(elf::nn::ConfusionMatrix::recall) * 100.0,
        mean(elf::nn::ConfusionMatrix::accuracy) * 100.0,
        worst,
    );
}
