//! Scale proof for the struct-of-arrays AIG core: pushes a size-targeted
//! large circuit (1M+ AND nodes by default, ≈100k with `--quick`) through
//! cut enumeration and a full classifier-pruned `rf; rw; rs` flow, and
//! checks that free-list recycling keeps the arena proportional to the live
//! nodes across a second optimization pass.
//!
//! `--nodes N` overrides the gate target.  The final arena-density assertion
//! (slots ≤ 1.1× live nodes after re-optimizing an already-dense graph) is
//! the bench's regression gate: before slot recycling the arena only ever
//! grew.

use std::time::Instant;

use elf_bench::{take_flag, HarnessOptions};
use elf_circuits::{generate_large_circuit, scripted_circuit};
use elf_core::{circuit_dataset, ElfClassifier, ElfOptions, Flow};
use elf_nn::TrainConfig;
use elf_opt::{PrunableOperator, Refactor, RefactorParams};
use elf_par::Parallelism;

const USAGE: &str = "usage: scale [--quick] [--nodes N] [--epochs N] [--seed N] [--threads N]";

/// Parses the arguments after the program name into the harness options,
/// the `--quick` switch and the `--nodes` target.
fn parse_args(mut args: Vec<String>) -> Result<(HarnessOptions, bool, Option<usize>), String> {
    let nodes = match take_flag(&mut args, "--nodes")? {
        Some(value) => Some(
            value
                .parse()
                .map_err(|_| format!("--nodes has malformed value `{value}`"))?,
        ),
        None => None,
    };
    let quick = args.iter().any(|a| a == "--quick");
    Ok((HarnessOptions::parse(&args)?, quick, nodes))
}

fn main() {
    let (options, quick, nodes) =
        parse_args(std::env::args().skip(1).collect()).unwrap_or_else(|message| {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        });
    // Generation sheds ~40% of the gate budget as unreachable logic, so the
    // targets are set to land ≈100k (quick) / ≥1M (default) live ANDs.
    let target = nodes.unwrap_or(if quick { 160_000 } else { 1_700_000 });

    println!(
        "Scale bench: target {target} AND nodes, seed {}",
        options.seed
    );

    let gen_start = Instant::now();
    let mut aig = generate_large_circuit(target, options.seed);
    let gen_secs = gen_start.elapsed().as_secs_f64();
    println!(
        "generate: {:.2}s — {} ANDs, {} inputs, {} outputs, {} arena slots",
        gen_secs,
        aig.num_ands(),
        aig.num_inputs(),
        aig.num_outputs(),
        aig.num_slots()
    );

    // Cut enumeration over every live AND node (flow phase 1 at full width).
    let cut_start = Instant::now();
    let features = Refactor::default().collect_features_with(&aig, Parallelism::sequential());
    let cut_secs = cut_start.elapsed().as_secs_f64();
    println!(
        "cut enumeration: {:.2}s — {} cuts ({:.0} cuts/s)",
        cut_secs,
        features.len(),
        features.len() as f64 / cut_secs
    );
    drop(features);

    // A small scripted trainer is enough: the classifier's quality is not
    // under test here, only that the full pruned flow completes at scale.
    let trainer = scripted_circuit(
        6,
        &(0..40)
            .map(|i| (i as u8, 3 * i, 5 * i + 1, 7 * i))
            .collect::<Vec<_>>(),
    );
    let data = circuit_dataset(&trainer, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: options.epochs.min(5),
            ..Default::default()
        },
        options.seed,
    );
    let elf_options = ElfOptions {
        parallelism: options.parallelism(),
        ..ElfOptions::default()
    };
    let flow = Flow::pruned_from_script("rf; rw; rs", &classifier, elf_options).expect("script");

    let ands_before = aig.num_ands();
    let flow_start = Instant::now();
    flow.run(&mut aig);
    let flow_secs = flow_start.elapsed().as_secs_f64();
    let ratio_after_flow = aig.num_slots() as f64 / aig.num_live_nodes() as f64;
    println!(
        "pruned rf; rw; rs: {:.2}s — {} -> {} ANDs, arena {} slots ({:.3}x live)",
        flow_secs,
        ands_before,
        aig.num_ands(),
        aig.num_slots(),
        ratio_after_flow
    );

    // Re-optimize an already-dense graph: with slot recycling the arena must
    // stay within a whisker of the live nodes; without it, every speculative
    // candidate and every commit would leak a slot.
    let mut dense = aig.restrash();
    let churn_start = Instant::now();
    flow.run(&mut dense);
    let churn_secs = churn_start.elapsed().as_secs_f64();
    let ratio = dense.num_slots() as f64 / dense.num_live_nodes() as f64;
    println!(
        "churn pass on dense graph: {:.2}s — {} ANDs, arena {} slots ({:.3}x live)",
        churn_secs,
        dense.num_ands(),
        dense.num_slots(),
        ratio
    );
    assert!(
        ratio <= 1.1,
        "arena grew to {ratio:.3}x the live nodes — slot recycling regressed"
    );

    println!("scale bench passed (arena stays within 1.1x of live nodes).");
}
