//! The paper harness: one subcommand per table and figure of the ELF paper.
//!
//! ```text
//! paper <subcommand> [--quick] [--scale tiny|default|paper] [--epochs N]
//!       [--seed N] [--threads N] [--sweep-threads 1,2,4]
//! ```
//!
//! Every comparison and quality table runs the leave-one-out protocol of
//! [`Suite`]: each circuit is pruned by a classifier trained on the others.
//! `--threads N` (or `ELF_THREADS`) fans that protocol out one held-out
//! circuit per worker; the rows are identical for every thread count, only
//! the wall clock moves.  `--sweep-threads 1,2,4` makes `table1` recompute
//! its rows at each worker count and assert them identical.  An unknown subcommand, flag or value
//! exits with status 2 and the usage line.

use std::fs;
use std::time::{Duration, Instant};

use elf_aig::FEATURE_NAMES;
use elf_bench::{
    geometric_mean, paper, print_comparison_table, print_quality_table, take_flag, HarnessOptions,
};
use elf_core::experiment::{circuit_stats, CircuitStatsRow};
use elf_core::{collect_labeled_cuts, BenchCircuit, ComparisonRow, Parallelism, Suite};
use elf_opt::{RefactorParams, Rewrite, RewriteParams};
use elf_par::THREADS_ENV;

#[path = "../paper/shap.rs"]
mod shap;
#[path = "../paper/tsne.rs"]
mod tsne;

const USAGE: &str =
    "usage: paper <table1|table2|table3|table4|table5|table6|table7|table8|rewrite|\
fig1|fig3|fig4|summary> [--quick] [--scale tiny|default|paper] [--epochs N] [--seed N] \
[--threads N] [--sweep-threads 1,2,4 (table1)]";

/// A subcommand: prints one paper artifact.
type Artifact = fn(&Command);

/// Every subcommand with the function that prints its artifact.
const SUBCOMMANDS: [(&str, Artifact); 13] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("table8", table8),
    ("rewrite", rewrite),
    ("fig1", fig1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("summary", summary),
];

/// A parsed command line.
#[derive(Debug)]
struct Command {
    run: Artifact,
    options: HarnessOptions,
    /// `table1`'s `--sweep-threads` worker counts.
    sweep: Option<Vec<usize>>,
}

/// Parses the arguments after the program name.
fn parse_command(args: &[String]) -> Result<Command, String> {
    let (first, rest) = args.split_first().ok_or("missing subcommand")?;
    let &(name, run) = SUBCOMMANDS
        .iter()
        .find(|(name, _)| name == first)
        .ok_or_else(|| format!("unknown subcommand `{first}`"))?;
    let mut rest = rest.to_vec();
    let sweep = match take_flag(&mut rest, "--sweep-threads")? {
        Some(_) if name != "table1" => return Err("--sweep-threads applies to table1 only".into()),
        Some(list) => Some(thread_counts(&list)?),
        None => None,
    };
    let options = HarnessOptions::parse(&rest)?;
    Ok(Command {
        run,
        options,
        sweep,
    })
}

/// Parses a `1,2,4` worker-count list.
fn thread_counts(list: &str) -> Result<Vec<usize>, String> {
    list.split(',')
        .map(|count| match count.trim().parse() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!(
                "--sweep-threads has invalid thread count `{count}`"
            )),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_command(&args) {
        Ok(command) => (command.run)(&command),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Every circuit's Table I/II row, one circuit per worker.
fn stats_rows(
    circuits: &[BenchCircuit],
    parallelism: Parallelism,
) -> (Vec<CircuitStatsRow>, Duration) {
    let start = Instant::now();
    let rows = parallelism.map(circuits, |_, circuit| {
        circuit_stats(circuit, &RefactorParams::default())
    });
    (rows, start.elapsed())
}

/// Prints Table I/II rows, with `io` columns for the input and output
/// counts.
fn print_stats_rows(rows: &[CircuitStatsRow], io: usize) {
    println!(
        "{:<14} {:>9} {:>7} {:>io$} {:>io$} {:>18}",
        "Design", "And", "Level", "PIs", "POs", "Refactored"
    );
    for row in rows {
        println!(
            "{:<14} {:>9} {:>7} {:>io$} {:>io$} {:>10} ({:.2} %)",
            row.name,
            row.ands,
            row.level,
            row.inputs,
            row.outputs,
            row.refactored,
            row.refactored_fraction() * 100.0
        );
    }
}

/// Table I: statistics of the arithmetic circuits, including the fraction
/// of cuts the baseline refactor commits.  With `--sweep-threads` the rows
/// are recomputed at each worker count and asserted identical, so a
/// nondeterministic merge fails the run instead of corrupting the table.
fn table1(command: &Command) {
    let options = &command.options;
    let circuits = options.epfl_circuits();

    if let Some(counts) = &command.sweep {
        println!(
            "Table I thread sweep (scale {:?}, counts {:?})",
            options.scale, counts
        );
        let mut baseline: Option<(Duration, Vec<CircuitStatsRow>)> = None;
        for &threads in counts {
            let (rows, elapsed) = stats_rows(&circuits, Parallelism::threads(threads));
            match &baseline {
                None => {
                    println!(
                        "  {threads:>2} threads: {:>9.2} ms (baseline)",
                        millis(elapsed)
                    );
                    baseline = Some((elapsed, rows));
                }
                Some((base_time, base_rows)) => {
                    assert_eq!(
                        base_rows, &rows,
                        "thread count {threads} changed the table — nondeterministic merge"
                    );
                    let speedup = base_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
                    println!(
                        "  {threads:>2} threads: {:>9.2} ms ({speedup:.2}x vs {} thread{})",
                        millis(elapsed),
                        counts[0],
                        if counts[0] == 1 { "" } else { "s" }
                    );
                }
            }
        }
        let (_, rows) = baseline.expect("at least one sweep entry");
        println!();
        print_stats_rows(&rows, 6);
        return;
    }

    let parallelism = options.parallelism();
    let (rows, elapsed) = stats_rows(&circuits, parallelism);
    println!(
        "Table I: arithmetic circuit statistics (scale {:?}, {parallelism}; \
         set --threads N or {THREADS_ENV})",
        options.scale
    );
    print_stats_rows(&rows, 6);
    println!();
    println!("Computed in {:.2} ms on {parallelism}.", millis(elapsed));
    println!("Paper reference: refactored fraction ranges from 0.50 % (div) to 7.34 % (sqrt);");
    println!("the reproduction should land in the same sub-10 % regime.");
}

/// Table II: statistics of the industrial-like circuits.
fn table2(command: &Command) {
    let options = &command.options;
    println!(
        "Table II: industrial circuit statistics (size scale {}, seed {})",
        options.industrial_scale, options.seed
    );
    let (rows, _) = stats_rows(&options.industrial_circuits(), options.parallelism());
    print_stats_rows(&rows, 7);
    println!();
    println!("Paper reference: 77k-629k And nodes, depth 35-72, refactored 0.05 %-10.8 %.");
    println!("Run with --scale paper to generate full-size designs.");
}

/// Leave-one-out baseline-refactor-vs-ELF rows over `circuits`.
fn refactor_rows(
    options: &HarnessOptions,
    circuits: Vec<BenchCircuit>,
    applications: usize,
) -> Vec<ComparisonRow> {
    Suite::refactor(circuits, options.experiment_config(applications)).comparison_rows()
}

/// Table III: baseline refactor vs ELF on the arithmetic suite.
fn table3(command: &Command) {
    let options = &command.options;
    let rows = refactor_rows(options, options.epfl_circuits(), 1);
    print_comparison_table(
        &format!(
            "Table III: refactor vs ELF on arithmetic circuits (scale {:?}, {})",
            options.scale,
            options.parallelism()
        ),
        &rows,
    );
    println!();
    println!(
        "Paper reference: speed-ups 2.50x-7.69x (mean {:.2}x), And increase at most {:+.2} %, levels unchanged.",
        paper::EPFL_MEAN_SPEEDUP,
        paper::EPFL_WORST_AND_INCREASE
    );
}

/// Table IV: baseline refactor (applied once) vs ELF applied twice on the
/// arithmetic suite.
fn table4(command: &Command) {
    let options = &command.options;
    print_comparison_table(
        &format!(
            "Table IV: refactor vs ELF x 2 on arithmetic circuits (scale {:?})",
            options.scale
        ),
        &refactor_rows(options, options.epfl_circuits(), 2),
    );
    println!();
    println!("Paper reference: ELF x 2 keeps a 1.34x-3.38x speed-up and can reduce the area");
    println!("below the single baseline pass on the largest circuits (div, hyp).");
}

/// Table V: baseline refactor vs ELF on the industrial-like designs.
fn table5(command: &Command) {
    let options = &command.options;
    print_comparison_table(
        &format!(
            "Table V: refactor vs ELF on industrial circuits (size scale {})",
            options.industrial_scale
        ),
        &refactor_rows(options, options.industrial_circuits(), 1),
    );
    println!();
    println!(
        "Paper reference: speed-ups 2.01x-4.29x (mean {:.2}x), And increase at most {:+.2} %.",
        paper::INDUSTRIAL_MEAN_SPEEDUP,
        paper::INDUSTRIAL_WORST_AND_INCREASE
    );
}

/// Table VI: baseline refactor vs ELF on the large synthetic circuits, with
/// the classifier trained on the whole arithmetic suite: the synthetic
/// circuits are never part of training, as in the paper.
fn table6(command: &Command) {
    let options = &command.options;
    let suite = Suite::refactor(options.epfl_circuits(), options.experiment_config(1));
    let classifier = suite.train(None);
    let rows: Vec<ComparisonRow> = options
        .synthetic_circuits()
        .iter()
        .map(|circuit| suite.compare(circuit, &classifier))
        .collect();
    print_comparison_table(
        &format!(
            "Table VI: refactor vs ELF on large synthetic circuits (size scale {})",
            options.synthetic_scale
        ),
        &rows,
    );
    println!();
    println!("Paper reference (full-size circuits, 16M-23M nodes):");
    for (name, speedup) in paper::SYNTHETIC_SPEEDUPS {
        println!("  {name:<14} speed-up {speedup:.2}x, And difference below +0.07 %");
    }
    println!("Run with --scale paper for multi-million-node instances (hours of runtime).");
}

/// Table VII: classifier quality on the arithmetic suite (leave-one-out).
fn table7(command: &Command) {
    let options = &command.options;
    let suite = Suite::refactor(options.epfl_circuits(), options.experiment_config(1));
    print_quality_table(
        &format!(
            "Table VII: ELF classifier quality on arithmetic circuits (scale {:?})",
            options.scale
        ),
        &suite.quality_rows(),
    );
    println!();
    println!(
        "Paper reference: recall {:.0} %-{:.0} %, accuracy 77 %-96 %.",
        paper::EPFL_RECALL_RANGE.0 * 100.0,
        paper::EPFL_RECALL_RANGE.1 * 100.0
    );
}

/// Table VIII: classifier quality on the industrial-like designs
/// (leave-one-out).
fn table8(command: &Command) {
    let options = &command.options;
    let suite = Suite::refactor(options.industrial_circuits(), options.experiment_config(1));
    print_quality_table(
        &format!(
            "Table VIII: ELF classifier quality on industrial circuits (size scale {})",
            options.industrial_scale
        ),
        &suite.quality_rows(),
    );
    println!();
    println!(
        "Paper reference: recall {:.0} %-{:.0} %, accuracy 74 %-93 %.",
        paper::INDUSTRIAL_RECALL_RANGE.0 * 100.0,
        paper::INDUSTRIAL_RECALL_RANGE.1 * 100.0
    );
}

/// The rewrite extension (the paper conclusion's first target): the Table
/// III and VII protocol with `refactor` swapped for `rewrite`.  There is no
/// corresponding table in the paper.
fn rewrite(command: &Command) {
    let options = &command.options;
    let suite = Suite::new(
        options.epfl_circuits(),
        Rewrite::new(RewriteParams::default()),
        options.experiment_config(1),
    );
    let (comparisons, qualities): (Vec<_>, Vec<_>) = suite.rows().into_iter().unzip();
    print_comparison_table(
        &format!(
            "Rewrite extension: baseline rewrite vs ELF-pruned rewrite (scale {:?}, {})",
            options.scale,
            options.parallelism()
        ),
        &comparisons,
    );
    println!();
    print_quality_table("Rewrite-classifier quality (leave-one-out)", &qualities);
    println!();
    println!(
        "The paper prunes refactor only; this table extends the identical protocol to rewrite \
         (conclusion: \"the same methodology applies to other resynthesis operators\")."
    );
}

/// Figure 1: for every circuit of both suites, the fraction of cuts the
/// baseline refactor commits ("originally committed", 0.05 %-10.8 % in the
/// paper) and the fraction ELF prunes (69.4 %-95.1 % in the paper).
fn fig1(command: &Command) {
    let options = &command.options;
    let flow_rows = |circuits: Vec<BenchCircuit>| -> Vec<(String, f64, f64)> {
        let rows = refactor_rows(options, circuits, 1);
        rows.into_iter()
            .map(|row| {
                (
                    row.name.clone(),
                    row.baseline_stats.commit_rate(),
                    row.prune_rate(),
                )
            })
            .collect()
    };
    let report = |rows: &[(String, f64, f64)]| {
        println!(
            "{:<14} {:>22} {:>18}",
            "Design", "originally committed", "pruned by ELF"
        );
        for (name, committed, pruned) in rows {
            println!(
                "{:<14} {:>20.2} % {:>16.1} %",
                name,
                committed * 100.0,
                pruned * 100.0
            );
        }
        println!();
    };

    println!("Figure 1: redundancy in refactoring and the effect of ELF pruning");
    println!();
    println!("Arithmetic circuits (scale {:?}):", options.scale);
    let epfl_rows = flow_rows(options.epfl_circuits());
    report(&epfl_rows);
    println!(
        "Industrial circuits (size scale {}):",
        options.industrial_scale
    );
    let industrial_rows = flow_rows(options.industrial_circuits());
    report(&industrial_rows);

    let all: Vec<&(String, f64, f64)> = epfl_rows.iter().chain(&industrial_rows).collect();
    let mean_failure = 1.0 - all.iter().map(|(_, c, _)| c).sum::<f64>() / all.len().max(1) as f64;
    let mean_pruned = all.iter().map(|(_, _, p)| p).sum::<f64>() / all.len().max(1) as f64;
    println!(
        "Measured: {:.1} % of cuts fail to improve on average; ELF prunes {:.1} % of cuts.",
        mean_failure * 100.0,
        mean_pruned * 100.0
    );
    println!(
        "Paper:    {:.0} % of cuts fail on average; ELF prunes {:.1} %-{:.1} % of cuts.",
        paper::FAILURE_RATE * 100.0,
        paper::PRUNED_RANGE.0 * 100.0,
        paper::PRUNED_RANGE.1 * 100.0
    );
}

/// Figure 3: t-SNE of the cut-feature space.  Writes `fig3_tsne.csv`, one
/// row per sampled cut (the two embedding coordinates and the
/// refactored/not-refactored label, the colour of the paper's scatter plot),
/// and prints a coarse ASCII preview.
fn fig3(command: &Command) {
    // The paper plots the feature space of the evaluation circuits; sample a
    // bounded number of cuts per circuit to keep exact t-SNE tractable.
    let mut points = Vec::new();
    let mut labels = Vec::new();
    let per_circuit = 250usize;
    for circuit in &command.options.epfl_circuits() {
        let cuts = collect_labeled_cuts(&circuit.aig, &RefactorParams::default());
        // Keep all positives (they are rare) and a stride of negatives.
        let positives = cuts.iter().filter(|c| c.committed);
        let negatives = cuts.iter().filter(|c| !c.committed);
        let stride = (cuts.len() / per_circuit).max(1);
        for cut in positives.chain(negatives.step_by(stride)).take(per_circuit) {
            points.push(cut.features.to_array().iter().map(|&v| v as f64).collect());
            labels.push(cut.committed);
        }
    }
    println!(
        "Figure 3: embedding {} cuts ({} refactored) with exact t-SNE...",
        points.len(),
        labels.iter().filter(|&&l| l).count()
    );
    let embedding = tsne::tsne(
        &points,
        &tsne::TsneConfig {
            iterations: 250,
            perplexity: 30.0,
            ..Default::default()
        },
    );

    let mut csv = String::from("x,y,refactored\n");
    for (point, &label) in embedding.iter().zip(&labels) {
        csv.push_str(&format!("{},{},{}\n", point[0], point[1], u8::from(label)));
    }
    fs::write("fig3_tsne.csv", &csv).expect("write fig3_tsne.csv");
    println!("wrote fig3_tsne.csv ({} points)", embedding.len());

    // Coarse ASCII preview: positives are '#', negatives '.'.
    let width = 60usize;
    let height = 24usize;
    let (mut min_x, mut max_x, mut min_y, mut max_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for p in &embedding {
        min_x = min_x.min(p[0]);
        max_x = max_x.max(p[0]);
        min_y = min_y.min(p[1]);
        max_y = max_y.max(p[1]);
    }
    let mut grid = vec![vec![' '; width]; height];
    for (p, &label) in embedding.iter().zip(&labels) {
        let col = (((p[0] - min_x) / (max_x - min_x + 1e-9)) * (width - 1) as f64) as usize;
        let row = (((p[1] - min_y) / (max_y - min_y + 1e-9)) * (height - 1) as f64) as usize;
        let cell = &mut grid[row][col];
        if label {
            *cell = '#';
        } else if *cell == ' ' {
            *cell = '.';
        }
    }
    println!("ASCII preview ('#' = refactored, '.' = not refactored):");
    for row in grid {
        println!("  {}", row.into_iter().collect::<String>());
    }
}

/// Figure 4: SHAP values of the six cut features for a classifier trained
/// on the whole arithmetic suite.  The model is explained on the inputs it
/// sees: each circuit's cuts standardized with that circuit's own
/// statistics, the training rows.  Prints the mean and mean-absolute
/// Shapley value per feature and writes the per-instance attributions to
/// `fig4_shap.csv`.
fn fig4(command: &Command) {
    let options = &command.options;
    let suite = Suite::refactor(options.epfl_circuits(), options.experiment_config(1));
    let classifier = suite.train(None);

    let mut instances: Vec<Vec<f32>> = Vec::new();
    for dataset in suite.datasets() {
        let stride = (dataset.len() / 40).max(1);
        instances.extend(dataset.features().iter().step_by(stride).take(40).cloned());
    }
    let background: Vec<Vec<f32>> = instances.iter().step_by(8).take(32).cloned().collect();
    let model = |rows: &[Vec<f32>]| classifier.model().predict(rows);
    println!(
        "Figure 4: exact Shapley values over {} instances ({} background rows)",
        instances.len(),
        background.len()
    );
    let summary = shap::shap_summary(&model, &instances, &background);

    let mut csv = FEATURE_NAMES.join(",");
    csv.push('\n');
    for row in &summary.per_instance {
        let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        csv.push_str(&cells.join(","));
        csv.push('\n');
    }
    fs::write("fig4_shap.csv", &csv).expect("write fig4_shap.csv");
    println!("wrote fig4_shap.csv");
    println!();
    println!(
        "{:<22} {:>12} {:>14}",
        "feature", "mean SHAP", "mean |SHAP|"
    );
    let mut order: Vec<usize> = (0..FEATURE_NAMES.len()).collect();
    order.sort_by(|&a, &b| summary.mean_abs[b].total_cmp(&summary.mean_abs[a]));
    for feature in order {
        println!(
            "{:<22} {:>+12.5} {:>14.5}",
            FEATURE_NAMES[feature], summary.mean[feature], summary.mean_abs[feature]
        );
    }
    println!();
    println!("Paper reference: few reconvergent nodes push towards 'no refactor'; many");
    println!("leaves, high root level and large cut size also push towards 'no refactor'.");
}

/// The abstract's headline numbers (average speed-up and quality loss)
/// measured over both suites.
fn summary(command: &Command) {
    let options = &command.options;
    println!(
        "ELF reproduction summary (scale {:?}, industrial scale {})",
        options.scale, options.industrial_scale
    );
    let epfl_rows = refactor_rows(options, options.epfl_circuits(), 1);
    let industrial_rows = refactor_rows(options, options.industrial_circuits(), 1);
    let all: Vec<ComparisonRow> = epfl_rows.iter().chain(&industrial_rows).cloned().collect();

    let speedup = |rows: &[ComparisonRow]| geometric_mean(rows.iter().map(ComparisonRow::speedup));
    let worst = |rows: &[ComparisonRow]| {
        rows.iter()
            .map(ComparisonRow::and_difference_percent)
            .fold(0.0, f64::max)
    };
    let holds = |holds: bool| if holds { "yes" } else { "no" };

    println!();
    println!("holds? = the measured figure is at least as good as the paper's on that row");
    println!("(speed-up >= the paper's, worst area loss <= the paper's)");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "", "measured", "paper", "holds?"
    );
    for (label, measured, reference) in [
        (
            "arithmetic mean speed-up",
            speedup(&epfl_rows),
            paper::EPFL_MEAN_SPEEDUP,
        ),
        (
            "industrial mean speed-up",
            speedup(&industrial_rows),
            paper::INDUSTRIAL_MEAN_SPEEDUP,
        ),
        (
            "overall mean speed-up",
            speedup(&all),
            paper::OVERALL_MEAN_SPEEDUP,
        ),
    ] {
        println!(
            "{label:<28} {measured:>11.2}x {reference:>11.2}x {:>12}",
            holds(measured >= reference)
        );
    }
    for (label, measured, reference) in [
        (
            "arithmetic worst area loss",
            worst(&epfl_rows),
            paper::EPFL_WORST_AND_INCREASE,
        ),
        (
            "industrial worst area loss",
            worst(&industrial_rows),
            paper::INDUSTRIAL_WORST_AND_INCREASE,
        ),
    ] {
        println!(
            "{label:<28} {measured:>+11.2}% {reference:>+11.2}% {:>12}",
            holds(measured <= reference)
        );
    }
    println!();
    println!("For reference, the paper's industrial acceptance criterion is looser than its");
    println!("results: a speed-up of at least 1.25x with an area degradation below 0.5 %.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_circuits::epfl::Scale;

    fn parse(args: &[&str]) -> Result<Command, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_command(&args)
    }

    #[test]
    fn every_subcommand_parses_and_is_in_the_usage_line() {
        for (name, _) in SUBCOMMANDS {
            let command = parse(&[name, "--quick"]).expect("parses");
            assert_eq!(command.options.scale, Scale::Tiny);
            assert!(USAGE.contains(name), "{name} missing from the usage line");
        }
    }

    #[test]
    fn subcommand_specific_flags() {
        let command = parse(&["table1", "--sweep-threads", "1,2,4", "--quick"]).expect("parses");
        assert_eq!(command.sweep, Some(vec![1, 2, 4]));
        assert_eq!(command.options.epochs, 3);
        assert_eq!(parse(&["table3"]).map(|c| c.sweep), Ok(None));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let error = |args: &[&str]| parse(args).expect_err("must not parse");
        assert_eq!(error(&[]), "missing subcommand");
        assert_eq!(error(&["table9"]), "unknown subcommand `table9`");
        assert_eq!(error(&["--quick"]), "unknown subcommand `--quick`");
        assert_eq!(error(&["table3", "--bogus"]), "unknown argument `--bogus`");
        assert_eq!(
            error(&["table3", "--scale", "big"]),
            "--scale has unknown value `big`"
        );
        assert_eq!(
            error(&["table1", "--sweep-threads"]),
            "--sweep-threads is missing its value"
        );
        assert_eq!(
            error(&["table1", "--sweep-threads", "1,0"]),
            "--sweep-threads has invalid thread count `0`"
        );
        assert_eq!(
            error(&["table1", "--sweep-threads", "1,x"]),
            "--sweep-threads has invalid thread count `x`"
        );
        assert_eq!(
            error(&["table3", "--sweep-threads", "1,2"]),
            "--sweep-threads applies to table1 only"
        );
        assert_eq!(
            error(&["table3", "--json", "t.json"]),
            "unknown argument `--json`"
        );
    }
}
