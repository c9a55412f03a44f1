//! Headline summary: the abstract's numbers (average speed-up and quality
//! loss) measured over both suites.

use elf_bench::{geometric_mean, paper, CachedSuite, HarnessOptions};
use elf_core::ComparisonRow;

fn main() {
    let options = HarnessOptions::from_args();
    println!(
        "ELF reproduction summary (scale {:?}, industrial scale {})",
        options.scale, options.industrial_scale
    );

    let epfl = CachedSuite::new(options.epfl_circuits(), options.experiment_config(1));
    let epfl_rows = epfl.comparison_rows();
    let industrial = CachedSuite::new(options.industrial_circuits(), options.experiment_config(1));
    let industrial_rows = industrial.comparison_rows();

    let speedup = |rows: &[ComparisonRow]| geometric_mean(rows.iter().map(ComparisonRow::speedup));
    let worst = |rows: &[ComparisonRow]| {
        rows.iter()
            .map(ComparisonRow::and_difference_percent)
            .fold(0.0, f64::max)
    };

    let all: Vec<ComparisonRow> = epfl_rows
        .iter()
        .chain(industrial_rows.iter())
        .cloned()
        .collect();

    println!();
    println!("holds? = the measured figure is at least as good as the paper's on that row");
    println!("(speed-up >= the paper's, worst area loss <= the paper's)");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "", "measured", "paper", "holds?"
    );
    let check = |measured: f64, reference: f64, higher_is_better: bool| -> &'static str {
        let holds = if higher_is_better {
            measured >= reference
        } else {
            measured <= reference
        };
        if holds {
            "yes"
        } else {
            "no"
        }
    };
    let epfl_speedup = speedup(&epfl_rows);
    let industrial_speedup = speedup(&industrial_rows);
    let overall_speedup = speedup(&all);
    println!(
        "{:<28} {:>11.2}x {:>11.2}x {:>12}",
        "arithmetic mean speed-up",
        epfl_speedup,
        paper::EPFL_MEAN_SPEEDUP,
        check(epfl_speedup, paper::EPFL_MEAN_SPEEDUP, true)
    );
    println!(
        "{:<28} {:>11.2}x {:>11.2}x {:>12}",
        "industrial mean speed-up",
        industrial_speedup,
        paper::INDUSTRIAL_MEAN_SPEEDUP,
        check(industrial_speedup, paper::INDUSTRIAL_MEAN_SPEEDUP, true)
    );
    println!(
        "{:<28} {:>11.2}x {:>11.2}x {:>12}",
        "overall mean speed-up",
        overall_speedup,
        paper::OVERALL_MEAN_SPEEDUP,
        check(overall_speedup, paper::OVERALL_MEAN_SPEEDUP, true)
    );
    println!(
        "{:<28} {:>+11.2}% {:>+11.2}% {:>12}",
        "arithmetic worst area loss",
        worst(&epfl_rows),
        paper::EPFL_WORST_AND_INCREASE,
        check(worst(&epfl_rows), paper::EPFL_WORST_AND_INCREASE, false)
    );
    println!(
        "{:<28} {:>+11.2}% {:>+11.2}% {:>12}",
        "industrial worst area loss",
        worst(&industrial_rows),
        paper::INDUSTRIAL_WORST_AND_INCREASE,
        check(
            worst(&industrial_rows),
            paper::INDUSTRIAL_WORST_AND_INCREASE,
            false
        )
    );
    println!();
    println!("For reference, the paper's industrial acceptance criterion is looser than its");
    println!("results: a speed-up of at least 1.25x with an area degradation below 0.5 %.");
}
