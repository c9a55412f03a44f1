//! # elf-bench
//!
//! Benchmark harness regenerating every table and figure of the ELF paper.
//!
//! The `paper` binary prints one paper artifact per subcommand:
//!
//! | Subcommand | Paper artifact |
//! |------------|----------------|
//! | `table1` | Table I — EPFL arithmetic circuit statistics |
//! | `table2` | Table II — industrial circuit statistics |
//! | `table3` | Table III — ABC refactor vs ELF on the arithmetic suite |
//! | `table4` | Table IV — ABC refactor vs ELF applied twice |
//! | `table5` | Table V — ABC refactor vs ELF on industrial designs |
//! | `table6` | Table VI — large synthetic circuits |
//! | `table7` | Table VII — classifier quality on the arithmetic suite |
//! | `table8` | Table VIII — classifier quality on industrial designs |
//! | `rewrite` | The conclusion's extension: the same protocol over rewrite |
//! | `fig1` | Figure 1 — redundancy / pruning flow percentages |
//! | `fig3` | Figure 3 — t-SNE embedding of the feature space (CSV) |
//! | `fig4` | Figure 4 — SHAP values per feature |
//! | `summary` | Headline numbers (average speed-up, worst-case area loss) |
//!
//! Every subcommand draws on one leave-one-out protocol,
//! [`elf_core::Suite`].  Beside it, `scale` pushes a 1M-AND circuit through
//! a pruned flow.
//!
//! All binaries accept `--scale tiny|default|paper` (default: `default`) to
//! trade fidelity against runtime, `--quick` for the cheapest smoke run,
//! `--epochs N` to cap training epochs, `--seed N` and `--threads N`; an
//! unknown flag or a malformed value is an error.
//! Absolute runtimes differ from the paper (the baseline is this
//! repository's own refactor implementation rather than ABC's C code), but
//! the relative behaviour — speed-up factors, near-zero area loss, recall and
//! accuracy ranges — is directly comparable.

use std::time::Duration;

use elf_circuits::epfl::{arithmetic_suite, Scale};
use elf_circuits::{industrial_suite, synthetic_suite};
use elf_core::experiment::{ComparisonRow, ExperimentConfig, QualityRow};
use elf_core::BenchCircuit;
use elf_nn::TrainConfig;
use elf_par::Parallelism;

/// Command-line options shared by every harness binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Benchmark size preset.
    pub scale: Scale,
    /// Training epochs.
    pub epochs: usize,
    /// Random seed.
    pub seed: u64,
    /// Worker-thread count (`--threads N`); `None` defers to `ELF_THREADS`.
    pub threads: Option<usize>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: Scale::Default,
            epochs: 30,
            seed: 0xE1F,
            threads: None,
        }
    }
}

impl HarnessOptions {
    /// Parses the harness flags in `args` (the arguments after the program
    /// name and any subcommand).  Later flags override earlier ones;
    /// `--scale` sets the whole size preset of its scale (circuit sizes and
    /// training epochs), and `--quick` is the tiny preset trained for three
    /// epochs, the cheapest smoke run.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument when a flag is unknown, lacks
    /// its value, or has a value that does not parse.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut options = HarnessOptions::default();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} is missing its value"))
            };
            match flag.as_str() {
                "--quick" => {
                    options.set_scale(Scale::Tiny);
                    options.epochs = 3;
                }
                "--scale" => {
                    let value = value()?;
                    options.set_scale(match value.as_str() {
                        "tiny" => Scale::Tiny,
                        "default" => Scale::Default,
                        "paper" => Scale::Paper,
                        _ => return Err(format!("--scale has unknown value `{value}`")),
                    });
                }
                "--epochs" => options.epochs = number(flag, value()?)?,
                "--seed" => options.seed = number(flag, value()?)?,
                // `--threads 0` means sequential, the same clamp as
                // `Parallelism::threads`.
                "--threads" => options.threads = Some(number::<usize>(flag, value()?)?.max(1)),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(options)
    }

    /// Applies the size preset of `scale`.
    fn set_scale(&mut self, scale: Scale) {
        self.scale = scale;
        self.epochs = match scale {
            Scale::Tiny => 10,
            Scale::Default | Scale::Paper => 30,
        };
    }

    /// Scale factor applied to the industrial circuit sizes at this preset.
    pub fn industrial_scale(&self) -> f64 {
        match self.scale {
            Scale::Tiny => 0.002,
            Scale::Default => 0.01,
            Scale::Paper => 1.0,
        }
    }

    /// Scale factor applied to the Table VI synthetic circuits at this
    /// preset.
    pub fn synthetic_scale(&self) -> f64 {
        match self.scale {
            Scale::Tiny => 0.0005,
            Scale::Default => 0.002,
            Scale::Paper => 1.0,
        }
    }

    /// The worker-thread count implied by these options: the `--threads`
    /// flag when given, the `ELF_THREADS` environment variable otherwise.
    pub fn parallelism(&self) -> Parallelism {
        self.threads.map(Parallelism::threads).unwrap_or_default()
    }

    /// The experiment configuration implied by these options.
    pub fn experiment_config(&self, applications: usize) -> ExperimentConfig {
        ExperimentConfig {
            parallelism: self.parallelism(),
            train: TrainConfig {
                epochs: self.epochs,
                // The generated workloads are more imbalanced than the EPFL
                // originals at reduced scale, so the harness trains with a
                // positive-class weight (the paper's loss ablation found
                // plain BCE sufficient on the original circuits).
                loss: elf_nn::Loss::WeightedBce { pos_weight: 20.0 },
                ..Default::default()
            },
            seed: self.seed,
            applications,
        }
    }

    /// Builds the EPFL-style arithmetic suite at the selected scale.
    pub fn epfl_circuits(&self) -> Vec<BenchCircuit> {
        arithmetic_suite(self.scale)
            .into_iter()
            .map(|(name, aig)| BenchCircuit::new(name, aig))
            .collect()
    }

    /// Builds the industrial-like suite at the selected scale.
    pub fn industrial_circuits(&self) -> Vec<BenchCircuit> {
        industrial_suite(self.industrial_scale(), self.seed)
            .into_iter()
            .map(|(name, aig)| BenchCircuit::new(name, aig))
            .collect()
    }

    /// Builds the large synthetic suite at the selected scale.
    pub fn synthetic_circuits(&self) -> Vec<BenchCircuit> {
        synthetic_suite(self.synthetic_scale(), self.seed)
            .into_iter()
            .map(|(name, aig)| BenchCircuit::new(name, aig))
            .collect()
    }
}

/// Parses the value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} has malformed value `{value}`"))
}

/// Removes a binary's own `flag value` pair from `args`, returning the
/// value, so the rest can go to [`HarnessOptions::parse`].
///
/// # Errors
///
/// A message when `flag` is the last argument, without its value.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(position) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if position + 1 == args.len() {
        return Err(format!("{flag} is missing its value"));
    }
    let value = args.remove(position + 1);
    args.remove(position);
    Ok(Some(value))
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// Prints a baseline-vs-ELF comparison table in the layout of Tables III–V.
pub fn print_comparison_table(title: &str, rows: &[ComparisonRow]) {
    println!("{title}");
    println!(
        "{:<14} {:>9} | {:>12} {:>9} {:>7} | {:>12} {:>9} {:>7} | {:>8} {:>8} {:>8}",
        "Design",
        "Nodes",
        "base ms",
        "And",
        "Level",
        "ELF ms",
        "And",
        "Level",
        "Speedup",
        "dAnd%",
        "dLvl%"
    );
    for row in rows {
        println!(
            "{:<14} {:>9} | {:>12.2} {:>9} {:>7} | {:>12.2} {:>9} {:>7} | {:>7.2}x {:>+8.2} {:>+8.2}",
            row.name,
            row.nodes_before,
            millis(row.baseline_runtime),
            row.baseline_ands,
            row.baseline_level,
            millis(row.elf_runtime),
            row.elf_ands,
            row.elf_level,
            row.speedup(),
            row.and_difference_percent(),
            row.level_difference_percent(),
        );
    }
    let mean_speedup = geometric_mean(rows.iter().map(ComparisonRow::speedup));
    let worst = rows
        .iter()
        .map(ComparisonRow::and_difference_percent)
        .fold(0.0, f64::max);
    println!("-- mean speed-up {mean_speedup:.2}x, worst-case And increase {worst:+.2}% --");
}

/// Prints a classifier-quality table in the layout of Tables VII/VIII.
pub fn print_quality_table(title: &str, rows: &[QualityRow]) {
    println!("{title}");
    println!(
        "{:<14} {:>8} {:>10} {:>8} {:>9} {:>8} {:>8}",
        "Design", "Recall", "Accuracy", "TP", "TN", "FP", "FN"
    );
    for row in rows {
        let cm = row.confusion;
        println!(
            "{:<14} {:>7.0}% {:>9.0}% {:>8} {:>9} {:>8} {:>8}",
            row.name,
            cm.recall() * 100.0,
            cm.accuracy() * 100.0,
            cm.true_positives,
            cm.true_negatives,
            cm.false_positives,
            cm.false_negatives,
        );
    }
    let mean_recall: f64 =
        rows.iter().map(|r| r.confusion.recall()).sum::<f64>() / rows.len().max(1) as f64;
    let mean_accuracy: f64 =
        rows.iter().map(|r| r.confusion.accuracy()).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "-- mean recall {:.1}%, mean accuracy {:.1}% --",
        mean_recall * 100.0,
        mean_accuracy * 100.0
    );
}

/// Geometric mean of an iterator of positive numbers (1.0 when empty).
pub fn geometric_mean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for value in values {
        sum += value.max(1e-12).ln();
        count += 1;
    }
    if count == 0 {
        1.0
    } else {
        (sum / count as f64).exp()
    }
}

/// Reference values reported by the paper, used to print the "paper vs
/// measured" comparison that EXPERIMENTS.md records.
pub mod paper {
    /// Average speed-up on the EPFL arithmetic circuits (Table III).
    pub const EPFL_MEAN_SPEEDUP: f64 = 5.29;
    /// Worst-case And increase on the EPFL circuits, percent (Table III).
    pub const EPFL_WORST_AND_INCREASE: f64 = 0.27;
    /// Average speed-up on the industrial designs (Table V).
    pub const INDUSTRIAL_MEAN_SPEEDUP: f64 = 2.80;
    /// Worst-case And increase on industrial designs, percent (Table V).
    pub const INDUSTRIAL_WORST_AND_INCREASE: f64 = 0.08;
    /// Average speed-up over all designs reported in the abstract.
    pub const OVERALL_MEAN_SPEEDUP: f64 = 3.9;
    /// Per-design speed-up range on the synthetic circuits (Table VI).
    pub const SYNTHETIC_SPEEDUPS: [(&str, f64); 3] =
        [("sixteen", 2.97), ("twenty", 2.87), ("twentythree", 2.85)];
    /// Average recall/accuracy on the EPFL circuits (Table VII).
    pub const EPFL_RECALL_RANGE: (f64, f64) = (0.76, 1.0);
    /// Average recall/accuracy on industrial designs (Table VIII).
    pub const INDUSTRIAL_RECALL_RANGE: (f64, f64) = (0.81, 1.0);
    /// Fraction of cuts the original refactor fails to improve (abstract).
    pub const FAILURE_RATE: f64 = 0.98;
    /// Range of cuts pruned by ELF (Figure 1).
    pub const PRUNED_RANGE: (f64, f64) = (0.694, 0.951);
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_core::Suite;

    fn parse(args: &[&str]) -> Result<HarnessOptions, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        HarnessOptions::parse(&args)
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean([4.0, 1.0].into_iter()) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(std::iter::empty()), 1.0);
    }

    #[test]
    fn options_default_and_config() {
        let options = HarnessOptions::default();
        assert_eq!(parse(&[]), Ok(options.clone()));
        let config = options.experiment_config(2);
        assert_eq!(config.applications, 2);
        assert_eq!(config.train.epochs, options.epochs);
    }

    #[test]
    fn every_flag_sets_its_field() {
        let quick = parse(&["--quick"]).expect("parses");
        assert_eq!(
            (
                quick.scale,
                quick.industrial_scale(),
                quick.synthetic_scale(),
                quick.epochs
            ),
            (Scale::Tiny, 0.002, 0.0005, 3)
        );
        let tiny = parse(&["--scale", "tiny"]).expect("parses");
        assert_eq!((tiny.scale, tiny.epochs), (Scale::Tiny, 10));
        let full = parse(&["--scale", "paper"]).expect("parses");
        assert_eq!(
            (full.scale, full.industrial_scale(), full.synthetic_scale()),
            (Scale::Paper, 1.0, 1.0)
        );
        assert_eq!(
            parse(&["--scale", "default"]),
            Ok(HarnessOptions::default())
        );
        assert_eq!(parse(&["--epochs", "7"]).map(|o| o.epochs), Ok(7));
        assert_eq!(parse(&["--seed", "42"]).map(|o| o.seed), Ok(42));
        assert_eq!(parse(&["--threads", "3"]).map(|o| o.threads), Ok(Some(3)));
        assert_eq!(parse(&["--threads", "0"]).map(|o| o.threads), Ok(Some(1)));
    }

    #[test]
    fn later_flags_override_earlier_ones() {
        // `--scale` after `--quick` sets its own whole preset...
        let options = parse(&["--quick", "--scale", "default"]).expect("parses");
        assert_eq!(options, HarnessOptions::default());
        let options = parse(&["--quick", "--scale", "tiny"]).expect("parses");
        assert_eq!((options.scale, options.epochs), (Scale::Tiny, 10));
        // ...and an explicit `--epochs` after either wins.
        let options = parse(&["--quick", "--epochs", "5"]).expect("parses");
        assert_eq!((options.scale, options.epochs), (Scale::Tiny, 5));
    }

    #[test]
    fn bad_arguments_are_errors() {
        let error = |args: &[&str]| parse(args).expect_err("must not parse");
        assert_eq!(error(&["--frobnicate"]), "unknown argument `--frobnicate`");
        assert_eq!(error(&["table3"]), "unknown argument `table3`");
        assert_eq!(
            error(&["--scale", "huge"]),
            "--scale has unknown value `huge`"
        );
        assert_eq!(
            error(&["--epochs", "many"]),
            "--epochs has malformed value `many`"
        );
        assert_eq!(error(&["--seed", "-1"]), "--seed has malformed value `-1`");
        assert_eq!(
            error(&["--threads", "2.5"]),
            "--threads has malformed value `2.5`"
        );
        for flag in ["--scale", "--epochs", "--seed", "--threads"] {
            assert_eq!(error(&[flag]), format!("{flag} is missing its value"));
        }
    }

    #[test]
    fn take_flag_removes_the_pair() {
        let mut args: Vec<String> = ["--quick", "--nodes", "9", "--seed", "1"]
            .iter()
            .map(|a| a.to_string())
            .collect();
        assert_eq!(take_flag(&mut args, "--nodes"), Ok(Some("9".to_string())));
        assert_eq!(args, ["--quick", "--seed", "1"]);
        assert_eq!(take_flag(&mut args, "--nodes"), Ok(None));
        let mut args = vec!["--nodes".to_string()];
        assert_eq!(
            take_flag(&mut args, "--nodes"),
            Err("--nodes is missing its value".to_string())
        );
    }

    #[test]
    fn cached_suite_trains_and_compares_on_tiny_circuits() {
        let options = parse(&["--scale", "tiny", "--epochs", "3"]).expect("parses");
        let suite = Suite::refactor(options.epfl_circuits(), options.experiment_config(1));
        assert_eq!(suite.circuits().len(), 6);
        assert_eq!(suite.datasets().len(), 6);
        let classifier = suite.train(Some(0));
        let row = suite.compare(&suite.circuits()[0], &classifier);
        assert!(row.nodes_before > 0);
        let quality = suite.quality(&suite.circuits()[0], &classifier);
        assert_eq!(quality.confusion.total(), suite.datasets()[0].len());
    }
}
