//! Equivalence-checking benchmark: the correctness-gate experiment.
//!
//! The circuit set is the determinism-suite job set (the scripted random
//! circuits the serving layer's determinism stress tests hammer) plus all six
//! arithmetic benchmarks, always at `Scale::Tiny` width (SAT hardness grows
//! exponentially with operand width).  Divider and multiplier miters are the
//! classical worst case for a monolithic CDCL query; the sweep's
//! topological order proves them pair by pair, so they are gated like the
//! rest.
//!
//! For every circuit the harness
//!
//! 1. runs the full pruned `rf; rw; rs` flow twice — once under
//!    [`VerifyMode::Final`], once under [`VerifyMode::PerStage`] — and
//!    demands a SAT proof of equivalence from every check,
//! 2. re-checks golden-vs-optimized standalone through
//!    [`elf_cec::check_equivalence_with`] to collect sweep statistics
//!    (candidate classes, proved/refuted pairs, SAT calls, conflicts),
//! 3. injects an output flip into the optimized circuit and demands a
//!    refutation whose counterexample replays to a real disagreement.
//!
//! `--quick` shrinks everything to the CI smoke size; `--json <path>`
//! persists the machine-readable results (`target/cec.json` in CI).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use elf_bench::{write_json_file, HarnessOptions, Json};
use elf_cec::{check_equivalence_with, CecParams, Equivalence};
use elf_circuits::epfl::Scale;
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{circuit_dataset, ElfClassifier, ElfOptions, Flow, VerifyMode};
use elf_nn::TrainConfig;
use elf_opt::RefactorParams;

const SCRIPT: &str = "rf; rw; rs";

/// The scripted random circuits of the serve determinism suite (same
/// generator parameters as `crates/serve/tests/determinism.rs`).
fn determinism_suite() -> Vec<(String, elf_aig::Aig)> {
    (0..15)
        .map(|job| {
            let gates: Vec<GateChoice> = (0..20 + (job % 5) * 6)
                .map(|i| ((i + job) as u8, 3 * i + job, 5 * i + 1, 7 * i + 2 * job))
                .collect();
            let aig = scripted_circuit(4 + job % 3, &gates);
            (format!("scripted{job:02}"), aig)
        })
        .collect()
}

/// Per-circuit outcome of the verification experiment.
struct CircuitReport {
    name: String,
    ands_before: usize,
    ands_after: usize,
    final_proved: bool,
    per_stage_proved: bool,
    per_stage_checks: usize,
    mutation_refuted: bool,
    candidate_classes: usize,
    proved_pairs: usize,
    disproved_pairs: usize,
    undecided_pairs: usize,
    sat_calls: usize,
    conflicts: u64,
    verify_time: Duration,
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match HarnessOptions::parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: cec [--quick] [--scale tiny|default|paper] [--epochs N] [--seed N] \
                 [--threads N] [--json PATH]"
            );
            return ExitCode::from(2);
        }
    };

    // One small trainer circuit feeds the classifier used by every pruned
    // stage — the experiment measures the verifier, not classifier quality.
    let trainer = elf_circuits::epfl::arithmetic_circuit("square", options.scale);
    let data = circuit_dataset(&trainer, &RefactorParams::default());
    let train = TrainConfig {
        epochs: options.epochs,
        ..TrainConfig::default()
    };
    let (classifier, _) = ElfClassifier::fit(&data, &train, options.seed);

    let elf_options = ElfOptions {
        parallelism: options.parallelism(),
        ..ElfOptions::default()
    };

    let mut suite = determinism_suite();
    suite.extend(elf_circuits::arithmetic_suite(Scale::Tiny));

    let mut reports = Vec::new();
    let mut all_green = true;
    for (name, aig) in &suite {
        let report = run_circuit(name, aig, &classifier, elf_options);
        let green = report.final_proved && report.per_stage_proved && report.mutation_refuted;
        all_green &= green;
        println!(
            "{:<14} {:>8} -> {:>8} ands | final {} | per-stage {} ({} checks) | mutation {} | \
             {:>3} classes {:>4} proved {:>3} refuted {:>4} SAT calls {:>8} conflicts | {:>9.2} ms",
            report.name,
            report.ands_before,
            report.ands_after,
            verdict(report.final_proved),
            verdict(report.per_stage_proved),
            report.per_stage_checks,
            verdict(report.mutation_refuted),
            report.candidate_classes,
            report.proved_pairs,
            report.disproved_pairs,
            report.sat_calls,
            report.conflicts,
            millis(report.verify_time),
        );
        reports.push(report);
    }

    let proved = reports.iter().filter(|r| r.final_proved).count();
    let refuted = reports.iter().filter(|r| r.mutation_refuted).count();
    let undecided: usize = reports.iter().map(|r| r.undecided_pairs).sum();
    println!(
        "-- {proved}/{} flows proved, {refuted}/{} mutations refuted, {undecided} sweep pairs \
         undecided --",
        reports.len(),
        reports.len(),
    );

    if let Some(path) = &options.json {
        write_json_file(path, &results_json(&options, &reports));
    }

    if all_green {
        ExitCode::SUCCESS
    } else {
        eprintln!("cec bench: verification failed on at least one circuit");
        ExitCode::FAILURE
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PROVED "
    } else {
        "FAILED "
    }
}

fn run_circuit(
    name: &str,
    golden: &elf_aig::Aig,
    classifier: &ElfClassifier,
    elf_options: ElfOptions,
) -> CircuitReport {
    let started = Instant::now();

    // Full pruned flow under Final verification.
    let mut optimized = golden.clone();
    let final_stats = Flow::pruned_from_script(SCRIPT, classifier, elf_options)
        .expect("the benchmark script is well-formed")
        .with_verify(VerifyMode::Final)
        .run(&mut optimized);
    let final_proved = final_stats.verify.as_ref().is_some_and(|v| v.proved());

    // Same flow under PerStage verification (localizing any miscompile).
    let mut per_stage_aig = golden.clone();
    let per_stage_stats = Flow::pruned_from_script(SCRIPT, classifier, elf_options)
        .expect("the benchmark script is well-formed")
        .with_verify(VerifyMode::PerStage)
        .run(&mut per_stage_aig);
    let (per_stage_proved, per_stage_checks) = per_stage_stats
        .verify
        .as_ref()
        .map_or((false, 0), |v| (v.proved(), v.checks.len()));

    // Standalone golden-vs-optimized check, for the sweep statistics.
    let report = check_equivalence_with(golden, &optimized, &CecParams::default());
    let standalone_proved = report.result.is_proved();

    // Refutation: a single flipped output must yield a replayable witness.
    let mut broken = optimized.clone();
    let out = broken.outputs()[0];
    broken.set_output(0, !out);
    let mutation_refuted =
        match check_equivalence_with(golden, &broken, &CecParams::default()).result {
            Equivalence::CounterExample(witness) => {
                golden.evaluate(&witness) != broken.evaluate(&witness)
            }
            _ => false,
        };

    CircuitReport {
        name: name.to_string(),
        ands_before: final_stats.ands_before,
        ands_after: final_stats.ands_after,
        final_proved: final_proved && standalone_proved,
        per_stage_proved,
        per_stage_checks,
        mutation_refuted,
        candidate_classes: report.candidate_classes,
        proved_pairs: report.proved_pairs,
        disproved_pairs: report.disproved_pairs,
        undecided_pairs: report.undecided_pairs,
        sat_calls: report.sat_calls,
        conflicts: report.conflicts,
        verify_time: started.elapsed(),
    }
}

fn results_json(options: &HarnessOptions, reports: &[CircuitReport]) -> Json {
    let rows: Vec<Json> = reports
        .iter()
        .map(|r| {
            Json::Obj(vec![
                Json::field("design", Json::Str(r.name.clone())),
                Json::field("ands_before", Json::Int(r.ands_before as i64)),
                Json::field("ands_after", Json::Int(r.ands_after as i64)),
                Json::field("final_proved", Json::Bool(r.final_proved)),
                Json::field("per_stage_proved", Json::Bool(r.per_stage_proved)),
                Json::field("per_stage_checks", Json::Int(r.per_stage_checks as i64)),
                Json::field("mutation_refuted", Json::Bool(r.mutation_refuted)),
                Json::field("candidate_classes", Json::Int(r.candidate_classes as i64)),
                Json::field("proved_pairs", Json::Int(r.proved_pairs as i64)),
                Json::field("disproved_pairs", Json::Int(r.disproved_pairs as i64)),
                Json::field("undecided_pairs", Json::Int(r.undecided_pairs as i64)),
                Json::field("sat_calls", Json::Int(r.sat_calls as i64)),
                Json::field("conflicts", Json::Int(r.conflicts as i64)),
                Json::field("verify_ms", Json::Num(millis(r.verify_time))),
            ])
        })
        .collect();
    Json::Obj(vec![
        Json::field("bench", Json::Str("cec".to_string())),
        Json::field("script", Json::Str(SCRIPT.to_string())),
        Json::field("scale", Json::Str(format!("{:?}", options.scale))),
        Json::field("seed", Json::Int(options.seed as i64)),
        Json::field("threads", Json::Str(options.parallelism().to_string())),
        Json::field("circuits", Json::Int(reports.len() as i64)),
        Json::field(
            "flows_proved",
            Json::Int(reports.iter().filter(|r| r.final_proved).count() as i64),
        ),
        Json::field(
            "mutations_refuted",
            Json::Int(reports.iter().filter(|r| r.mutation_refuted).count() as i64),
        ),
        Json::field("rows", Json::Arr(rows)),
    ])
}
