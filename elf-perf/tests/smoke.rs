//! Runs the benchmark's `--smoke` sizes end to end, the way the driver runs
//! it, and checks what it prints against `BENCHMARK.json`.
//!
//! `cargo test --release --manifest-path elf-perf/Cargo.toml`

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use elf_perf::json::Json;
use elf_perf::metrics::{END_TO_END, PER_LAYER};
use elf_perf::workloads::NAMES;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

/// `elf-perf run --smoke --trace --seed <seed>` into a fresh directory.
fn run_all(seed: u64, tag: &str) -> Json {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let status = Command::new(env!("CARGO_BIN_EXE_elf-perf"))
        .args([
            "run",
            "--smoke",
            "--trace",
            "--seed",
            &seed.to_string(),
            "--out",
        ])
        .arg(&out)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "elf-perf run failed for seed {seed}");
    Json::parse(&std::fs::read_to_string(out.join("result.json")).expect("result.json exists"))
        .expect("result.json parses")
}

/// Every exact value of one result, keyed by `workload/traced/name`.
fn exact_values(result: &Json) -> BTreeMap<String, f64> {
    let mut values = BTreeMap::new();
    for run in result.get("runs").and_then(Json::as_arr).expect("runs") {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .expect("workload");
        let traced = run.get("traced") == Some(&Json::Bool(true));
        for section in ["metrics", "extras"] {
            for (name, reading) in run.get(section).and_then(Json::as_obj).expect(section) {
                if reading.get("exact") == Some(&Json::Bool(true)) {
                    let value = reading.get("value").and_then(Json::as_f64).expect("value");
                    values.insert(format!("{workload}/{traced}/{name}"), value);
                }
            }
        }
    }
    values
}

#[test]
fn benchmark_json_lists_exactly_what_the_code_reports() {
    let benchmark = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String, String)> {
        let rows = benchmark.get(key).and_then(Json::as_arr).expect(key);
        rows.iter()
            .map(|row| {
                let text = |field: &str| {
                    row.get(field)
                        .and_then(Json::as_str)
                        .expect(field)
                        .to_string()
                };
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    };
    let coded = |defs: &[elf_perf::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    };
    assert_eq!(listed("end_to_end"), coded(&END_TO_END));
    assert_eq!(listed("per_layer"), coded(&PER_LAYER));
    for (row, def) in benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&END_TO_END)
    {
        assert_eq!(
            row.get("bound").and_then(Json::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
    let workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn one_process_prints_the_contract_line() {
    for (trace, defs) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
        let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-line");
        let output = Command::new(env!("CARGO_BIN_EXE_elf-perf"))
            .args(["--workload", "flow_cached", "--seed", "3", "--seconds", "1"])
            .args(["--trace", trace, "--smoke", "--out"])
            .arg(&out)
            .output()
            .expect("the benchmark starts");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        let line = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(
            line.get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "--trace {trace}");
        for def in defs {
            let reading = &metrics[def.name];
            assert_eq!(reading.get("unit").and_then(Json::as_str), Some(def.unit));
            let value = reading.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite(), "{} = {value}", def.name);
            if def.bound.is_some() {
                assert!(value > 0.0, "end-to-end {} must never read 0", def.name);
            }
        }
        if trace == "1" {
            assert!(out.join("flow_cached-trace.json").exists());
        }
    }
}

#[test]
fn a_seed_repeats_its_exact_values_and_another_seed_changes_the_inputs() {
    let first = exact_values(&run_all(7, "a"));
    let again = exact_values(&run_all(7, "b"));
    assert!(first.len() > 40, "only {} exact values", first.len());
    assert_eq!(first, again, "the same seed must repeat every exact value");

    let other = exact_values(&run_all(8, "c"));
    for workload in ["flow_cached", "serve_open"] {
        let prefix = format!("{workload}/false/");
        let changed = first
            .iter()
            .filter(|(key, _)| key.starts_with(&prefix))
            .any(|(key, value)| other[key] != *value);
        assert!(
            changed,
            "seed 8 left every exact value of {workload} unchanged"
        );
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "x"],
        &["--bogus"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_elf-perf"))
            .args(args)
            .output()
            .expect("starts")
            .status;
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}
