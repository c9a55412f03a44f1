//! Cut-cache benchmark: the PR 9 NPN-canonical factoring-cache experiment.
//!
//! The job set is the determinism-suite circuits (the scripted random
//! circuits the serving layer's determinism stress tests hammer).  The
//! harness runs them twice through one [`ElfService`] — a cold epoch that
//! populates the service-lifetime cache and a warm epoch that must hit it —
//! and reports per-epoch hit rates plus wall-clock, then repeats the warm
//! epoch against a cache-disabled service to show the cache never changes a
//! served result (node counts must match job for job).
//!
//! The run **fails** if the warm epoch records zero cache hits: cross-job
//! persistence is the acceptance criterion, not an incidental detail.
//!
//! `--quick` shrinks the job set and training for the CI smoke run;
//! `--json <path>` persists machine-readable results
//! (`target/cutcache.json` in CI).

use std::process::ExitCode;
use std::time::{Duration, Instant};

use elf_aig::Aig;
use elf_bench::{write_json_file, HarnessOptions, Json};
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{circuit_dataset, CutCacheConfig, ElfClassifier, ElfOptions};
use elf_nn::TrainConfig;
use elf_opt::RefactorParams;
use elf_serve::{ElfService, ServeConfig};

const SCRIPT: &str = "rf; rw; rs";

/// The scripted random circuits of the serve determinism suite (same
/// generator parameters as `crates/serve/tests/determinism.rs`).
fn determinism_suite(jobs: usize) -> Vec<(String, Aig)> {
    (0..jobs)
        .map(|job| {
            let gates: Vec<GateChoice> = (0..20 + (job % 5) * 6)
                .map(|i| ((i + job) as u8, 3 * i + job, 5 * i + 1, 7 * i + 2 * job))
                .collect();
            let aig = scripted_circuit(4 + job % 3, &gates);
            (format!("scripted{job:02}"), aig)
        })
        .collect()
}

/// One epoch's aggregate over the whole job set.
struct EpochReport {
    label: &'static str,
    jobs: usize,
    hits: u64,
    misses: u64,
    nodes_after: Vec<usize>,
    wall: Duration,
}

impl EpochReport {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Runs every suite circuit through `service` once, collecting per-job
/// cache counters and result sizes.
fn run_epoch(
    label: &'static str,
    service: &ElfService,
    suite: &[(String, Aig)],
) -> Option<EpochReport> {
    let mut handle = service.handle();
    let started = Instant::now();
    let mut hits = 0;
    let mut misses = 0;
    let mut nodes_after = Vec::with_capacity(suite.len());
    for (name, aig) in suite {
        let response = match handle.run_sync(aig.clone(), SCRIPT) {
            Ok(response) => response,
            Err(error) => {
                eprintln!("cutcache bench: submitting {name} failed: {error}");
                return None;
            }
        };
        if response.failed {
            eprintln!("cutcache bench: {name} came back failed");
            return None;
        }
        hits += response.stats.cache_hits;
        misses += response.stats.cache_misses;
        nodes_after.push(response.stats.nodes_after);
    }
    Some(EpochReport {
        label,
        jobs: suite.len(),
        hits,
        misses,
        nodes_after,
        wall: started.elapsed(),
    })
}

fn millis(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let options = HarnessOptions::from_args();
    let quick = options.epochs <= 3;
    let suite = determinism_suite(if quick { 8 } else { 15 });

    // One small trainer circuit feeds the classifier — the experiment
    // measures the factoring cache, not classifier quality.
    let trainer = elf_circuits::epfl::arithmetic_circuit("square", options.scale);
    let data = circuit_dataset(&trainer, &RefactorParams::default());
    let train = TrainConfig {
        epochs: options.epochs,
        ..TrainConfig::default()
    };
    let (classifier, _) = ElfClassifier::fit(&data, &train, options.seed);

    let config = ServeConfig {
        shards: options.parallelism(),
        ..ServeConfig::default()
    };
    let service = ElfService::start(classifier.clone(), config);
    let Some(cold) = run_epoch("cold", &service, &suite) else {
        return ExitCode::FAILURE;
    };
    let Some(warm) = run_epoch("warm", &service, &suite) else {
        return ExitCode::FAILURE;
    };
    let lifetime = service.shutdown().cut_cache;

    // The control: an identical service with the cache disabled must land
    // on identical node counts, job for job.
    let uncached_service = ElfService::start(
        classifier,
        ServeConfig {
            options: ElfOptions {
                cut_cache: CutCacheConfig::disabled(),
                ..config.options
            },
            ..config
        },
    );
    let Some(uncached) = run_epoch("uncached", &uncached_service, &suite) else {
        return ExitCode::FAILURE;
    };
    uncached_service.shutdown();

    for epoch in [&cold, &warm, &uncached] {
        println!(
            "{:<9} {:>2} jobs | {:>5} hits {:>5} misses ({:>5.1}% hit rate) | {:>9.2} ms",
            epoch.label,
            epoch.jobs,
            epoch.hits,
            epoch.misses,
            epoch.hit_rate() * 100.0,
            millis(epoch.wall),
        );
    }
    println!(
        "-- lifetime: {} entries, {} hits / {} misses ({:.1}% hit rate) --",
        lifetime.entries,
        lifetime.hits,
        lifetime.misses,
        lifetime.hit_rate() * 100.0,
    );

    let results_match = warm.nodes_after == uncached.nodes_after;
    let warm_hits = warm.hits > 0;
    if !results_match {
        eprintln!("cutcache bench: cached and uncached services served different node counts");
    }
    if !warm_hits {
        eprintln!("cutcache bench: the warm epoch recorded zero cache hits");
    }

    if let Some(path) = &options.json {
        let epochs: Vec<Json> = [&cold, &warm, &uncached]
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    Json::field("epoch", Json::Str(e.label.to_string())),
                    Json::field("jobs", Json::Int(e.jobs as i64)),
                    Json::field("cache_hits", Json::Int(e.hits as i64)),
                    Json::field("cache_misses", Json::Int(e.misses as i64)),
                    Json::field("hit_rate", Json::Num(e.hit_rate())),
                    Json::field("wall_ms", Json::Num(millis(e.wall))),
                ])
            })
            .collect();
        write_json_file(
            path,
            &Json::Obj(vec![
                Json::field("bench", Json::Str("cutcache".to_string())),
                Json::field("script", Json::Str(SCRIPT.to_string())),
                Json::field("seed", Json::Int(options.seed as i64)),
                Json::field("threads", Json::Str(options.parallelism().to_string())),
                Json::field("epochs", Json::Arr(epochs)),
                Json::field("lifetime_entries", Json::Int(lifetime.entries as i64)),
                Json::field("lifetime_hits", Json::Int(lifetime.hits as i64)),
                Json::field("lifetime_misses", Json::Int(lifetime.misses as i64)),
                Json::field("lifetime_hit_rate", Json::Num(lifetime.hit_rate())),
                Json::field("warm_epoch_hit", Json::Bool(warm_hits)),
                Json::field("results_match_uncached", Json::Bool(results_match)),
            ]),
        );
    }

    if results_match && warm_hits {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
