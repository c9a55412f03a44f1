//! Serving throughput: jobs/sec of the `ElfService` vs shard count,
//! comparing one-job-at-a-time `run_sync` against submit-all-then-drain.
//!
//! Every configuration's results are checked identical via simulation
//! fingerprints before its throughput is reported — the bench doubles as a
//! serving-determinism smoke test.  `--quick` shrinks the workload for CI;
//! `--seed N` varies the circuits; `--threads N` sets the *within-job*
//! engine parallelism (shard counts are swept independently).
//!
//! Like the PR 4 thread-sweep bench: on a single-core container the sweep
//! measures oversubscription rather than the speed-up the shards deliver on
//! real multicore hardware.
//!
//! `--overload` switches to the admission-control scenario instead: a tiny
//! queue bound under several concurrent clients, once per admission policy
//! (`Block`, `Reject`, `Timeout`).  Shed counts come from [`elf_serve::ServiceStats`],
//! and every *accepted* job is verified bit-identical to the offline flow —
//! load shedding changes which jobs run, never what an accepted job
//! computes.

use std::time::Instant;

use elf_aig::{simulation_signature, Aig};
use elf_bench::{write_json_file, HarnessOptions, Json};
use elf_circuits::scripted_circuit;
use elf_core::{circuit_dataset, ElfClassifier, ElfOptions, Flow};
use elf_nn::TrainConfig;
use elf_obs::metrics::Histogram;
use elf_opt::RefactorParams;
use elf_par::Parallelism;
use elf_serve::{AdmissionPolicy, ElfService, ServeConfig, ServeStats};

/// Per-job latency accounting for one service run: admission wait and
/// worker service time, recorded into `elf-obs` log-bucketed histograms so
/// the bench reports tail quantiles (p50/p99), not just means.
#[derive(Clone)]
struct LatencyHists {
    queued: Histogram,
    service: Histogram,
}

impl LatencyHists {
    fn new() -> Self {
        LatencyHists {
            queued: Histogram::new(),
            service: Histogram::new(),
        }
    }

    fn record(&self, stats: &ServeStats) {
        self.queued.record_duration(stats.queued_time);
        self.service.record_duration(stats.service_time);
    }

    /// `(queued_p50, queued_p99, service_p50, service_p99)`, microseconds.
    fn quantiles_us(&self) -> (u64, u64, u64, u64) {
        let queued = self.queued.snapshot("queued_us".to_string());
        let service = self.service.snapshot("service_us".to_string());
        (queued.p50(), queued.p99(), service.p50(), service.p99())
    }

    fn json_fields(&self, prefix: &str) -> Vec<(String, Json)> {
        let (qp50, qp99, sp50, sp99) = self.quantiles_us();
        vec![
            Json::field(&format!("{prefix}queued_p50_us"), Json::Int(qp50 as i64)),
            Json::field(&format!("{prefix}queued_p99_us"), Json::Int(qp99 as i64)),
            Json::field(&format!("{prefix}service_p50_us"), Json::Int(sp50 as i64)),
            Json::field(&format!("{prefix}service_p99_us"), Json::Int(sp99 as i64)),
        ]
    }
}

/// One benchmark workload: scripted circuits paired with flow scripts.
fn workload(jobs: usize, gates: usize, seed: u64) -> Vec<(Aig, &'static str)> {
    let scripts = ["rf; rw; rs", "rf; rs", "rw; rf"];
    (0..jobs)
        .map(|job| {
            let salt = job as u64 * 31 + seed;
            let script: Vec<(u8, usize, usize, usize)> = (0..gates + job % 7)
                .map(|i| {
                    (
                        (i as u64 + salt) as u8,
                        3 * i + job,
                        5 * i + 1 + (salt as usize % 5),
                        7 * i,
                    )
                })
                .collect();
            (
                scripted_circuit(4 + job % 4, &script),
                scripts[job % scripts.len()],
            )
        })
        .collect()
}

/// Serves the whole workload with `run_sync`, one job at a time.
fn run_sync_all(
    service: &ElfService,
    jobs: &[(Aig, &'static str)],
    latency: &LatencyHists,
) -> (Vec<u64>, f64) {
    let mut handle = service.handle();
    let start = Instant::now();
    let signatures = jobs
        .iter()
        .map(|(aig, script)| {
            let response = handle.run_sync(aig.clone(), script).expect("run_sync");
            latency.record(&response.stats);
            simulation_signature(&response.aig, 8, 0xE1F)
        })
        .collect();
    (signatures, start.elapsed().as_secs_f64())
}

/// Serves the whole workload as one burst: submit everything, then drain.
fn run_drain_all(
    service: &ElfService,
    jobs: &[(Aig, &'static str)],
    latency: &LatencyHists,
) -> (Vec<u64>, f64) {
    let mut handle = service.handle();
    let start = Instant::now();
    let ids: Vec<_> = jobs
        .iter()
        .map(|(aig, script)| handle.submit(aig.clone(), script).expect("submit"))
        .collect();
    let mut signatures = vec![0u64; jobs.len()];
    while let Some(response) = handle.recv() {
        let index = ids
            .iter()
            .position(|id| *id == response.job_id)
            .expect("own job");
        latency.record(&response.stats);
        signatures[index] = simulation_signature(&response.aig, 8, 0xE1F);
    }
    (signatures, start.elapsed().as_secs_f64())
}

/// The offline per-job reference signatures: each job through
/// `Flow::pruned_from_script` with the serving options.
fn offline_signatures(
    jobs: &[(Aig, &'static str)],
    classifier: &ElfClassifier,
    options: ElfOptions,
) -> Vec<u64> {
    jobs.iter()
        .map(|(aig, script)| {
            let mut aig = aig.clone();
            Flow::pruned_from_script(script, classifier, options)
                .expect("script parses")
                .run(&mut aig);
            simulation_signature(&aig, 8, 0xE1F)
        })
        .collect()
}

/// The `--overload` scenario: saturate a tiny admission queue from several
/// clients under each policy; report throughput and shed counts, verify
/// every accepted job against the offline flow.
fn run_overload(options: &HarnessOptions, quick: bool, classifier: &ElfClassifier) {
    let (clients, per_client, gates) = if quick { (3, 12, 20) } else { (4, 30, 40) };
    let queue_bound = 4;
    let total = clients * per_client;
    let jobs = workload(total, gates, options.seed);

    println!(
        "Serve overload: {clients} clients x {per_client} jobs, queue bound {queue_bound}, \
         shards 2 (within-job engine: {})",
        options.parallelism()
    );
    println!(
        "{:<12} | {:>8} {:>8} {:>9} {:>9} | {:>10} {:>9}",
        "policy", "accepted", "rejected", "timed_out", "served", "wall ms", "jobs/s"
    );

    let policies: &[(&str, AdmissionPolicy)] = &[
        ("block", AdmissionPolicy::Block),
        ("reject", AdmissionPolicy::Reject),
        ("timeout(5)", AdmissionPolicy::Timeout(5)),
    ];
    let mut json_rows: Vec<Json> = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for &(name, admission) in policies {
        let config = ServeConfig {
            shards: Parallelism::threads(2),
            queue_bound,
            admission,
            options: ElfOptions {
                parallelism: options.parallelism(),
                ..ElfOptions::default()
            },
            ..Default::default()
        };
        let service = ElfService::start(classifier.clone(), config);
        let offline = reference
            .get_or_insert_with(|| offline_signatures(&jobs, classifier, service.options()));

        let latency = LatencyHists::new();
        let start = Instant::now();
        let accepted: usize = std::thread::scope(|scope| {
            (0..clients)
                .map(|client| {
                    let mut handle = service.handle();
                    let jobs = &jobs;
                    let offline = &*offline;
                    let latency = latency.clone();
                    scope.spawn(move || {
                        let mut submitted = Vec::new();
                        for slot in 0..per_client {
                            let index = client * per_client + slot;
                            let (aig, script) = &jobs[index];
                            // Shed submissions hand the circuit back; the
                            // bench just drops it (a real client would
                            // retry or fail over).
                            if let Ok(id) = handle.submit(aig.clone(), script) {
                                submitted.push((index, id));
                            }
                        }
                        let mut delivered = 0usize;
                        while let Some(response) = handle.recv() {
                            assert!(!response.failed, "no served job may fail");
                            latency.record(&response.stats);
                            let (index, _) = submitted
                                .iter()
                                .find(|(_, id)| *id == response.job_id)
                                .expect("own job");
                            assert_eq!(
                                simulation_signature(&response.aig, 8, 0xE1F),
                                offline[*index],
                                "accepted job {index} diverged from the offline flow"
                            );
                            delivered += 1;
                        }
                        assert_eq!(delivered, submitted.len());
                        delivered
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|thread| thread.join().expect("client thread"))
                .sum()
        });
        let secs = start.elapsed().as_secs_f64();
        let stats = service.shutdown();

        assert_eq!(accepted as u64, stats.jobs_served);
        assert_eq!(accepted as u64 + stats.jobs_shed(), total as u64);
        if let AdmissionPolicy::Block = admission {
            assert_eq!(stats.jobs_shed(), 0, "Block must never shed");
        }

        let (queued_p50, queued_p99, service_p50, service_p99) = latency.quantiles_us();
        println!(
            "{:<12} | {:>8} {:>8} {:>9} {:>9} | {:>10.2} {:>9.1} | q p50/p99 {}/{} us, s p50/p99 {}/{} us",
            name,
            accepted,
            stats.jobs_rejected,
            stats.jobs_timed_out,
            stats.jobs_served,
            secs * 1e3,
            accepted as f64 / secs,
            queued_p50,
            queued_p99,
            service_p50,
            service_p99
        );
        let mut row = vec![
            Json::field("policy", Json::Str(name.to_string())),
            Json::field("submitted", Json::Int(total as i64)),
            Json::field("accepted", Json::Int(accepted as i64)),
            Json::field("rejected", Json::Int(stats.jobs_rejected as i64)),
            Json::field("timed_out", Json::Int(stats.jobs_timed_out as i64)),
            Json::field("served", Json::Int(stats.jobs_served as i64)),
            Json::field("wall_ms", Json::Num(secs * 1e3)),
            Json::field("jobs_per_sec", Json::Num(accepted as f64 / secs)),
        ];
        row.extend(latency.json_fields(""));
        json_rows.push(Json::Obj(row));
    }
    if let Some(path) = &options.json {
        let value = Json::Obj(vec![
            Json::field("bench", Json::Str("serve_overload".to_string())),
            Json::field("clients", Json::Int(clients as i64)),
            Json::field("jobs_per_client", Json::Int(per_client as i64)),
            Json::field("queue_bound", Json::Int(queue_bound as i64)),
            Json::field("seed", Json::Int(options.seed as i64)),
            Json::field(
                "engine_parallelism",
                Json::Str(options.parallelism().to_string()),
            ),
            Json::field("rows", Json::Arr(json_rows)),
            Json::field("accepted_jobs_verified_offline", Json::Bool(true)),
        ]);
        write_json_file(path, &value);
    }
    println!();
    println!(
        "accepted + shed == submitted for every policy; every accepted job verified \
         bit-identical to the offline pruned flow."
    );
}

fn main() {
    let options = HarnessOptions::from_args();
    let quick = std::env::args().any(|a| a == "--quick");
    let (num_jobs, gates) = if quick { (18, 24) } else { (60, 48) };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };

    // Train once; the service amortizes the classifier over every request.
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

    if std::env::args().any(|a| a == "--overload") {
        run_overload(&options, quick, &classifier);
        return;
    }

    let jobs = workload(num_jobs, gates, options.seed);
    println!(
        "Serve throughput: {num_jobs} jobs, shard counts {shard_counts:?} (within-job engine: {})",
        options.parallelism()
    );
    println!(
        "{:<8} | {:>12} {:>9} | {:>12} {:>9} {:>10} | {:>8}",
        "shards", "sync ms", "jobs/s", "drain ms", "jobs/s", "passes", "speedup"
    );

    let mut reference: Option<Vec<u64>> = None;
    let mut json_rows: Vec<Json> = Vec::new();
    for &shards in shard_counts {
        let config = ServeConfig {
            shards: Parallelism::threads(shards),
            options: ElfOptions {
                parallelism: options.parallelism(),
                ..ElfOptions::default()
            },
            ..Default::default()
        };

        let sync_latency = LatencyHists::new();
        let sync_service = ElfService::start(classifier.clone(), config);
        let (sync_signatures, sync_secs) = run_sync_all(&sync_service, &jobs, &sync_latency);
        sync_service.shutdown();

        let drain_latency = LatencyHists::new();
        let drain_service = ElfService::start(classifier.clone(), config);
        let (drain_signatures, drain_secs) = run_drain_all(&drain_service, &jobs, &drain_latency);
        let stats = drain_service.shutdown();

        // Determinism gate: every shard count and both submission modes
        // must produce identical per-job results.
        assert_eq!(
            sync_signatures, drain_signatures,
            "submission mode changed a served result (shards={shards})"
        );
        match &reference {
            None => reference = Some(sync_signatures),
            Some(reference) => assert_eq!(
                reference, &sync_signatures,
                "shards={shards} changed a served result"
            ),
        }

        let (_, _, drain_service_p50, drain_service_p99) = drain_latency.quantiles_us();
        println!(
            "{:<8} | {:>12.2} {:>9.1} | {:>12.2} {:>9.1} {:>10} | {:>7.2}x | p50/p99 {}/{} us",
            shards,
            sync_secs * 1e3,
            num_jobs as f64 / sync_secs,
            drain_secs * 1e3,
            num_jobs as f64 / drain_secs,
            stats.inference_batches,
            sync_secs / drain_secs,
            drain_service_p50,
            drain_service_p99
        );
        let mut row = vec![
            Json::field("shards", Json::Int(shards as i64)),
            Json::field("sync_ms", Json::Num(sync_secs * 1e3)),
            Json::field("sync_jobs_per_sec", Json::Num(num_jobs as f64 / sync_secs)),
            Json::field("drain_ms", Json::Num(drain_secs * 1e3)),
            Json::field(
                "drain_jobs_per_sec",
                Json::Num(num_jobs as f64 / drain_secs),
            ),
            Json::field(
                "inference_batches",
                Json::Int(stats.inference_batches as i64),
            ),
            Json::field("speedup", Json::Num(sync_secs / drain_secs)),
        ];
        row.extend(sync_latency.json_fields("sync_"));
        row.extend(drain_latency.json_fields("drain_"));
        json_rows.push(Json::Obj(row));
    }
    if let Some(path) = &options.json {
        let value = Json::Obj(vec![
            Json::field("bench", Json::Str("serve_throughput".to_string())),
            Json::field("jobs", Json::Int(num_jobs as i64)),
            Json::field("seed", Json::Int(options.seed as i64)),
            Json::field(
                "engine_parallelism",
                Json::Str(options.parallelism().to_string()),
            ),
            Json::field("rows", Json::Arr(json_rows)),
            Json::field("deterministic_across_configs", Json::Bool(true)),
        ]);
        write_json_file(path, &value);
    }
    println!();
    println!(
        "speedup = submit-all-then-drain over one-at-a-time run_sync on the same service; \
         identical per-job results across all {} shard counts verified.",
        shard_counts.len()
    );
}
