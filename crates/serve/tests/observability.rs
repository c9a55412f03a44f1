//! The serving observability contract, end to end:
//!
//! * [`ElfService::metrics_text`] renders every service counter in
//!   Prometheus text format, and [`ServiceStats`] is a *view* of the same
//!   registry — the two can never disagree;
//! * shed submissions land in `elf_jobs_shed_total` under their admission
//!   policy label;
//! * with tracing enabled, a really-served job exports Chrome `trace_event`
//!   JSON that parses and nests correctly, with the job's flow stages
//!   grouped under its `job` span.
//!
//! Tracing and the trace ring buffers are process-global, so every test in
//! this binary serializes on one lock.

use std::sync::Mutex;

use elf_aig::Aig;
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{ElfClassifier, DEFAULT_THRESHOLD};
use elf_nn::{Mlp, Normalizer};
use elf_obs::names;
use elf_obs::{chrome, trace};
use elf_par::Parallelism;
use elf_serve::{AdmissionPolicy, ElfService, ServeConfig};

/// Serializes the tests: trace state and span buffers are process-global.
static GLOBAL: Mutex<()> = Mutex::new(());

fn classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

fn circuit(index: usize) -> Aig {
    let gates: Vec<GateChoice> = (0..20 + (index % 3) * 6)
        .map(|i| ((i + index) as u8, 3 * i + index, 5 * i + 1, 7 * i))
        .collect();
    scripted_circuit(4 + index % 3, &gates)
}

#[test]
fn service_stats_are_a_view_of_the_metrics_registry() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = ElfService::start(
        classifier(),
        ServeConfig {
            shards: Parallelism::threads(2),
            ..Default::default()
        },
    );
    let mut handle = service.handle();
    for index in 0..4 {
        handle.submit(circuit(index), "rf; rw").expect("submit");
    }
    let mut served = 0;
    while let Some(response) = handle.recv() {
        assert!(!response.failed);
        served += 1;
    }
    assert_eq!(served, 4);

    let stats = service.stats();
    let snapshot = service.metrics_snapshot();
    assert_eq!(
        snapshot.counters.get(names::JOBS_SERVED),
        Some(&stats.jobs_served)
    );
    assert_eq!(stats.jobs_served, 4);
    assert_eq!(
        snapshot.counters.get(names::INFER_BATCHES),
        Some(&stats.inference_batches)
    );
    let labeled_rows: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(&format!("{}{{", names::INFER_ROWS)))
        .map(|(_, value)| value)
        .sum();
    assert_eq!(labeled_rows, stats.inference_rows);
    assert!(stats.inference_rows > 0, "served jobs ran real inference");

    // Served flows record their stage metrics into the service registry.
    assert!(
        snapshot
            .counters
            .keys()
            .any(|name| name.starts_with(names::STAGE_VISITED)),
        "served jobs must fold flow metrics into the service registry"
    );
    assert_eq!(snapshot.counters.get(names::FLOW_RUNS), Some(&4));

    // The text exposition carries the same numbers, plus the scrape-time
    // gauges (queue depth, cut-cache residency).
    let text = service.metrics_text();
    assert!(
        text.contains(&format!("{} 4", names::JOBS_SERVED)),
        "{text}"
    );
    assert!(text.contains(&format!("# TYPE {} histogram", names::JOB_SERVICE_US)));
    assert!(text.contains(&format!("{}_count", names::QUEUE_WAIT_US)));
    assert!(text.contains(names::QUEUE_DEPTH));
    assert!(text.contains(names::CUT_CACHE_ENTRIES));

    // Latency histograms saw exactly one sample per served job.
    let service_us = snapshot
        .histograms
        .get(names::JOB_SERVICE_US)
        .expect("service-time histogram exists");
    assert_eq!(service_us.count, 4);
    let wait_us = snapshot
        .histograms
        .get(names::QUEUE_WAIT_US)
        .expect("queue-wait histogram exists");
    assert_eq!(wait_us.count, 4);

    service.shutdown();
}

#[test]
fn shed_jobs_are_counted_under_their_policy_label() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    let service = ElfService::start(
        classifier(),
        ServeConfig {
            shards: Parallelism::threads(1),
            queue_bound: 1,
            admission: AdmissionPolicy::Reject,
            ..Default::default()
        },
    );
    service.pause();
    let mut handle = service.handle();
    let mut shed = 0u64;
    for index in 0..6 {
        if handle.submit(circuit(index), "rf").is_err() {
            shed += 1;
        }
    }
    assert!(shed > 0, "a paused single-slot queue must shed");

    let snapshot = service.metrics_snapshot();
    let labeled = format!("{}{{policy=\"reject\"}}", names::JOBS_SHED);
    assert_eq!(snapshot.counters.get(labeled.as_str()), Some(&shed));
    assert_eq!(service.stats().jobs_rejected, shed);

    service.resume();
    while handle.recv().is_some() {}
    service.shutdown();
}

#[test]
fn a_served_job_exports_a_nesting_chrome_trace() {
    let _guard = GLOBAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::force_enable();
    trace::clear();

    let service = ElfService::start(
        classifier(),
        ServeConfig {
            shards: Parallelism::threads(1),
            ..Default::default()
        },
    );
    let mut handle = service.handle();
    for index in 0..2 {
        handle.submit(circuit(index), "rf; rw").expect("submit");
    }
    while let Some(response) = handle.recv() {
        assert!(!response.failed);
    }
    service.shutdown();

    let json = trace::export_chrome_json();
    trace::force_disable();
    trace::clear();

    let events = chrome::parse_trace(&json).expect("exported trace JSON parses");
    let spans = chrome::validate_nesting(&events).expect("exported spans nest");
    assert!(spans > 0);

    let begin_names: Vec<&str> = events
        .iter()
        .filter(|e| e.ph == 'B')
        .map(|e| e.name.as_str())
        .collect();
    for expected in ["queue_wait", "job", "flow", "elf-refactor", "nn_forward"] {
        assert!(
            begin_names.contains(&expected),
            "span {expected:?} missing from the served-job trace; got {begin_names:?}"
        );
    }

    // Both served jobs appear, grouped in ascending job-id order.
    let job_ids: Vec<i64> = events
        .iter()
        .filter(|e| e.ph == 'B' && e.name == "job")
        .map(|e| {
            e.args
                .iter()
                .find(|(k, _)| k == "job")
                .expect("job spans carry their id")
                .1
        })
        .collect();
    assert_eq!(job_ids, vec![0, 1]);
}
