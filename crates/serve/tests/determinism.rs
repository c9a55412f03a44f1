//! Service determinism layer: the same job set, submitted from one client or
//! from many concurrent client threads, against services with 1, 2 or 4
//! shards, must yield **identical per-job output AIGs** — and every one of
//! them must equal the offline `Flow::pruned_from_script` result
//! node-for-node.  The service's forward-pass counters are part of the same
//! contract: they equal the sums over the offline twins' `FlowStats`.
//!
//! The whole suite also runs under both `ELF_THREADS=1` and `ELF_THREADS=4`
//! in CI, which routes the engine-level defaults through the parallel
//! engine as well.

use elf_aig::{check_equivalence, simulation_signature, Aig, EquivalenceResult};
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{ElfClassifier, ElfOptions, Flow, FlowStats, DEFAULT_THRESHOLD};
use elf_nn::{Mlp, Normalizer};
use elf_par::Parallelism;
use elf_serve::{ElfService, ServeConfig, ServiceStats, SubmitError};

/// An untrained classifier with hand-set statistics and a mid threshold:
/// deterministic, and it genuinely prunes some cuts while keeping others.
fn mixed_classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

/// The job set every scenario serves: scripted random circuits of varying
/// density paired with different flow scripts.
fn job_set() -> Vec<(Aig, &'static str)> {
    let scripts = ["rf; rw; rs", "rf; rs", "rw", "rs; rf", "rf; rw"];
    (0..15)
        .map(|job| {
            let gates: Vec<GateChoice> = (0..20 + (job % 5) * 6)
                .map(|i| ((i + job) as u8, 3 * i + job, 5 * i + 1, 7 * i + 2 * job))
                .collect();
            let aig = scripted_circuit(4 + job % 3, &gates);
            (aig, scripts[job % scripts.len()])
        })
        .collect()
}

/// One AND node of a structural fingerprint: id plus both fanin literals.
type StructuralNode = (u32, u32, bool, u32, bool);

/// A full job fingerprint: AND structure, output literals and a simulation
/// signature.
type JobFingerprint = (Vec<StructuralNode>, Vec<(u32, bool)>, u64);

/// Exact structural fingerprint of an AIG: every reachable AND node in
/// topological order with its fanin literals, plus the output literals and
/// a simulation signature.  Equal fingerprints mean the same network node
/// for node.
fn fingerprint(aig: &Aig) -> JobFingerprint {
    let nodes = aig
        .topological_order()
        .into_iter()
        .map(|id| {
            let (f0, f1) = aig.fanins(id);
            (
                id.index(),
                f0.node().index(),
                f0.is_complemented(),
                f1.node().index(),
                f1.is_complemented(),
            )
        })
        .collect();
    let outputs = aig
        .outputs()
        .iter()
        .map(|lit| (lit.node().index(), lit.is_complemented()))
        .collect();
    (nodes, outputs, simulation_signature(aig, 8, 0xE1F))
}

/// Serves the job set on `config` from `clients` concurrent client threads
/// and returns the per-job fingerprints, in job-set order, plus the service's
/// final counters.
fn serve_job_set(config: ServeConfig, clients: usize) -> (Vec<JobFingerprint>, ServiceStats) {
    let jobs = job_set();
    let service = ElfService::start(mixed_classifier(), config);
    let mut results: Vec<Option<JobFingerprint>> = vec![None; jobs.len()];

    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|client| {
                let mut handle = service.handle();
                let jobs = &jobs;
                scope.spawn(move || {
                    // Client `c` serves jobs c, c+clients, c+2*clients, ...
                    let mine: Vec<usize> = (client..jobs.len()).step_by(clients).collect();
                    let mut ids = Vec::new();
                    for &index in &mine {
                        let (aig, script) = &jobs[index];
                        ids.push(handle.submit(aig.clone(), script).expect("submit"));
                    }
                    let mut out = Vec::new();
                    while let Some(response) = handle.recv() {
                        let position = ids
                            .iter()
                            .position(|id| *id == response.job_id)
                            .expect("response belongs to this handle");
                        out.push((mine[position], fingerprint(&response.aig)));
                    }
                    assert_eq!(out.len(), mine.len());
                    out
                })
            })
            .collect();
        for thread in threads {
            for (index, print) in thread.join().expect("client thread") {
                assert!(results[index].is_none(), "job {index} answered twice");
                results[index] = Some(print);
            }
        }
    });

    let stats = service.shutdown();
    assert_eq!(stats.jobs_served, jobs.len() as u64);
    let prints = results
        .into_iter()
        .map(|print| print.expect("every job answered"))
        .collect();
    (prints, stats)
}

/// Forward passes and rows of one offline flow run, counted the way the
/// service counts them: a pass is a pruned stage that decided at least one
/// cut, its rows are the cuts it pruned or kept.
fn forward_passes(stats: &FlowStats) -> (u64, u64) {
    stats
        .stages
        .iter()
        .filter_map(|stage| stage.elf.as_ref())
        .map(|elf| (elf.pruned + elf.kept) as u64)
        .filter(|&rows| rows > 0)
        .fold((0, 0), |(passes, total), rows| (passes + 1, total + rows))
}

/// The offline reference: each job run through `Flow::pruned_from_script`
/// with the same classifier and the options every served job runs, a
/// sequential engine and the default cut cache.  Returns the per-job
/// fingerprints and the `(forward passes, rows)` summed over all jobs.
fn offline_reference() -> (Vec<JobFingerprint>, (u64, u64)) {
    let classifier = mixed_classifier();
    let options = ElfOptions {
        parallelism: Parallelism::sequential(),
        ..ElfOptions::default()
    };
    let mut totals = (0, 0);
    let prints = job_set()
        .into_iter()
        .map(|(mut aig, script)| {
            let stats = Flow::pruned_from_script(script, &classifier, options)
                .expect("script parses")
                .run(&mut aig);
            let (passes, rows) = forward_passes(&stats);
            totals = (totals.0 + passes, totals.1 + rows);
            fingerprint(&aig)
        })
        .collect();
    (prints, totals)
}

#[test]
fn served_results_equal_offline_flow_for_every_shard_and_client_count() {
    let (reference, (passes, rows)) = offline_reference();
    assert!(passes > 0 && rows > 0, "the job set runs real inference");
    for shards in [1, 2, 4] {
        for clients in [1, 3] {
            let config = ServeConfig {
                shards: Parallelism::threads(shards),
                ..Default::default()
            };
            let (served, stats) = serve_job_set(config, clients);
            assert_eq!(
                served, reference,
                "shards={shards}, clients={clients}: served AIGs diverged from the offline flow"
            );
            // Pass counts are sums over the jobs' own flow statistics, so
            // they are exact — not merely bounded — for every configuration.
            assert_eq!(
                (stats.inference_batches, stats.inference_rows),
                (passes, rows),
                "shards={shards}, clients={clients}: forward-pass counters diverged from the \
                 offline twins"
            );
        }
    }
}

#[test]
fn jobs_served_one_at_a_time_preserve_function() {
    let classifier = mixed_classifier();
    let service = ElfService::start(classifier, ServeConfig::default());
    let mut handle = service.handle();
    for (source, script) in job_set().into_iter().take(5) {
        handle.submit(source.clone(), script).expect("admitted");
        let response = handle.recv().expect("one job is outstanding");
        assert_eq!(
            check_equivalence(&source, &response.aig, 16, 61),
            EquivalenceResult::Equivalent,
            "serving changed the circuit's function"
        );
        assert!(response.aig.check_invariants().is_empty());
        assert_eq!(
            response.stats.flow.ands_after,
            response.aig.num_reachable_ands()
        );
    }
    assert_eq!(handle.outstanding(), 0);
    assert!(handle.recv().is_none());
}

#[test]
fn fit_and_start_trains_on_startup_and_serves() {
    use elf_nn::{Dataset, TrainConfig};
    let mut data = Dataset::new();
    for i in 0..120 {
        let x = i as f32;
        data.push(
            vec![x % 5.0, x % 17.0, x % 11.0, 8.0, x % 3.0, 6.0],
            i % 6 == 0,
        );
    }
    let train = TrainConfig {
        epochs: 3,
        ..Default::default()
    };
    let (classifier, report) = ElfClassifier::fit(&data, &train, 7);
    assert!(report.epochs_run > 0);
    let service = ElfService::start(classifier, ServeConfig::default());
    let (aig, script) = job_set().into_iter().next().expect("non-empty job set");
    let mut handle = service.handle();
    handle.submit(aig.clone(), script).expect("admitted");
    let response = handle.recv().expect("one job is outstanding");
    // The startup-trained classifier is the one serving: the offline flow
    // with `service.classifier()` reproduces the served result.
    let mut offline = aig;
    Flow::pruned_from_script(script, service.classifier(), service.options())
        .expect("script parses")
        .run(&mut offline);
    assert_eq!(fingerprint(&response.aig), fingerprint(&offline));
}

#[test]
fn worker_panic_delivers_a_failed_response_instead_of_hanging_clients() {
    // A classifier whose model expects 3 inputs while cut features are
    // 6-wide makes the forward pass panic on a dimension assert — a stand-in
    // for any internal bug inside a served flow.  The client must get a
    // `failed` response back rather than blocking in `recv` forever, and
    // shutdown must still drain and join cleanly.
    let broken = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::new(
            &[3, 2, 1],
            elf_nn::Activation::Relu,
            elf_nn::Activation::Sigmoid,
            5,
        ),
        DEFAULT_THRESHOLD,
    );
    let service = ElfService::start(broken, ServeConfig::default());
    let mut handle = service.handle();
    let jobs = job_set();
    for (aig, script) in jobs.iter().take(3) {
        handle.submit(aig.clone(), script).unwrap();
    }
    let mut failed = 0;
    while let Some(response) = handle.recv() {
        assert!(response.failed, "a broken model cannot serve a job");
        assert_eq!(
            response.stats.flow.ands_after, response.stats.flow.ands_before,
            "a failed job must not report the broken graph as a result"
        );
        failed += 1;
    }
    assert_eq!(failed, 3);
    let stats = service.shutdown();
    assert_eq!(stats.jobs_served, 0, "panicked jobs are not 'served'");
    assert_eq!(stats.jobs_failed, 3);
}

#[test]
fn shutdown_rejects_new_work_and_reports_counters() {
    let service = ElfService::start(
        mixed_classifier(),
        ServeConfig {
            shards: Parallelism::threads(2),
            ..Default::default()
        },
    );
    let mut handle = service.handle();
    let jobs = job_set();
    for (aig, script) in jobs.iter().take(4) {
        handle.submit(aig.clone(), script).unwrap();
    }
    // Shutdown drains: all four submitted jobs are still delivered.
    let stats = service.shutdown();
    assert_eq!(stats.jobs_served, 4);
    assert!(stats.inference_batches > 0);
    assert!(stats.inference_rows >= stats.inference_batches);
    let mut delivered = 0;
    while handle.recv().is_some() {
        delivered += 1;
    }
    assert_eq!(delivered, 4);
    // New work is rejected — with the circuit handed back — and bad scripts
    // fail fast either way.
    let nodes = jobs[0].0.num_reachable_ands();
    let err = handle.submit(jobs[0].0.clone(), "rf").unwrap_err();
    assert!(matches!(err, SubmitError::ServiceClosed { .. }));
    assert_eq!(err.into_circuit().num_reachable_ands(), nodes);
    assert!(matches!(
        handle.submit(jobs[0].0.clone(), "rf; balance"),
        Err(SubmitError::Script { error, .. }) if error.token() == "balance"
    ));
}

#[test]
fn registry_hot_swap_pins_inflight_jobs_and_switches_later_ones() {
    // Two genuinely different classifier versions (different init seeds):
    // jobs submitted before the swap must serve under version A, jobs after
    // under version B — each bit-identical to its offline flow.
    let classifier_b = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::paper_architecture(23),
        DEFAULT_THRESHOLD,
    );
    let jobs = job_set();
    let service = ElfService::start(
        mixed_classifier(),
        ServeConfig {
            shards: Parallelism::threads(2),
            ..Default::default()
        },
    );
    let mut handle = service.handle();

    // Pause the workers so the swap provably happens while the first batch
    // is still queued — the pinning, not timing luck, must protect it.
    service.pause();
    let founding = service.registry().default_model();
    for (aig, script) in jobs.iter().take(3) {
        handle.submit(aig.clone(), script).unwrap();
    }
    let version_b = service.registry().publish(classifier_b.clone());
    service.registry().set_default(version_b).unwrap();
    assert!(service.registry().retire(founding));
    for (aig, script) in jobs.iter().skip(3).take(3) {
        handle.submit(aig.clone(), script).unwrap();
    }
    service.resume();

    let mut served = std::collections::HashMap::new();
    while let Some(response) = handle.recv() {
        assert!(!response.failed);
        served.insert(response.job_id.as_u64(), response);
    }
    assert_eq!(served.len(), 6);

    let offline = |aig: &Aig, script: &str, classifier: &ElfClassifier| {
        let mut aig = aig.clone();
        Flow::pruned_from_script(script, classifier, service.options())
            .expect("script parses")
            .run(&mut aig);
        fingerprint(&aig)
    };
    let classifier_a = mixed_classifier();
    for (job, (aig, script)) in jobs.iter().take(6).enumerate() {
        let response = &served[&(job as u64)];
        let (expected_model, expected_classifier) = if job < 3 {
            (founding, &classifier_a)
        } else {
            (version_b, &classifier_b)
        };
        assert_eq!(response.stats.model, expected_model);
        assert_eq!(
            fingerprint(&response.aig),
            offline(aig, script, expected_classifier),
            "job {job} diverged from the offline flow of its pinned version"
        );
    }
    service.shutdown();
}

#[test]
fn submit_with_serves_a_non_default_version_deterministically() {
    let classifier_b = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::paper_architecture(23),
        DEFAULT_THRESHOLD,
    );
    let service = ElfService::start(mixed_classifier(), ServeConfig::default());
    let version_b = service.registry().publish(classifier_b.clone());
    let mut handle = service.handle();
    let (aig, script) = job_set().into_iter().next().expect("non-empty job set");

    // The default stays A; this request explicitly canaries B.
    let id = handle
        .submit_with(aig.clone(), script, version_b)
        .expect("submit_with");
    let response = handle.recv().expect("one job outstanding");
    assert_eq!(response.job_id, id);
    assert_eq!(response.stats.model, version_b);

    let mut offline = aig;
    Flow::pruned_from_script(script, &classifier_b, service.options())
        .expect("script parses")
        .run(&mut offline);
    assert_eq!(fingerprint(&response.aig), fingerprint(&offline));
}
