//! Overload behaviour of the bounded admission queue: a tiny queue bound,
//! paused (slow) workers and several concurrent clients, under each
//! [`AdmissionPolicy`].
//!
//! The invariants under test:
//!
//! * `Reject` never blocks a submitter, sheds exactly the overflow, and
//!   every shed comes back as [`SubmitError::Overloaded`] with the circuit
//!   intact and is counted in [`ServiceStats`];
//! * `Block` sheds nothing — every submission is eventually delivered;
//! * whichever subset is accepted, each accepted job's output is
//!   **bit-identical** to the offline `Flow::pruned_from_script` run —
//!   shedding changes *which* jobs run, never what an accepted job computes.

use std::sync::atomic::{AtomicU64, Ordering};

use elf_aig::{simulation_signature, Aig};
use elf_circuits::{scripted_circuit, GateChoice};
use elf_core::{ElfClassifier, Flow, DEFAULT_THRESHOLD};
use elf_nn::{Mlp, Normalizer};
use elf_par::Parallelism;
use elf_serve::{AdmissionPolicy, ElfService, ServeConfig, SubmitError};

fn classifier() -> ElfClassifier {
    let normalizer = Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]);
    ElfClassifier::from_parts(normalizer, Mlp::paper_architecture(5), DEFAULT_THRESHOLD)
}

const SCRIPT: &str = "rf; rw";

/// Distinct deterministic circuits, one per global job index.
fn circuit(index: usize) -> Aig {
    let gates: Vec<GateChoice> = (0..18 + (index % 4) * 5)
        .map(|i| {
            (
                (i + index) as u8,
                3 * i + index,
                5 * i + 1,
                7 * i + 2 * index,
            )
        })
        .collect();
    scripted_circuit(4 + index % 3, &gates)
}

/// One AND node in the fingerprint: id, fanin ids and complement flags.
type StructuralNode = (u32, u32, bool, u32, bool);
/// Node-exact identity of a served result: topological AND structure,
/// outputs, simulation signature.
type JobFingerprint = (Vec<StructuralNode>, Vec<(u32, bool)>, u64);

/// Node-exact fingerprint: topological AND structure, outputs, simulation.
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

/// The offline reference for job `index` under the service's options.
fn offline(index: usize, service: &ElfService) -> JobFingerprint {
    let mut aig = circuit(index);
    Flow::pruned_from_script(SCRIPT, service.classifier(), service.options())
        .expect("script parses")
        .run(&mut aig);
    fingerprint(&aig)
}

#[test]
fn reject_policy_never_blocks_and_sheds_exactly_the_overflow() {
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 4;
    const BOUND: usize = 4;
    let service = ElfService::start(
        classifier(),
        ServeConfig {
            shards: Parallelism::threads(2),
            queue_bound: BOUND,
            admission: AdmissionPolicy::Reject,
            ..Default::default()
        },
    );
    // Paused workers: nothing drains, so admission fills the queue to its
    // bound the same way every run — the shed count is exact, not racy.
    service.pause();
    let shed_nodes_intact = AtomicU64::new(0);

    let accepted: Vec<(usize, _)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut handle = service.handle();
                let shed_nodes_intact = &shed_nodes_intact;
                scope.spawn(move || {
                    let mut submitted = Vec::new();
                    for slot in 0..PER_CLIENT {
                        let index = client * PER_CLIENT + slot;
                        let source = circuit(index);
                        let nodes = source.num_reachable_ands();
                        match handle.submit(source, SCRIPT) {
                            Ok(id) => submitted.push((index, id)),
                            Err(err) => {
                                // Reject hands the exact circuit back.
                                assert!(matches!(err, SubmitError::Overloaded { .. }));
                                assert_eq!(err.circuit().num_reachable_ands(), nodes);
                                shed_nodes_intact.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    (handle, submitted)
                })
            })
            .collect();
        // Every submit above ran against a paused service and returned —
        // Reject never blocked anyone.  Exactly the bound was admitted.
        let mut clients: Vec<_> = threads
            .into_iter()
            .map(|thread| thread.join().expect("client thread"))
            .collect();
        let admitted: usize = clients.iter().map(|(_, subs)| subs.len()).sum();
        assert_eq!(admitted, BOUND);
        assert_eq!(service.queue_depth(), BOUND);
        assert_eq!(
            service.stats().jobs_rejected,
            (CLIENTS * PER_CLIENT - BOUND) as u64
        );

        service.resume();
        let mut accepted = Vec::new();
        for (handle, submitted) in &mut clients {
            while let Some(response) = handle.recv() {
                assert!(!response.failed);
                let (index, _) = submitted
                    .iter()
                    .find(|(_, id)| *id == response.job_id)
                    .expect("response matches a submission of this handle");
                accepted.push((*index, fingerprint(&response.aig)));
            }
        }
        accepted
    });

    assert_eq!(
        shed_nodes_intact.load(Ordering::Relaxed),
        (CLIENTS * PER_CLIENT - BOUND) as u64
    );
    assert_eq!(accepted.len(), BOUND);
    // Whichever subset won admission, each accepted job is bit-identical to
    // its offline flow.
    for (index, print) in &accepted {
        assert_eq!(
            *print,
            offline(*index, &service),
            "accepted job {index} diverged from the offline flow"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs_served, BOUND as u64);
    assert_eq!(stats.jobs_rejected, (CLIENTS * PER_CLIENT - BOUND) as u64);
}

#[test]
fn block_policy_delivers_everything_without_shedding() {
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 5;
    let service = ElfService::start(
        classifier(),
        ServeConfig {
            shards: Parallelism::threads(2),
            // A two-slot queue under 15 submissions: submitters must block
            // on a full queue many times over, yet nothing is ever shed.
            queue_bound: 2,
            admission: AdmissionPolicy::Block,
            ..Default::default()
        },
    );

    let served: Vec<(usize, _)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut handle = service.handle();
                scope.spawn(move || {
                    let mut ids = Vec::new();
                    for slot in 0..PER_CLIENT {
                        let index = client * PER_CLIENT + slot;
                        let id = handle
                            .submit(circuit(index), SCRIPT)
                            .expect("Block never sheds");
                        ids.push((index, id));
                    }
                    let mut out = Vec::new();
                    while let Some(response) = handle.recv() {
                        assert!(!response.failed);
                        let (index, _) = ids
                            .iter()
                            .find(|(_, id)| *id == response.job_id)
                            .expect("response matches a submission");
                        out.push((*index, fingerprint(&response.aig)));
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|thread| thread.join().expect("client thread"))
            .collect()
    });

    assert_eq!(served.len(), CLIENTS * PER_CLIENT);
    for (index, print) in &served {
        assert_eq!(
            *print,
            offline(*index, &service),
            "job {index} diverged from the offline flow"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.jobs_served, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.jobs_rejected, 0);
}
