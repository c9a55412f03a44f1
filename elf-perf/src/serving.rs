//! Driving `elf-serve` from one load-generating thread: an open loop on a
//! seeded arrival schedule, and a closed loop for capacity.  Used by the
//! `serve_open` workload and by the serve probe of the traced run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use elf_core::Flow;
use elf_par::Parallelism;
use elf_serve::{
    AdmissionPolicy, ElfService, JobId, JobResponse, ModelId, ServeConfig, ServiceHandle,
};

use crate::check::{fingerprint, Ops};
use crate::inputs::{permutation, Prepared, SCRIPT};
use crate::stats::quantile;

/// How long the generator sleeps between polls for responses.  With the
/// kernel's timer slack a poll comes round about every 80 µs.
const POLL_SLEEP: Duration = Duration::from_micros(20);

/// A running two-shard service with the offline twin of every pool circuit.
#[derive(Debug)]
pub struct ServeRig {
    service: ElfService,
    handle: ServiceHandle,
    /// Model to submit circuit `i` with.
    models: Vec<ModelId>,
    /// Fingerprint of the offline `Flow::pruned_from_script` result of circuit `i`.
    twins: Vec<u64>,
    /// Wall time of that offline flow, in µs.
    pub offline_us: Vec<f64>,
}

/// What one phase of load measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Jobs completed.
    pub completed: usize,
    /// Wall time of the phase in seconds, first submission to last response.
    pub elapsed_s: f64,
    /// Latency of every job in ms: from its due time in an open loop, from
    /// its submission in a closed loop.
    pub latency_ms: Vec<f64>,
    /// Admission-to-pick-up wait of every job in µs (`ServeStats::queued_time`).
    pub queue_wait_us: Vec<f64>,
    /// Flow execution time of every job in µs (`ServeStats::service_time`).
    pub service_us: Vec<f64>,
    /// Latency minus the offline flow time of the same circuit, in µs.
    pub overhead_us: Vec<f64>,
    /// When each job completed, in seconds from the phase start.
    pub done_at_s: Vec<f64>,
    /// Latest submission after its due time, in ms (open loop only).
    pub late_max_ms: f64,
    /// Forward passes the batcher ran during the phase.
    pub forward_passes: u64,
    /// Feature rows through those passes.
    pub forward_rows: u64,
    /// Submissions the service shed.
    pub shed: usize,
}

impl Phase {
    /// Median of a per-job series; 0 when the phase completed nothing.
    pub fn p50(series: &[f64]) -> f64 {
        if series.is_empty() {
            0.0
        } else {
            quantile(series, 0.5)
        }
    }

    /// Completed jobs per second.
    pub fn jobs_per_second(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }
}

impl ServeRig {
    /// Starts the service, builds each circuit's offline twin and serves
    /// every circuit once as warm-up.  Failed warm-up jobs count in `ops`.
    pub fn start(prepared: &Prepared, ops: &mut Ops) -> ServeRig {
        let config = ServeConfig {
            shards: Parallelism::threads(2),
            admission: AdmissionPolicy::Block,
            ..ServeConfig::default()
        };
        let founding = prepared.circuits[0].classifier.clone();
        let service = ElfService::start(founding.clone(), config);
        // One published model per distinct operating point; circuits that
        // share the founding classifier share its batches too.
        let models = prepared
            .circuits
            .iter()
            .map(|circuit| {
                if circuit.classifier == founding {
                    service.registry().default_model()
                } else {
                    service.registry().publish(circuit.classifier.clone())
                }
            })
            .collect();
        let options = service.options();
        let mut twins = Vec::new();
        let mut offline_us = Vec::new();
        for circuit in &prepared.circuits {
            let flow = Flow::pruned_from_script(SCRIPT, &circuit.classifier, options)
                .expect("the benchmark's script parses");
            let mut aig = circuit.aig.clone();
            let start = Instant::now();
            flow.run(&mut aig);
            offline_us.push(start.elapsed().as_secs_f64() * 1e6);
            twins.push(fingerprint(&aig));
        }
        let handle = service.handle();
        let mut rig = ServeRig {
            service,
            handle,
            models,
            twins,
            offline_us,
        };
        for index in 0..prepared.circuits.len() {
            if rig.submit(prepared, index).is_some() {
                let response = rig.handle.recv().expect("one job is outstanding");
                ops.record(rig.problem(index, &response));
            } else {
                ops.record(Some(format!("warm-up job {index} was refused")));
            }
        }
        rig
    }

    fn submit(&mut self, prepared: &Prepared, index: usize) -> Option<JobId> {
        let aig = prepared.circuits[index].aig.clone();
        self.handle
            .submit_with(aig, SCRIPT, self.models[index])
            .ok()
    }

    /// What is wrong with a response, if anything: failed, or not the
    /// offline twin node for node.
    fn problem(&self, index: usize, response: &JobResponse) -> Option<String> {
        if response.failed {
            Some(format!("{}: job failed", response.job_id))
        } else if fingerprint(&response.aig) != self.twins[index] {
            Some(format!(
                "{}: differs from its offline twin",
                response.job_id
            ))
        } else {
            None
        }
    }

    /// Books a response seen at `now` for a job that counts from `since`.
    fn absorb(
        &self,
        phase: &mut Phase,
        ops: &mut Ops,
        (index, since, now): (usize, f64, f64),
        r: &JobResponse,
    ) {
        let latency_s = now - since;
        phase.completed += 1;
        phase.done_at_s.push(now);
        phase.latency_ms.push(latency_s * 1e3);
        phase
            .queue_wait_us
            .push(r.stats.queued_time.as_secs_f64() * 1e6);
        phase
            .service_us
            .push(r.stats.service_time.as_secs_f64() * 1e6);
        phase
            .overhead_us
            .push(latency_s * 1e6 - self.offline_us[index]);
        ops.record(self.problem(index, r));
    }

    fn run_phase(&mut self, body: impl FnOnce(&mut Self, &mut Phase)) -> Phase {
        let before = self.service.stats();
        let mut phase = Phase::default();
        let start = Instant::now();
        body(self, &mut phase);
        phase.elapsed_s = start.elapsed().as_secs_f64();
        let after = self.service.stats();
        phase.forward_passes = after.inference_batches - before.inference_batches;
        phase.forward_rows = after.inference_rows - before.inference_rows;
        phase
    }

    /// Open loop: submits job `k` of `schedule` when its due time comes,
    /// whatever the service is doing, and times it from that due time.
    pub fn open_loop(
        &mut self,
        prepared: &Prepared,
        schedule: &[(f64, usize)],
        ops: &mut Ops,
    ) -> Phase {
        self.run_phase(|rig, phase| {
            let start = Instant::now();
            let mut pending: HashMap<JobId, (f64, usize)> = HashMap::new();
            let mut next = 0;
            while next < schedule.len() || !pending.is_empty() {
                let now = start.elapsed().as_secs_f64();
                if let Some(&(due, index)) = schedule.get(next).filter(|(due, _)| *due <= now) {
                    next += 1;
                    phase.late_max_ms = phase.late_max_ms.max((now - due) * 1e3);
                    match rig.submit(prepared, index) {
                        Some(id) => {
                            pending.insert(id, (due, index));
                        }
                        None => {
                            phase.shed += 1;
                            ops.record(Some(format!("job due at {due:.4}s was refused")));
                        }
                    }
                    continue;
                }
                let mut received = false;
                while let Some(response) = rig.handle.try_recv() {
                    received = true;
                    let now = start.elapsed().as_secs_f64();
                    if let Some((due, index)) = pending.remove(&response.job_id) {
                        rig.absorb(phase, ops, (index, due, now), &response);
                    }
                }
                if !received {
                    std::thread::sleep(POLL_SLEEP);
                }
            }
        })
    }

    /// Closed loop: keeps `outstanding` jobs in flight, cycling through a
    /// seeded order of the circuits, until `done(completed, elapsed seconds)`
    /// says stop.
    pub fn closed_loop(
        &mut self,
        prepared: &Prepared,
        outstanding: usize,
        seed: u64,
        done: impl Fn(usize, f64) -> bool,
        ops: &mut Ops,
    ) -> Phase {
        self.run_phase(|rig, phase| {
            let order = permutation(prepared.circuits.len(), seed);
            let mut submitted = 0;
            let start = Instant::now();
            let mut pending: HashMap<JobId, (f64, usize)> = HashMap::new();
            let mut stopping = false;
            loop {
                while !stopping && pending.len() < outstanding {
                    let index = order[submitted % order.len()];
                    submitted += 1;
                    let now = start.elapsed().as_secs_f64();
                    match rig.submit(prepared, index) {
                        Some(id) => {
                            pending.insert(id, (now, index));
                        }
                        None => {
                            phase.shed += 1;
                            ops.record(Some("closed-loop job was refused".into()));
                            stopping = true;
                        }
                    }
                }
                let Some(response) = rig.handle.recv() else {
                    break;
                };
                let now = start.elapsed().as_secs_f64();
                if let Some((since, index)) = pending.remove(&response.job_id) {
                    rig.absorb(phase, ops, (index, since, now), &response);
                }
                stopping = stopping || done(phase.completed, now);
            }
        })
    }
}
