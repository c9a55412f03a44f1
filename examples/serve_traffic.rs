//! Traffic-serving demo: a long-lived [`ElfService`] fires N client threads
//! submitting M circuits each, then proves every served result is
//! **node-for-node identical** to the offline
//! [`Flow::pruned_from_script`] path — the serving layer's determinism
//! guarantee, checked end to end.
//!
//! Run with `cargo run --release --example serve_traffic`.  The shard count
//! follows `ELF_THREADS` (like every parallel knob in the workspace).
//!
//! [`ElfService`]: elf::serve::ElfService
//! [`Flow::pruned_from_script`]: elf::core::Flow::pruned_from_script

use elf::aig::{aiger, Aig};
use elf::circuits::epfl::{arithmetic_circuit, Scale};
use elf::circuits::scripted_circuit;
use elf::core::{circuit_dataset, ElfClassifier, Flow};
use elf::nn::TrainConfig;
use elf::opt::RefactorParams;
use elf::serve::{ElfService, ServeConfig};

const CLIENTS: usize = 3;
const CIRCUITS_PER_CLIENT: usize = 6;

/// The traffic mix: small arithmetic blocks plus scripted random circuits,
/// each paired with an ABC-style flow script.
fn workload() -> Vec<(String, Aig, &'static str)> {
    let scripts = ["rf; rw; rs", "rf; rs", "rw; rf"];
    let mut jobs = Vec::new();
    for (index, name) in ["sqrt", "multiplier", "square"].iter().enumerate() {
        jobs.push((
            (*name).to_string(),
            arithmetic_circuit(name, Scale::Tiny),
            scripts[index % scripts.len()],
        ));
    }
    while jobs.len() < CLIENTS * CIRCUITS_PER_CLIENT {
        let salt = jobs.len();
        let gates: Vec<(u8, usize, usize, usize)> = (0..24 + (salt % 4) * 8)
            .map(|i| ((i + salt) as u8, 3 * i + salt, 5 * i + 1, 7 * i))
            .collect();
        jobs.push((
            format!("scripted-{salt}"),
            scripted_circuit(4 + salt % 4, &gates),
            scripts[salt % scripts.len()],
        ));
    }
    jobs
}

fn main() {
    // Train once at startup: the service owns this classifier for its
    // whole lifetime and amortizes it over every request.
    let trainer = arithmetic_circuit("square", Scale::Tiny);
    let data = circuit_dataset(&trainer, &RefactorParams::default());
    let (classifier, _) = ElfClassifier::fit(
        &data,
        &TrainConfig {
            epochs: 5,
            ..Default::default()
        },
        7,
    );

    let config = ServeConfig::default();
    let service = ElfService::start(classifier.clone(), config);
    println!("service up: {} shard(s)", config.shards.num_threads());

    let jobs = workload();
    println!(
        "firing {CLIENTS} clients x {CIRCUITS_PER_CLIENT} circuits = {} jobs",
        jobs.len()
    );

    // Each client thread owns a private handle: submit a burst, then drain.
    let mut served: Vec<Option<Aig>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let mut handle = service.handle();
                let jobs = &jobs;
                scope.spawn(move || {
                    let mine: Vec<usize> = (client..jobs.len()).step_by(CLIENTS).collect();
                    let mut ids = Vec::new();
                    for &index in &mine {
                        let (_, aig, script) = &jobs[index];
                        ids.push(handle.submit(aig.clone(), script).expect("submit"));
                    }
                    let mut results = Vec::new();
                    while let Some(response) = handle.recv() {
                        let position = ids
                            .iter()
                            .position(|id| *id == response.job_id)
                            .expect("own job");
                        results.push((mine[position], response.aig));
                    }
                    results
                })
            })
            .collect();
        for thread in threads {
            for (index, aig) in thread.join().expect("client thread") {
                served[index] = Some(aig);
            }
        }
    });

    // The proof: every served AIG equals the offline pruned flow node for
    // node.  Both writers canonicalize identically, so byte-equal ASCII
    // AIGER text *is* node-for-node equality.
    for ((name, source, script), served) in jobs.iter().zip(&served) {
        let served_aig = served.as_ref().expect("every job served");
        let mut offline = source.clone();
        Flow::pruned_from_script(script, &classifier, service.options())
            .expect("script parses")
            .run(&mut offline);
        assert_eq!(
            aiger::to_ascii(served_aig),
            aiger::to_ascii(&offline),
            "{name}: served result diverged from the offline flow"
        );
        println!(
            "  {name:<14} `{script}`: {:>4} -> {:>4} ANDs",
            source.num_reachable_ands(),
            served_aig.num_reachable_ands(),
        );
    }

    // The scrape-endpoint view of the same run: every counter, gauge and
    // latency histogram the service recorded, in Prometheus text format.
    println!();
    println!("--- metrics_text() at shutdown ---");
    print!("{}", service.metrics_text());
    println!("--- end metrics ---");

    let stats = service.shutdown();
    println!(
        "all {} served results are node-for-node identical to the offline `Flow::pruned_from_script` path",
        jobs.len()
    );
    println!(
        "service counters: {} jobs, {} forward passes over {} cuts",
        stats.jobs_served, stats.inference_batches, stats.inference_rows
    );

    // When tracing is on (`ELF_TRACE=1`), export the whole run as Chrome
    // `trace_event` JSON, and round-trip it through the bundled parser to
    // prove the spans nest — the CI smoke gate for the trace pipeline.
    if elf::obs::trace::enabled() {
        let json = elf::obs::trace::export_chrome_json();
        let events = elf::obs::chrome::parse_trace(&json).expect("trace JSON parses");
        let spans = elf::obs::chrome::validate_nesting(&events).expect("trace spans nest");
        let path = std::path::Path::new("target").join("serve_traffic_trace.json");
        std::fs::write(&path, &json).expect("write trace file");
        println!(
            "trace: {spans} spans exported to {} (load it in chrome://tracing)",
            path.display()
        );
    }
}
