//! The traced run: every layer probed from outside, on the workload's own
//! input circuits, through public functions only.
//!
//! Each call into a layer sits in a span named after the per-layer metric it
//! feeds (one span per circuit and layer, never per node), next to the spans
//! the program emits itself (`features`, `classify`, `mutate`, `nn_forward`,
//! `flow`, `job`, `forward`, `cec`).  End-to-end metrics are never read here.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use elf_aig::{Aig, Cut, Lit, NodeId};
use elf_core::{CutCache, CutCacheConfig, ElfStats, Parallelism};
use elf_obs::trace::SpanEvent;
use elf_obs::{chrome, trace};
use elf_opt::{
    count_new_nodes, cut_truth_table, semi_canonicalize, PrunableOperator, Refactor, RefactorParams,
};
use elf_sop::{factor, Sop, TruthTable};

use crate::check::{same_function, Ops};
use crate::inputs::{Circuit, Prepared};
use crate::serving::{Phase, ServeRig};
use crate::stats::{geometric_mean, quantile, Summary};
use crate::workloads::arith_rf::pruned_refactor;
use crate::workloads::cec_verify::{timed_check, verdict_problem};
use crate::workloads::flow_cached::{plain_flow, pruned_flow};
use crate::workloads::serve_open::OUTSTANDING;
use crate::workloads::Ctx;

/// Runs `work` inside a span called `name` and returns its result and seconds.
fn timed<R>(name: &'static str, circuit: usize, work: impl FnOnce() -> R) -> (R, f64) {
    let _span = elf_obs::span!(name, circuit = circuit);
    let start = Instant::now();
    let result = work();
    (result, start.elapsed().as_secs_f64())
}

/// Seconds and call counts of the static sweeps, summed over circuits.
#[derive(Debug, Default)]
struct Sweep {
    nodes: usize,
    cuts: usize,
    ands: usize,
    rows: usize,
    cut_s: f64,
    features_s: f64,
    mffc_s: f64,
    truth_s: f64,
    canon_s: f64,
    isop_s: f64,
    factor_s: f64,
    gain_s: f64,
    lookup_s: f64,
    rebuild_s: f64,
    forward_s: f64,
    collect_t1_s: f64,
    collect_t2_s: f64,
}

/// Sweeps every live AND node of `circuit` through each layer's per-node or
/// per-cut call, without changing the circuit.
fn sweep(index: usize, circuit: &Circuit, total: &mut Sweep) {
    let params = RefactorParams::default();
    let mut aig = circuit.aig.clone();
    let nodes: Vec<NodeId> = aig.and_ids().filter(|&id| aig.refs(id) > 0).collect();
    total.nodes += nodes.len();

    // elf-aig: cut computation, feature scan, MFFC dereference + restore.
    let mut cut = Cut::empty();
    total.cut_s += timed("aig.cut_us_per_node", index, || {
        for &node in &nodes {
            aig.reconvergence_cut_into(node, &params.cut, &mut cut);
            black_box(&cut);
        }
    })
    .1;
    let cuts: Vec<Cut> = nodes
        .iter()
        .map(|&node| aig.reconvergence_cut(node, &params.cut))
        .collect();
    total.features_s += timed("aig.features_us_per_node", index, || {
        for cut in &cuts {
            black_box(aig.cut_features(cut));
        }
    })
    .1;
    total.mffc_s += timed("aig.mffc_us_per_node", index, || {
        for cut in &cuts {
            black_box(aig.deref_mffc_bounded(cut.root, &cut.leaves));
            aig.ref_mffc_bounded(cut.root, &cut.leaves);
        }
    })
    .1;

    // The cuts the operator would resynthesize.
    let eligible: Vec<&Cut> = cuts
        .iter()
        .filter(|cut| cut.num_leaves() >= params.min_leaves)
        .collect();
    total.cuts += eligible.len();

    // elf-opt: truth table and NPN canonicalisation; elf-sop: ISOP, factoring.
    let (tables, seconds) = timed("opt.truth_us_per_cut", index, || {
        eligible
            .iter()
            .map(|cut| cut_truth_table(&aig, cut))
            .collect::<Vec<TruthTable>>()
    });
    total.truth_s += seconds;
    total.canon_s += timed("opt.canon_us_per_cut", index, || {
        for table in &tables {
            black_box(semi_canonicalize(table));
        }
    })
    .1;
    let (covers, seconds) = timed("sop.isop_us_per_cut", index, || {
        tables.iter().map(Sop::isop).collect::<Vec<Sop>>()
    });
    total.isop_s += seconds;
    let (forms, seconds) = timed("sop.factor_us_per_cut", index, || {
        covers.iter().map(factor).collect::<Vec<_>>()
    });
    total.factor_s += seconds;

    // elf-opt: gain evaluation under a dereferenced MFFC, as the operator does.
    {
        let _span = elf_obs::span!("opt.gain_eval_us_per_cut", circuit = index);
        for (cut, form) in eligible.iter().zip(&forms) {
            let leaves: Vec<Lit> = cut.leaves.iter().map(|&leaf| leaf.lit()).collect();
            aig.deref_mffc_bounded(cut.root, &cut.leaves);
            let start = Instant::now();
            black_box(count_new_nodes(&aig, form, &leaves, Some(cut.root)));
            total.gain_s += start.elapsed().as_secs_f64();
            aig.ref_mffc_bounded(cut.root, &cut.leaves);
        }
    }

    // elf-opt: a warm cache lookup (canonicalise, hit, decanonicalise).
    let cache = CutCache::new(CutCacheConfig::default());
    for table in &tables {
        black_box(cache.factor(table));
    }
    total.lookup_s += timed("opt.cache_lookup_ns", index, || {
        for table in &tables {
            black_box(cache.factor(table));
        }
    })
    .1;

    // elf-aig: structural hashing, by re-inserting the circuit through `and`.
    let order = aig.topological_order();
    total.ands += order.len();
    total.rebuild_s += timed("aig.rebuild_ns_per_and", index, || {
        let mut copy = Aig::new();
        let mut map = vec![Lit::FALSE; aig.num_slots()];
        for (&input, lit) in aig.inputs().iter().zip(copy.add_inputs(aig.num_inputs())) {
            map[input.as_usize()] = lit;
        }
        for &id in &order {
            let (f0, f1) = aig.fanins(id);
            let a = map[f0.node().as_usize()].complement_if(f0.is_complemented());
            let b = map[f1.node().as_usize()].complement_if(f1.is_complemented());
            map[id.as_usize()] = copy.and(a, b);
        }
        black_box(copy.num_ands());
    })
    .1;

    // elf-nn: the forward pass over this circuit's normalised rows.
    let features: Vec<[f32; elf_aig::NUM_FEATURES]> = cuts
        .iter()
        .map(|cut| aig.cut_features(cut).to_array())
        .collect();
    let rows = circuit.classifier.normalized_rows(&features, true);
    total.rows += rows.len();
    total.forward_s += timed("nn.forward_ns_per_row", index, || {
        black_box(
            circuit
                .classifier
                .model()
                .predict_with(&rows, Parallelism::sequential()),
        );
    })
    .1;

    // elf-par: the feature sweep on one thread and on two.
    let operator = Refactor::new(params);
    total.collect_t1_s += timed("par.collect_t1", index, || {
        black_box(operator.collect_features_with(&aig, Parallelism::sequential()));
    })
    .1;
    total.collect_t2_s += timed("par.collect_t2", index, || {
        black_box(operator.collect_features_with(&aig, Parallelism::threads(2)));
    })
    .1;
}

/// The five `rf` arms of the traced run, cut cache off in all of them.
const ARMS: [&str; 5] = ["plain", "keepall", "pruned", "pruned_untraced", "shipped"];

/// What the `rf` arms of the traced run found.
#[derive(Debug)]
struct RfArms {
    /// Seconds per `[arm][circuit][rep]`.
    seconds: Vec<Vec<Vec<f64>>>,
    /// Reachable ANDs of the output per `[arm][circuit]`.
    ands: Vec<Vec<usize>>,
    /// Statistics of the pruned arm per circuit.
    pruned: Vec<ElfStats>,
    /// Statistics of the shipped-threshold arm per circuit.
    shipped: Vec<ElfStats>,
    /// Cuts the plain arm committed and resynthesized.
    commits: (usize, usize),
}

/// Runs every arm `reps` times on every circuit, rotating which goes first.
fn rf_arms(prepared: &Prepared, reps: usize, seed: u64, ops: &mut Ops) -> RfArms {
    let count = prepared.circuits.len();
    let mut arms = RfArms {
        seconds: vec![vec![Vec::new(); count]; ARMS.len()],
        ands: vec![vec![0; count]; ARMS.len()],
        pruned: vec![ElfStats::default(); count],
        shipped: vec![ElfStats::default(); count],
        commits: (0, 0),
    };
    let plain = Refactor::new(RefactorParams::default());
    for rep in 0..reps {
        for (index, circuit) in prepared.circuits.iter().enumerate() {
            for turn in 0..ARMS.len() {
                let arm = (turn + rep + index) % ARMS.len();
                let mut aig = circuit.aig.clone();
                if arm == 3 {
                    trace::force_disable();
                }
                let (stats, elapsed) = timed(ARMS[arm], index, || match arm {
                    0 => {
                        let stats = plain.run(&mut aig);
                        if rep == 0 {
                            arms.commits.0 += stats.cuts_committed;
                            arms.commits.1 += stats.cuts_resynthesized;
                        }
                        None
                    }
                    1 => Some(pruned_refactor(circuit.keep_all_classifier()).run(&mut aig)),
                    4 => Some(pruned_refactor(circuit.shipped_classifier()).run(&mut aig)),
                    _ => Some(pruned_refactor(circuit.classifier.clone()).run(&mut aig)),
                });
                trace::force_enable();
                arms.seconds[arm][index].push(elapsed);
                if rep == 0 {
                    arms.ands[arm][index] = aig.num_reachable_ands();
                    ops.record(
                        (!same_function(&circuit.aig, &aig, seed)).then(|| {
                            format!("{} {}: output not equivalent", circuit.name, ARMS[arm])
                        }),
                    );
                    match (arm, stats) {
                        (2, Some(stats)) => arms.pruned[index] = stats,
                        (4, Some(stats)) => arms.shipped[index] = stats,
                        _ => {}
                    }
                }
            }
        }
    }
    arms
}

/// Sum over circuits of the circuit's fastest repetition.
fn total_fastest(seconds: &[Vec<f64>]) -> f64 {
    seconds.iter().map(|reps| Summary::of(reps).min).sum()
}

fn worst_delta_pct(plain: &[usize], other: &[usize]) -> f64 {
    plain
        .iter()
        .zip(other)
        .map(|(&p, &o)| (o as f64 - p as f64) / p.max(1) as f64 * 100.0)
        .fold(f64::NEG_INFINITY, f64::max)
}

fn prune_rate(stats: &[ElfStats]) -> f64 {
    let pruned: usize = stats.iter().map(|s| s.pruned).sum();
    let seen: usize = stats.iter().map(|s| s.pruned + s.kept).sum();
    pruned as f64 / seen.max(1) as f64
}

/// Probes every layer on `prepared` and returns one value per per-layer
/// metric.  Writes the Chrome trace to `trace_path`.
pub fn probe(
    ctx: &Ctx,
    prepared: &Prepared,
    trace_path: &Path,
    ops: &mut Ops,
) -> BTreeMap<&'static str, f64> {
    trace::force_enable();
    trace::clear();
    let mut out = BTreeMap::new();
    let count = prepared.circuits.len();
    let mut lap = Instant::now();
    let mut done = |section: &str| {
        eprintln!("probe: {section} took {:.2} s", lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };

    // Static sweeps: aig, sop, opt kernels, nn, par.
    let mut s = Sweep::default();
    for (index, circuit) in prepared.circuits.iter().enumerate() {
        sweep(index, circuit, &mut s);
    }
    let (nodes, cuts) = (s.nodes.max(1) as f64, s.cuts.max(1) as f64);
    out.insert("aig.cut_us_per_node", s.cut_s * 1e6 / nodes);
    out.insert("aig.features_us_per_node", s.features_s * 1e6 / nodes);
    out.insert("aig.mffc_us_per_node", s.mffc_s * 1e6 / nodes);
    out.insert(
        "aig.rebuild_ns_per_and",
        s.rebuild_s * 1e9 / s.ands.max(1) as f64,
    );
    out.insert("sop.isop_us_per_cut", s.isop_s * 1e6 / cuts);
    out.insert("sop.factor_us_per_cut", s.factor_s * 1e6 / cuts);
    out.insert("opt.truth_us_per_cut", s.truth_s * 1e6 / cuts);
    out.insert("opt.canon_us_per_cut", s.canon_s * 1e6 / cuts);
    out.insert("opt.gain_eval_us_per_cut", s.gain_s * 1e6 / cuts);
    out.insert("opt.cache_lookup_ns", s.lookup_s * 1e9 / cuts);
    out.insert(
        "nn.forward_ns_per_row",
        s.forward_s * 1e9 / s.rows.max(1) as f64,
    );
    out.insert("par.collect_speedup_t2", s.collect_t1_s / s.collect_t2_s);
    done("static sweeps");

    // The refactor pass, cache off: plain, always-keep control, pruned at
    // the fixed-recall point (traced and untraced), pruned as shipped.
    let reps = ctx.min_trials;
    let RfArms {
        seconds,
        ands,
        pruned,
        shipped,
        commits,
    } = rf_arms(prepared, reps, ctx.seed, ops);
    let [plain_s, keepall_s, pruned_s, untraced_s, _] =
        [0, 1, 2, 3, 4].map(|arm| total_fastest(&seconds[arm]));
    out.insert("core.plain_s", plain_s);
    out.insert("core.pruned_s", pruned_s);
    out.insert("core.keepall_over_plain", keepall_s / plain_s);
    let speedups: Vec<f64> = (0..count)
        .map(|c| Summary::of(&seconds[0][c]).min / Summary::of(&seconds[2][c]).min)
        .collect();
    out.insert("core.prune_speedup", geometric_mean(&speedups));
    out.insert(
        "core.features_s",
        pruned.iter().map(|s| s.feature_time.as_secs_f64()).sum(),
    );
    out.insert(
        "core.classify_s",
        pruned.iter().map(|s| s.classify_time.as_secs_f64()).sum(),
    );
    out.insert(
        "core.mutate_s",
        pruned.iter().map(|s| s.op.runtime.as_secs_f64()).sum(),
    );
    out.insert("core.prune_rate", prune_rate(&pruned));
    out.insert("core.and_delta_pct", worst_delta_pct(&ands[0], &ands[2]));
    out.insert("core.shipped_prune_rate", prune_rate(&shipped));
    out.insert(
        "core.shipped_and_delta_pct",
        worst_delta_pct(&ands[0], &ands[4]),
    );
    let recalls: Vec<f64> = prepared
        .circuits
        .iter()
        .filter_map(|c| c.shipped_recall)
        .collect();
    out.insert(
        "core.shipped_recall",
        recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
    );
    out.insert(
        "opt.commit_rate",
        commits.0 as f64 / commits.1.max(1) as f64,
    );
    out.insert(
        "obs.trace_overhead_pct",
        (pruned_s - untraced_s) / untraced_s * 100.0,
    );
    out.insert("core.dataset_s", prepared.times.dataset_s);
    out.insert("nn.train_s", prepared.times.train_s);
    out.insert("circuits.gen_s", prepared.times.gen_s);
    done("refactor arms");

    // The flow with one warm cache per arm: stage times, hit rate, and the
    // optimized circuits the equivalence checks below are given.
    let caches = [
        CutCache::new(CutCacheConfig::default()),
        CutCache::new(CutCacheConfig::default()),
    ];
    let mut stage_s = [0.0f64; 3];
    let mut flow_s = 0.0;
    let mut optimized = Vec::with_capacity(count);
    for (index, circuit) in prepared.circuits.iter().enumerate() {
        let mut aig = circuit.aig.clone();
        let (stats, elapsed) = timed("flow.plain", index, || plain_flow(&caches[0]).run(&mut aig));
        flow_s += elapsed;
        for (total, stage) in stage_s.iter_mut().zip(&stats.stages) {
            *total += stage.runtime.as_secs_f64();
        }
        let mut twin = circuit.aig.clone();
        timed("flow.pruned", index, || {
            pruned_flow(&circuit.classifier, &caches[1]).run(&mut twin)
        });
        optimized.push(aig);
    }
    out.insert("opt.rf_stage_s", stage_s[0]);
    out.insert("opt.rw_stage_s", stage_s[1]);
    out.insert("opt.rs_stage_s", stage_s[2]);
    out.insert("opt.cache_hit_rate", caches[0].stats().hit_rate());
    done("flows");

    // elf-cec: each input against its optimized circuit.
    let (mut verify_s, mut decided) = (0.0, 0usize);
    let (mut conflicts, mut sat_calls, mut undecided_pairs, mut miter_ands) = (0u64, 0, 0, 0);
    for (circuit, after) in prepared.circuits.iter().zip(&optimized) {
        let (report, elapsed) = timed_check(ctx, &circuit.aig, after);
        ops.record(verdict_problem(
            &circuit.name,
            &circuit.aig,
            after,
            true,
            &report.result,
        ));
        verify_s += elapsed;
        decided += usize::from(report.result.is_proved());
        conflicts += report.conflicts;
        sat_calls += report.sat_calls;
        undecided_pairs += report.undecided_pairs;
        miter_ands += report.miter_ands;
    }
    out.insert("cec.verify_s", verify_s);
    out.insert("cec.decided_frac", decided as f64 / count as f64);
    out.insert("cec.conflicts", conflicts as f64);
    out.insert("cec.sat_calls", sat_calls as f64);
    out.insert("cec.undecided_pairs", undecided_pairs as f64);
    out.insert("cec.miter_ands", miter_ands as f64);
    out.insert(
        "cec.us_per_conflict",
        verify_s * 1e6 / conflicts.max(1) as f64,
    );
    out.insert("cec.verify_over_flow", verify_s / flow_s);
    done("equivalence checks");

    // elf-serve: the circuits as jobs, closed loop on two shards.
    let mut rig = ServeRig::start(prepared, ops);
    let budget = (ctx.seconds * 0.2).min(3.0);
    let phase = rig.closed_loop(
        prepared,
        OUTSTANDING,
        ctx.seed,
        |completed, elapsed| elapsed >= budget && completed >= count,
        ops,
    );
    drop(rig);
    let jobs = phase.completed.max(1) as f64;
    out.insert("serve.capacity_jps", phase.jobs_per_second());
    out.insert("serve.lat_p50_ms", Phase::p50(&phase.latency_ms));
    out.insert("serve.lat_p99_ms", quantile(&phase.latency_ms, 0.99));
    out.insert("serve.queue_wait_p50_us", Phase::p50(&phase.queue_wait_us));
    out.insert("serve.service_p50_us", Phase::p50(&phase.service_us));
    out.insert("serve.overhead_p50_us", Phase::p50(&phase.overhead_us));
    out.insert(
        "serve.batch_rows_mean",
        phase.forward_rows as f64 / phase.forward_passes.max(1) as f64,
    );
    out.insert(
        "serve.forward_passes_per_job",
        phase.forward_passes as f64 / jobs,
    );
    out.insert(
        "serve.shed_frac",
        phase.shed as f64 / (phase.completed + phase.shed).max(1) as f64,
    );
    done("serving");

    // elf-obs: write the trace, read it back, and account every span.
    out.insert("obs.dropped_spans", trace::dropped_spans() as f64);
    let events = trace::take_events();
    trace::force_disable();
    match validate_in_pieces(&events) {
        Ok(spans) => {
            eprintln!(
                "trace: {spans} spans nest correctly -> {}",
                trace_path.display()
            );
            ops.record(None);
        }
        Err(error) => ops.record(Some(format!("trace does not validate: {error}"))),
    }
    print_self_times(&events);
    if let Err(error) = std::fs::write(trace_path, chrome::render_chrome(&events)) {
        eprintln!("trace: cannot write {}: {error}", trace_path.display());
    }
    done("trace export and validation");
    out
}

/// Renders `events` as Chrome JSON, parses it back and checks the nesting,
/// in pieces of [`PIECE`] spans.
///
/// `chrome::parse_trace` re-validates the rest of the document as UTF-8 for
/// every character of every string, so its time grows with the square of the
/// document: the 30 k spans of a traced `serve_open` take four minutes in
/// one piece and three seconds in pieces.  Spans are grouped by the order in
/// which they ended; a piece then holds whole subtrees, or children whose
/// parent ends in a later piece, and either way nests on its own.
fn validate_in_pieces(events: &[SpanEvent]) -> Result<usize, String> {
    const PIECE: usize = 256;
    let mut by_end: Vec<&SpanEvent> = events.iter().collect();
    by_end.sort_by_key(|event| event.end_seq);
    let mut spans = 0;
    for piece in by_end.chunks(PIECE) {
        let piece: Vec<SpanEvent> = piece.iter().map(|&event| event.clone()).collect();
        let parsed = chrome::parse_trace(&chrome::render_chrome(&piece))?;
        spans += chrome::validate_nesting(&parsed)?;
    }
    Ok(spans)
}

/// Prints, per span name, how often it ran, its total time and its self time
/// (its duration minus what its direct children cover).
fn print_self_times(events: &[SpanEvent]) {
    let mut by_thread: BTreeMap<usize, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        by_thread.entry(event.thread).or_default().push(event);
    }
    // name -> (count, total µs, self µs)
    let mut totals: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
    for spans in by_thread.values_mut() {
        spans.sort_by_key(|span| span.start_seq);
        // Open spans, innermost last: (span, µs covered by direct children).
        let mut open: Vec<(&SpanEvent, u64)> = Vec::new();
        let mut close = |open: &mut Vec<(&SpanEvent, u64)>| {
            let (span, children) = open.pop().expect("caller checked");
            let duration = span.end_us - span.start_us;
            if let Some(parent) = open.last_mut() {
                parent.1 += duration;
            }
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration.saturating_sub(children);
        };
        for &span in spans.iter() {
            while open
                .last()
                .is_some_and(|(top, _)| top.end_seq < span.start_seq)
            {
                close(&mut open);
            }
            open.push((span, 0));
        }
        while !open.is_empty() {
            close(&mut open);
        }
    }
    eprintln!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in totals {
        eprintln!(
            "{name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
}
