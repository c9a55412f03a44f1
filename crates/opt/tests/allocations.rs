//! The refactor pass stays off the heap: one plain `Refactor::run` over an
//! arithmetic circuit, counted by a `#[global_allocator]` of this test
//! binary's own, allocates less than once per visited node — the cut's truth
//! table and its NPN representative live in the pass scratch — where the
//! boxed factored form made 351 (a `Vec` per quotient, remainder, cube and
//! reduction level, a `Box` per gate, and the whole tree a second time to
//! decanonicalize it), and the two tables owned per cut made 2.
//!
//! A plain `Rewrite::run` keeps its complete nodes' cut sets and the
//! canonical forms of the functions it weighs for the whole pass; both grow
//! by doubling, so the pass too allocates less than once per visited node
//! beyond what the debug build's commit checks do.
//!
//! A batched pruned pass (`Elf<Refactor>`, keep-everything classifier) adds
//! phase 1's feature sweep, whose window store must amortise — grow a few
//! times per pass, never once per node — and the classifier's batch.
//!
//! The AIGER reader sizes nothing by its untrusted header: a 21-byte file
//! declaring 2²⁶ variables and defining none allocates a few bytes, where a
//! table sized by the header took 512 MiB; nor by the indices the file
//! names: one input at index 2²⁶ costs a map entry.
//!
//! Training runs one fused step over a workspace allocated once per run:
//! `elf_nn::train` on the golden training pin's dataset allocates less than
//! once per mini-batch over the whole run.
//!
//! An equivalence check keeps its simulation words in flat tables and forms
//! its classes without a key per node, and its solver keeps every watch list
//! in one store: `elf_cec::check_equivalence_with` of an arithmetic circuit
//! against its optimized form allocates a small number of times per check,
//! not per miter AND.
//!
//! Resynthesis factors in caller-owned buffers: one warm `FactorScratch` and
//! `FactoredForm` factor the canonical table of every Tiny-suite cut, whole
//! or stopped by the watcher, without allocating at all.
//!
//! The counts are per thread, and a test function is alone on its thread.

// A global allocator cannot be written without `unsafe impl`; this test
// binary is the workspace's one exception to `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elf_cec::{check_equivalence_with, CecParams, Equivalence};
use elf_circuits::arithmetic_circuit;
use elf_circuits::epfl::{arithmetic_suite, multiplier, Scale};
use elf_core::{Elf, ElfClassifier, ElfOptions, Flow, Parallelism};
use elf_nn::{train, Dataset, Mlp, Normalizer, TrainConfig};
use elf_opt::{
    cut_truth_table, semi_canonicalize, CutCache, CutCacheConfig, PrunableOperator, Refactor,
    RefactorParams, Rewrite,
};
use elf_sop::{factor_truth_table_into, FactorScratch, FactoredForm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size whole).
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes on this thread.
fn count(size: usize) {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
    BYTES.with(|bytes| bytes.set(bytes.get() + size));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are const-initialized thread-local
// `Cell`s without a destructor, so touching them neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per visited node above which the pass is back on the heap.
/// Measured: 0.15 cache off and 0.13 cache warm in a release build, 0.20 in
/// a debug build, whose commit checks allocate — what the few commits and
/// the pass driver's own buffers come to per node.  A table owned per cut
/// adds 1 (the cut's function and its representative read 2.0 while each
/// was one).
const CEILING: f64 = 0.25;

#[test]
fn a_plain_refactor_pass_allocates_a_handful_of_times_per_node() {
    let source = multiplier(Scale::Tiny);
    for cached in [false, true] {
        let mut operator = Refactor::new(RefactorParams::default());
        if cached {
            operator.set_cut_cache(CutCache::new(CutCacheConfig::default()));
        }
        // The first pass fills the cache; the second is the one counted.
        let first = operator.run(&mut source.clone());
        let mut aig = source.clone();
        let before = ALLOCATIONS.with(Cell::get);
        let stats = operator.run(&mut aig);
        let allocations = ALLOCATIONS.with(Cell::get) - before;

        assert_eq!(stats.cuts_committed, first.cuts_committed);
        assert!(stats.nodes_visited > 200, "{stats:?}");
        if cached {
            let cache = operator.cut_cache();
            assert!(cache.local_hits() > cache.local_misses(), "{cache:?}");
        }
        let per_node = allocations as f64 / stats.nodes_visited as f64;
        assert!(
            per_node <= CEILING,
            "{per_node:.1} allocations per node (cache {}): {allocations} over {stats:?}",
            if cached { "warm" } else { "off" },
        );
    }
}

/// Allocations per visited node above which a plain rewrite pass allocates
/// per root: its store of complete nodes' cut sets and its memo of
/// canonical forms must grow by doubling, a few times per pass.  Measured:
/// 0.17 in a release build and 1.01 in a debug build, cache off or warm —
/// the debug build's commit checks allocate about fifty times per commit
/// (the pass before the store outlived edits read 1.05).  Anything
/// allocated once per root adds 1.
const REWRITE_CEILING: f64 = 1.5;

#[test]
fn a_plain_rewrite_pass_allocates_a_handful_of_times_per_node() {
    let source = multiplier(Scale::Tiny);
    for cached in [false, true] {
        let mut operator = Rewrite::new();
        if cached {
            operator.set_cut_cache(CutCache::new(CutCacheConfig::default()));
        }
        // The first pass fills the cache; the second is the one counted.
        let first = operator.run(&mut source.clone());
        let mut aig = source.clone();
        let before = ALLOCATIONS.with(Cell::get);
        let stats = operator.run(&mut aig);
        let allocations = ALLOCATIONS.with(Cell::get) - before;

        assert_eq!(stats.cuts_committed, first.cuts_committed);
        assert!(stats.nodes_visited > 200, "{stats:?}");
        let per_node = allocations as f64 / stats.nodes_visited as f64;
        assert!(
            per_node <= REWRITE_CEILING,
            "{per_node:.2} allocations per node (cache {}): {allocations} over {stats:?}",
            if cached { "warm" } else { "off" },
        );
    }
}

/// Allocations per visited node of a batched pruned pass above which its
/// window store, its classifier batch (or anything else of phases 1–3)
/// allocates per node.  Measured: 0.47 in a release build and 0.52 in a
/// debug build, cache off — the plain pass's 0.15, plus 0.3 for the sweep's
/// chunk stores growing by doubling and the target list; the classifier
/// standardizes the batch into one buffer and runs the network in stack
/// buffers, a handful of allocations per batch.  A `Vec` per stored window
/// or per classified row would read 1.47 (4.35 while the classifier made
/// two `Vec`s per row and each cut owned its two tables).
const BATCHED_CEILING: f64 = 0.6;

#[test]
fn a_batched_pruned_pass_amortises_its_window_store() {
    let source = multiplier(Scale::Tiny);
    let keep_all = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::paper_architecture(5),
        0.0,
    );
    let options = ElfOptions {
        parallelism: Parallelism::sequential(),
        cut_cache: CutCacheConfig::disabled(),
    };
    let elf = Elf::with_operator(keep_all, Refactor::default(), options);
    let first = elf.run(&mut source.clone());
    let mut aig = source.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let stats = elf.run(&mut aig);
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(stats.op.cuts_committed, first.op.cuts_committed);
    assert_eq!(stats.pruned, 0);
    assert!(stats.op.nodes_visited > 200, "{stats:?}");
    assert!(
        stats.op.windows_reused > stats.op.nodes_visited / 2,
        "{stats:?}"
    );
    let per_node = allocations as f64 / stats.op.nodes_visited as f64;
    assert!(
        per_node <= BATCHED_CEILING,
        "{per_node:.2} allocations per node: {allocations} over {stats:?}"
    );
}

/// A scratch and a form that have factored every table once factor them
/// all again without the allocator — the cube stack is resized within the
/// capacity the largest cover left it — whether the watcher lets each
/// factoring finish or stops it at the fourth gate, as a gain count does.
#[test]
fn a_warm_scratch_factors_without_allocating() {
    let params = RefactorParams::default();
    let mut tables = Vec::new();
    for (_, aig) in arithmetic_suite(Scale::Tiny) {
        for node in aig.and_ids().filter(|&node| aig.refs(node) > 0) {
            let cut = aig.reconvergence_cut(node, &params.cut);
            if cut.num_leaves() >= params.min_leaves {
                tables.push(semi_canonicalize(&cut_truth_table(&aig, &cut)).0);
            }
        }
    }
    assert!(tables.len() > 1000, "{} cuts", tables.len());
    let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
    for table in &tables {
        factor_truth_table_into(table, &mut scratch, &mut form, |_| true);
    }
    for stop in [None, Some(4)] {
        let before = ALLOCATIONS.with(Cell::get);
        let mut gates = 0;
        for table in &tables {
            factor_truth_table_into(table, &mut scratch, &mut form, |form| {
                stop.is_none_or(|k| form.num_gates() < k)
            });
            gates += form.num_gates();
        }
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert!(gates > tables.len(), "{gates} gates");
        assert_eq!(
            allocations,
            0,
            "{allocations} allocations factoring {} tables, stopped at gate {stop:?}",
            tables.len()
        );
    }
}

/// Bytes above which parsing a header-only AIGER file allocates by what the
/// header declares.  A variable table sized by the header's M took 512 MiB
/// for the empty `aag` header below.
const HEADER_ONLY_CEILING: usize = 1 << 20;

#[test]
fn a_header_only_aiger_file_allocates_nothing_it_declares() {
    let before = BYTES.with(Cell::get);
    let aig = elf_aig::aiger::from_ascii("aag 67108864 0 0 0 0\n").expect("an empty circuit");
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(aig.num_inputs() + aig.num_outputs(), 0);
    assert!(
        bytes < HEADER_ONLY_CEILING,
        "{bytes} bytes for an empty circuit"
    );

    // One input named by the largest index the header allows: a map entry,
    // not a table up to it.
    let before = BYTES.with(Cell::get);
    let aig = elf_aig::aiger::from_ascii("aag 67108864 1 0 1 0\n134217728\n134217729\n")
        .expect("one inverter");
    let bytes = BYTES.with(Cell::get) - before;
    assert_eq!(aig.evaluate(&[false]), vec![true]);
    assert!(bytes < HEADER_ONLY_CEILING, "{bytes} bytes for one input");

    // 2²⁶ implicit inputs and outputs promised in 35 bytes: rejected before
    // anything is built for them.
    let before = BYTES.with(Cell::get);
    assert!(elf_aig::aiger::from_binary(b"aig 67108864 67108864 0 67108864 0\n").is_err());
    let bytes = BYTES.with(Cell::get) - before;
    assert!(
        bytes < HEADER_ONLY_CEILING,
        "{bytes} bytes for a rejected header"
    );
}

/// Allocations per mini-batch above which training is back on the heap per
/// batch.  Measured: 0.079 in release and debug builds (111 allocations over
/// 1 410 mini-batches, each made once per run or once per epoch: the split,
/// the sampler, the step's workspace, Adam's moments, the pool, and one
/// validation pass per epoch).  The per-batch `Matrix` pipeline read 132
/// (186 595), about 30 per batch plus a `Vec` per pool row per epoch;
/// anything allocated once per batch adds 1.
const TRAIN_CEILING: f64 = 0.2;

/// The dataset of `crates/nn/tests/golden_training.rs`: 3 000 rows of six
/// features on mixed scales, about 2 % positive.
fn golden_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut data = Dataset::new();
    for _ in 0..3000 {
        let x: Vec<f32> = (0..6)
            .map(|k| rng.gen_range(0.0..1.0f32) * [1.0, 4.0, 16.0, 2.0, 1.0, 8.0][k])
            .collect();
        let positive = x[0] < 0.2 && x[4] > 0.9;
        data.push(x, positive);
    }
    data
}

#[test]
fn training_allocates_less_than_once_per_mini_batch() {
    let data = golden_dataset();
    let mut model = Mlp::paper_architecture(7);
    let before = ALLOCATIONS.with(Cell::get);
    let report = train(&mut model, &data, &TrainConfig::default());
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    // Each epoch's pool is the train split resampled, plus a quarter as many
    // MixUp rows, in mini-batches of 64; the validation split is what the
    // report's confusion matrix counts.
    let train_rows = data.len() - report.validation_metrics.total();
    let batches = report.epochs_run * (train_rows + train_rows / 4).div_ceil(64);
    assert!(batches > 1000, "{batches} mini-batches");
    let per_batch = allocations as f64 / batches as f64;
    assert!(
        per_batch < TRAIN_CEILING,
        "{per_batch:.2} allocations per mini-batch: {allocations} over {batches}"
    );
}

/// Allocations per miter AND above which an equivalence check is back to
/// per-node bookkeeping.  Measured on Tiny `log2` against its `rf; rw; rs`
/// output (4 729 miter ANDs), release and debug builds alike: 0.027 (129,
/// tables sized once per check and stores grown by doubling).  With a `Vec`
/// of simulation words per node, grown round by round, a key allocated per
/// node to form the classes, and a watch list `Vec` per literal, the same
/// check read 5.58 (26 379).  Anything allocated once per node adds 1.
const CEC_CEILING: f64 = 0.1;

#[test]
fn an_equivalence_check_allocates_per_check_not_per_miter_and() {
    let source = arithmetic_circuit("log2", Scale::Tiny);
    let mut optimized = source.clone();
    Flow::from_script("rf; rw; rs")
        .expect("the script parses")
        .with_parallelism(Parallelism::sequential())
        .run(&mut optimized);
    let params = CecParams {
        conflict_budget: 3_000,
    };
    let before = ALLOCATIONS.with(Cell::get);
    let report = check_equivalence_with(&source, &optimized, &params);
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(report.result, Equivalence::Proved);
    let per_and = allocations as f64 / report.miter_ands as f64;
    assert!(
        per_and <= CEC_CEILING,
        "{per_and:.2} allocations per miter AND: {allocations} over {report:?}"
    );
}
