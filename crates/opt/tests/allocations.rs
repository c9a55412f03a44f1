//! The refactor pass stays off the heap: one plain `Refactor::run` over an
//! arithmetic circuit, counted by a `#[global_allocator]` of this test
//! binary's own, makes a handful of allocations per visited node — the cut's
//! truth table and its NPN representative — where the boxed factored form
//! made 351 (a `Vec` per quotient, remainder, cube and reduction level, a
//! `Box` per gate, and the whole tree a second time to decanonicalize it).
//!
//!
//! A batched pruned pass (`Elf<Refactor>`, keep-everything classifier) adds
//! phase 1's feature sweep, whose window store must amortise — grow a few
//! times per pass, never once per node — and the classifier's batch.
//!
//! The count is per thread, and a test function is alone on its thread.

// A global allocator cannot be written without `unsafe impl`; this test
// binary is the workspace's one exception to `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elf_circuits::epfl::{multiplier, Scale};
use elf_core::{Elf, ElfClassifier, ElfOptions, Parallelism};
use elf_nn::{Mlp, Normalizer};
use elf_opt::{CutCache, CutCacheConfig, PrunableOperator, Refactor, RefactorParams};

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// `Cell` without a destructor, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc` or `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per visited node above which the pass is back on the heap.
/// Measured: 2.1, cache off and cache warm alike — the table a cut is
/// simulated into and the representative's table (a second one on balanced
/// ON-sets), plus what the few commits and the pass driver's own buffers
/// come to per node.
const CEILING: f64 = 4.0;

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

/// Allocations per visited node of a batched pruned pass above which its
/// window store (or anything else of phases 1–3) allocates per node.
/// Measured: 4.42, cache off — the pass's own 2.42 (the plain pass's 2.1,
/// plus 0.3 for the sweep's chunk stores growing by doubling and the target
/// list) and the classifier's 2.0 per row (`normalized_rows` copies each row
/// into the self-normalisation dataset and returns a `Vec` per row).  A
/// `Vec` per stored window would read 5.4.
const BATCHED_CEILING: f64 = 5.0;

#[test]
fn a_batched_pruned_pass_amortises_its_window_store() {
    let source = multiplier(Scale::Tiny);
    let keep_all = ElfClassifier::from_parts(
        Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
        Mlp::paper_architecture(5),
        0.0,
    );
    let options = ElfOptions {
        cut_cache: CutCacheConfig::disabled(),
        ..ElfOptions::default()
    };
    let elf = Elf::with_operator(keep_all, Refactor::default(), options);
    let first = elf.run_with(&mut source.clone(), Parallelism::sequential());
    let mut aig = source.clone();
    let before = ALLOCATIONS.with(Cell::get);
    let stats = elf.run_with(&mut aig, Parallelism::sequential());
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
