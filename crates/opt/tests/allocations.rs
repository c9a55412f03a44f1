//! The refactor pass stays off the heap: one plain `Refactor::run` over an
//! arithmetic circuit, counted by a `#[global_allocator]` of this test
//! binary's own, makes a handful of allocations per visited node — the cut's
//! truth table and its NPN representative — where the boxed factored form
//! made 351 (a `Vec` per quotient, remainder, cube and reduction level, a
//! `Box` per gate, and the whole tree a second time to decanonicalize it).
//!
//! One test function: the count is per thread, and nothing else runs on it.

// A global allocator cannot be written without `unsafe impl`; this test
// binary is the workspace's one exception to `unsafe_code = "deny"`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use elf_circuits::epfl::{multiplier, Scale};
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
