//! Unrolling costs what its output costs: `unroll_kernel` on the biggest
//! blocks the benchmark compiles makes at most one heap allocation per ten
//! IR instructions the unrolled kernel lowers to. Copies share every
//! subtree that does not read the loop variable, and new nodes go to the
//! kernel's arena, so the count grows with the number of loops and bodies,
//! not with the number of expression nodes copied.

use raw_benchmarks::{cholesky, mxm, Benchmark};
use raw_lang::{lower, parser, unroll, UnrollOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread, so tests running
    /// in parallel cannot perturb each other's counts.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so it never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(allocations in unroll_kernel, IR instructions after lowering)` at
/// `n_tiles`.
fn unroll_cost(bench: &Benchmark, n_tiles: u32) -> (u64, usize) {
    let kernel = parser::parse(bench.name, bench.source()).unwrap();
    let options = UnrollOptions::for_tiles(n_tiles);
    let before = ALLOCS.with(Cell::get);
    let unrolled = unroll::unroll_kernel(&kernel, n_tiles, options);
    let allocs = ALLOCS.with(Cell::get) - before;
    let program = lower::lower_kernel(&unrolled, n_tiles).unwrap();
    (allocs, program.num_insts())
}

#[test]
fn unrolling_makes_at_most_one_allocation_per_ten_ir_instructions() {
    // 32 tiles is the benchmark's 4x8 mesh: ILP factor 64, mxm's k loop
    // fully peeled, cholesky's triangular nests peeled three levels deep.
    for bench in [cholesky(3, 15), mxm(32, 64, 8)] {
        let (allocs, insts) = unroll_cost(&bench, 32);
        assert!(
            allocs * 10 <= insts as u64,
            "{}: {allocs} allocations for {insts} IR instructions",
            bench.name
        );
    }
}
