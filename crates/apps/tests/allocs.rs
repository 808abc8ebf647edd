//! Pins the heap allocations of one trial of the apps whose kernels run on
//! the batched path (`enerj_core::batch`).
//!
//! The batched kernels hold their registers in buffers from a per-thread
//! pool, so in steady state a trial allocates only what the app itself
//! builds: its DRAM arrays, its output and, for SOR, one `Vec` per relaxed
//! row. A kernel that allocates per call again (LU makes about 4,000 such
//! calls per trial) breaks these bounds at once.
//!
//! The counting allocator is the only `unsafe` code in the workspace: the
//! library crates all `forbid(unsafe_code)`. It counts allocations per
//! thread, so the test harness's other threads cannot disturb a count.
//! This file is its own test binary because a global allocator replaces
//! the allocator of the whole binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use enerj_apps::harness::FAULT_SEED_BASE;
use enerj_apps::App;
use enerj_core::Runtime;
use enerj_hw::config::Level;

struct Counting;

thread_local! {
    /// Allocations made by this thread (`realloc` included).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only a const-initialized
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one trial of `app`: the app's body under a runtime
/// built beforehand, as `harness::measure_with` runs it.
fn trial(app: &App, level: Level, seed: u64) -> u64 {
    let rt = Runtime::new(level, seed);
    let before = ALLOCATIONS.with(Cell::get);
    let output = rt.run(app.run);
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(output);
    made
}

#[test]
fn batched_apps_allocate_a_bounded_amount_per_trial() {
    // Measured: LU 3, FFT 23 and SOR 303 (300 of them SOR's own rows).
    for (name, limit) in [("LU", 8), ("FFT", 32), ("SOR", 310)] {
        let app = enerj_apps::app(name).expect("registered app");
        for level in [Level::Mild, Level::Aggressive] {
            // The warm-up fills the thread's workload cache and buffer pool.
            trial(&app, level, FAULT_SEED_BASE);
            let made = trial(&app, level, FAULT_SEED_BASE ^ 1);
            assert!(
                made <= limit,
                "{name} at {level}: {made} allocations per trial (limit {limit})"
            );
        }
    }
}
