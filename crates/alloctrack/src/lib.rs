//! A counting global allocator for allocation-accounting tests.
//!
//! The solver crates guarantee that a warmed-up Newton loop performs
//! zero heap allocation per iteration (see `fefet_ckt::engine`). That
//! invariant is easy to break silently — one stray `Vec` in a stamp
//! path and the guarantee is gone with no test noticing. This crate
//! hosts the one piece of `unsafe` in the workspace: a [`GlobalAlloc`]
//! wrapper around the system allocator that counts every allocation
//! event, so integration tests can assert "this call allocated exactly
//! zero times".
//!
//! Counting is kept **per thread**: [`count_allocations`] reads the
//! calling thread's counter, so the assertion is immune to unrelated
//! allocations on other threads of the test process — in particular
//! the libtest main thread, whose timeout watchdog occasionally
//! allocates an `mpmc` parking context mid-window and would otherwise
//! make zero-allocation tests flaky.
//!
//! The workspace forbids `unsafe_code`; this crate deliberately does
//! not opt into that lint set (see its `Cargo.toml`) because
//! implementing `GlobalAlloc` is impossible without `unsafe`. Nothing
//! here runs in production — the crate has no dependents, only
//! dev-dependencies onto the crates under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts allocation events
/// (`alloc`, `alloc_zeroed`, and `realloc` calls).
pub struct CountingAlloc;

thread_local! {
    // `const`-initialized and `!Drop`, so accessing it from inside the
    // allocator neither allocates nor registers a TLS destructor.
    static THREAD_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_event() {
    // `try_with` rather than `with`: allocation can happen while this
    // thread's TLS block is being torn down, where access must fail
    // softly instead of aborting.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_event();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_event();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events performed by the calling thread since it started.
pub fn thread_allocation_count() -> usize {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns `(allocation events during f, f's result)`.
///
/// Only allocations made by the **calling thread** are counted, so
/// concurrent allocator traffic elsewhere in the process (test-harness
/// bookkeeping, other threads' sweeps) cannot leak into
/// the measurement. Code under test that spawns threads and asserts on
/// their allocations must count inside those threads.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = thread_allocation_count();
    let out = f();
    (thread_allocation_count() - before, out)
}
