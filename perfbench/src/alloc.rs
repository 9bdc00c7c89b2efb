//! A counting global allocator, local to the benchmark binary.
//!
//! Every allocation made while counting is on adds to two per-thread
//! totals (calls and bytes). A span reads the totals of its own thread
//! when it opens and when it closes, so the difference is what that
//! span — and nothing on another thread — allocated. Untraced runs leave
//! counting off, and then each allocation costs one relaxed load more
//! than the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The system allocator plus per-thread allocation counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // `const` initialisers without `Drop`: reading them never allocates
    // and never touches a destroyed slot, which an allocator requires.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Turns counting on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The calling thread's totals so far: `(allocations, bytes)`.
pub fn snapshot() -> (u64, u64) {
    (CALLS.with(Cell::get), BYTES.with(Cell::get))
}

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System` upholds the `GlobalAlloc` contract; the counter
// updates touch only `const` thread-locals and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
