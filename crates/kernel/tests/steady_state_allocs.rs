//! Steady-state allocation budget of the run-to-completion dispatch path:
//! once its buffers are warm, the segment kernel must dispatch, apply
//! notifications, register waiters and fire timers without touching the
//! heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_kernel::{ExecMode, SegStep, SimDuration, SimTime, Simulator, WaitRequest, Wake};

/// Counts allocations per thread: a segment-mode simulator dispatches
/// every process on the thread that calls `run`, so the count of that
/// thread is the kernel's, undisturbed by the test harness.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local without a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn ns(n: u64) -> SimDuration {
    SimDuration::from_ns(n)
}

/// Two segment processes hand a token back and forth: each posts a timed
/// notification of its partner's event and waits on its own with a
/// timeout that never expires first. Every switch exercises a dispatch,
/// a timed notification, a waiter registration, a timeout timer and an
/// event wake. A third process waits on an event nobody notifies, so
/// each of its waits times out and leaves a stale registration behind.
#[test]
fn segment_ping_pong_allocates_nothing_once_warm() {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    for (name, mine, theirs) in [("ping", ping, pong), ("pong", pong, ping)] {
        let mut first = true;
        sim.spawn_segment(name, move |ctx| {
            if !std::mem::take(&mut first) {
                assert_eq!(ctx.wake(), Wake::Event(mine));
            }
            ctx.notify_after(theirs, ns(1));
            SegStep::Yield(WaitRequest::event_for(mine, ns(10)))
        });
    }
    let never = sim.event("never");
    sim.spawn_segment("bored", move |ctx| {
        assert_eq!(ctx.wake(), Wake::Timeout);
        SegStep::Yield(WaitRequest::event_for(never, ns(3)))
    });

    sim.run_until(SimTime::ZERO + ns(1_000)).unwrap();
    let warm_switches = sim.stats().process_switches;
    let before = allocs();
    sim.run_until(SimTime::ZERO + ns(61_000)).unwrap();
    let made = allocs() - before;
    let switches = sim.stats().process_switches - warm_switches;

    assert!(switches >= 100_000, "only {switches} switches measured");
    assert_eq!(made, 0, "{made} allocations over {switches} warm switches");
}
