//! Steady-state allocation budget of the segment-mode RTOS path: once
//! warm, task runners, the procedure-call engine and the kernel dispatch
//! loop run a preemptive schedule without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rtsim_core::{Overheads, Processor, ProcessorConfig, SegControl, TaskConfig};
use rtsim_kernel::{ExecMode, SegStep, SimDuration, SimTime, Simulator};
use rtsim_trace::TraceRecorder;

/// Counts allocations per thread: a segment-mode simulator dispatches
/// every process on the thread that calls `run`, so the count of that
/// thread is the simulation's, undisturbed by the test harness.
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

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// A high-priority task (execute 3 µs, delay 7 µs) preempts a
/// low-priority one (execute 11 µs, delay 2 µs) on a processor charging
/// all three RTOS overheads, so every frame kind of the task runner —
/// acquire with its overhead stages, preemptible execute, relinquish,
/// delay — runs on every period.
#[test]
fn preemptive_segment_tasks_allocate_nothing_once_warm() {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let rec = TraceRecorder::disabled();
    let cpu = Processor::new(
        &mut sim,
        &rec,
        ProcessorConfig::new("cpu").overheads(Overheads::uniform(SimDuration::from_ns(200))),
    );
    for (name, priority, exec, sleep) in [("hi", 2, us(3), us(7)), ("lo", 1, us(11), us(2))] {
        let mut runner = cpu.register_seg_task(&mut sim, TaskConfig::new(name).priority(priority));
        let mut computing = false;
        sim.spawn_segment(name, move |ctx| loop {
            match runner.advance(ctx) {
                SegControl::Yield(request) => return SegStep::Yield(request),
                SegControl::Finished => return SegStep::Done,
                SegControl::Idle => {
                    computing = !computing;
                    if computing {
                        runner.execute(exec);
                    } else {
                        runner.delay(ctx.now(), sleep);
                    }
                }
            }
        });
    }

    sim.run_until(SimTime::ZERO + us(1_000)).unwrap();
    let warm_switches = sim.stats().process_switches;
    let warm_preemptions = cpu.stats().preemptions;
    let before = allocs();
    sim.run_until(SimTime::ZERO + us(31_000)).unwrap();
    let made = allocs() - before;
    let switches = sim.stats().process_switches - warm_switches;
    let preemptions = cpu.stats().preemptions - warm_preemptions;

    assert!(switches >= 20_000, "only {switches} switches measured");
    assert!(preemptions > 0, "the schedule never preempted");
    assert_eq!(made, 0, "{made} allocations over {switches} warm switches");
}
