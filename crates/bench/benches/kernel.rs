//! Micro-benches of the discrete-event kernel substrate: timed-wait
//! throughput (timer wheel) and event ping-pong (coroutine handoff cost —
//! the raw quantity behind the §4 A-vs-B gap). Each runs twice: on
//! thread-backed processes and on run-to-completion segment processes
//! dispatched inline by the scheduler.

use rtsim::kernel::{SegStep, WaitRequest};
use rtsim::{ExecMode, SimDuration, Simulator};
use rtsim_bench::harness::BenchGroup;

/// The `k`-th sleep of process `i`: short, varied, and colliding across
/// processes so the wheel sees same-instant ties.
fn sleep_of(i: usize, k: u64) -> SimDuration {
    SimDuration::from_ps(1 + (k * 7 + i as u64) % 100)
}

fn timer_wheel(n_processes: usize, waits: u64) {
    let mut sim = Simulator::new();
    for i in 0..n_processes {
        sim.spawn(&format!("p{i}"), move |ctx| {
            for k in 0..waits {
                ctx.wait_for(sleep_of(i, k));
            }
        });
    }
    sim.run().expect("run");
    std::hint::black_box(sim.stats());
}

/// [`timer_wheel`] with segment processes: the same sleeps, no threads.
fn timer_wheel_segment(n_processes: usize, waits: u64) {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    for i in 0..n_processes {
        let mut k = 0;
        sim.spawn_segment(&format!("p{i}"), move |_| {
            if k == waits {
                return SegStep::Done;
            }
            k += 1;
            SegStep::Yield(WaitRequest::time(sleep_of(i, k - 1)))
        });
    }
    sim.run().expect("run");
    std::hint::black_box(sim.stats());
}

/// `b` is spawned first so it already waits on `ping` when `a` sends it
/// (an immediate notification without a waiter is lost).
fn ping_pong(rounds: u64) {
    let mut sim = Simulator::new();
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    sim.spawn("b", move |ctx| {
        for _ in 0..rounds {
            ctx.wait_event(ping);
            ctx.notify(pong);
        }
    });
    sim.spawn("a", move |ctx| {
        for _ in 0..rounds {
            ctx.notify(ping);
            ctx.wait_event(pong);
        }
    });
    sim.run().expect("run");
    assert_eq!(sim.stats().event_wakes, 2 * rounds, "the ball was dropped");
    std::hint::black_box(sim.stats());
}

/// [`ping_pong`] with segment processes.
fn ping_pong_segment(rounds: u64) {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let ping = sim.event("ping");
    let pong = sim.event("pong");
    let mut returned = 0;
    sim.spawn_segment("b", move |ctx| {
        if returned > 0 {
            ctx.notify(pong);
        }
        if returned == rounds {
            return SegStep::Done;
        }
        returned += 1;
        SegStep::Yield(WaitRequest::event(ping))
    });
    let mut served = 0;
    sim.spawn_segment("a", move |ctx| {
        if served == rounds {
            return SegStep::Done;
        }
        served += 1;
        ctx.notify(ping);
        SegStep::Yield(WaitRequest::event(pong))
    });
    sim.run().expect("run");
    assert_eq!(sim.stats().event_wakes, 2 * rounds, "the ball was dropped");
    std::hint::black_box(sim.stats());
}

fn main() {
    let mut group = BenchGroup::new("kernel");
    group.sample_size(10);
    for &n in &[2usize, 8, 32] {
        group.bench(&format!("timer_wheel/{n}"), || timer_wheel(n, 200));
        group.bench(&format!("timer_wheel_segment/{n}"), || {
            timer_wheel_segment(n, 200)
        });
    }
    group.bench("event_ping_pong_1000", || ping_pong(1_000));
    group.bench("event_ping_pong_segment_1000", || ping_pong_segment(1_000));
}
