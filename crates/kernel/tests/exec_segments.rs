//! Run-to-completion segment processes: substrate-level equivalence with
//! thread-backed processes, plus the stale-wake regression audit.

use std::sync::{Arc, Mutex};

use rtsim_kernel::{
    EventList, ExecMode, SegStep, SimDuration, SimTime, Simulator, WaitRequest, Wake,
};

fn us(n: u64) -> SimDuration {
    SimDuration::from_us(n)
}

/// Both execution modes, for the `spawn_segment` bodies below: inline
/// dispatch and the thread-backed adapter must be indistinguishable.
const MODES: [ExecMode; 2] = [ExecMode::Segment, ExecMode::Thread];

/// The kernel quick-start model (timer + handler) written once as
/// blocking closures and once as segment state machines, the latter run
/// under both execution modes; every observable (final time, statistics,
/// wake causes) must agree.
#[test]
fn segment_and_thread_substrates_agree() {
    type Run = (SimTime, rtsim_kernel::KernelStats, Vec<Wake>);

    fn run_closures() -> Run {
        let mut sim = Simulator::with_mode(ExecMode::Thread);
        let irq = sim.event("irq");
        let wakes = Arc::new(Mutex::new(Vec::new()));
        sim.spawn("timer", move |ctx| {
            for _ in 0..4 {
                ctx.wait_for(us(10));
                ctx.notify(irq);
            }
        });
        let seen = Arc::clone(&wakes);
        sim.spawn("handler", move |ctx| {
            let mut wake = Wake::Timeout;
            for _ in 0..4 {
                seen.lock().unwrap().push(wake);
                ctx.wait_event(irq);
                wake = Wake::Event(irq);
            }
            seen.lock().unwrap().push(wake);
        });
        sim.run().unwrap();
        let wakes = wakes.lock().unwrap().clone();
        (sim.now(), sim.stats(), wakes)
    }

    fn run_segments(mode: ExecMode) -> Run {
        let mut sim = Simulator::with_mode(mode);
        let irq = sim.event("irq");
        let wakes = Arc::new(Mutex::new(Vec::new()));
        let mut fired = 0u32;
        sim.spawn_segment("timer", move |ctx| {
            // First dispatch arrives before any wait; afterwards each
            // dispatch means one sleep elapsed.
            if fired > 0 {
                ctx.notify(irq);
            }
            if fired == 4 {
                return SegStep::Done;
            }
            fired += 1;
            SegStep::Yield(WaitRequest::time(us(10)))
        });
        let mut seen = 0u32;
        let log = Arc::clone(&wakes);
        sim.spawn_segment("handler", move |ctx| {
            log.lock().unwrap().push(ctx.wake());
            seen += 1;
            if seen > 4 {
                return SegStep::Done;
            }
            SegStep::Yield(WaitRequest::event(irq))
        });
        sim.run().unwrap();
        let wakes = wakes.lock().unwrap().clone();
        (sim.now(), sim.stats(), wakes)
    }

    let reference = run_closures();
    assert_eq!(reference.0.as_us(), 40);
    assert_eq!(reference.2.len(), 5);
    for mode in MODES {
        let (now, stats, wakes) = run_segments(mode);
        assert_eq!(now, reference.0, "{mode}");
        assert_eq!(
            stats, reference.1,
            "{mode}: kernel statistics must be bit-identical"
        );
        assert_eq!(wakes, reference.2, "{mode}: wake causes must agree");
    }
}

/// A segment that panics is isolated exactly like a panicking thread
/// body, and the panic payload description includes a type hint for
/// non-string payloads.
#[test]
fn segment_panic_is_isolated_with_typed_payload() {
    for mode in MODES {
        let mut sim = Simulator::with_mode(mode);
        sim.spawn_segment("bomb", |_ctx| -> SegStep {
            std::panic::panic_any(7u32);
        });
        let err = sim.run().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bomb"), "{mode}: {msg}");
        assert!(msg.contains("7 (u32)"), "{mode}: {msg}");
    }
}

/// Satellite audit: a timer armed for an earlier wait must not fire into
/// a *later* wait of the same process.
///
/// `victim` waits on `ev` with a 100 µs timeout, is woken by the event at
/// t = 10 µs, and immediately re-blocks on `ev2` with a 500 µs timeout.
/// The stale timer entry from the first wait still sits in the wheel for
/// t = 100 µs; if the `wait_seq` generation check ever regressed, it
/// would wake the second wait 410 µs early.
#[test]
fn stale_timer_does_not_wake_a_rearmed_wait() {
    let mut sim = Simulator::new();
    let ev = sim.event("ev");
    let ev2 = sim.event("ev2");
    sim.spawn("victim", move |ctx| {
        let first = ctx.wait_event_for(ev, us(100));
        assert_eq!(first, Wake::Event(ev), "event should win the race");
        assert_eq!(ctx.now().as_us(), 10);
        let second = ctx.wait_event_for(ev2, us(500));
        assert!(
            second.is_timeout(),
            "ev2 is never notified; only the fresh timeout may wake us"
        );
        assert_eq!(
            ctx.now().as_us(),
            510,
            "the stale t=100us timer from the first wait fired into the second"
        );
    });
    sim.spawn("waker", move |ctx| {
        ctx.wait_for(us(10));
        ctx.notify(ev);
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_us(), 510);
}

/// The same audit for a wait re-armed on the *same* event with the same
/// timeout length — the generation counter, not the (event, deadline)
/// pair, must be what distinguishes the two waits.
#[test]
fn stale_timer_same_event_rearm() {
    let mut sim = Simulator::new();
    let ev = sim.event("ev");
    sim.spawn("victim", move |ctx| {
        let first = ctx.wait_event_for(ev, us(100));
        assert_eq!(first, Wake::Event(ev));
        assert_eq!(ctx.now().as_us(), 60);
        // Re-block on the identical event and timeout. The stale timer
        // (armed for t=100) must be discarded; the fresh one ends at 160.
        let second = ctx.wait_event_for(ev, us(100));
        assert!(second.is_timeout());
        assert_eq!(ctx.now().as_us(), 160);
    });
    sim.spawn("waker", move |ctx| {
        ctx.wait_for(us(60));
        ctx.notify(ev);
    });
    sim.run().unwrap();
    assert_eq!(sim.now().as_us(), 160);
}

/// And through `spawn_segment`: the identical stale-wake schedule, driven
/// by the inline dispatcher and by the thread-backed adapter.
#[test]
fn stale_timer_discarded_in_segment_mode() {
    for mode in MODES {
        let mut sim = Simulator::with_mode(mode);
        let ev = sim.event("ev");
        let ev2 = sim.event("ev2");
        let mut step = 0u32;
        sim.spawn_segment("victim", move |ctx| {
            step += 1;
            match step {
                1 => SegStep::Yield(WaitRequest::event_for(ev, us(100))),
                2 => {
                    assert_eq!(ctx.wake(), Wake::Event(ev));
                    assert_eq!(ctx.now().as_us(), 10);
                    SegStep::Yield(WaitRequest::event_for(ev2, us(500)))
                }
                _ => {
                    assert_eq!(ctx.wake(), Wake::Timeout);
                    assert_eq!(ctx.now().as_us(), 510);
                    SegStep::Done
                }
            }
        });
        let mut armed = false;
        sim.spawn_segment("waker", move |ctx| {
            if armed {
                ctx.notify(ev);
                return SegStep::Done;
            }
            armed = true;
            SegStep::Yield(WaitRequest::time(us(10)))
        });
        sim.run().unwrap();
        assert_eq!(sim.now().as_us(), 510, "{mode}");
        assert_eq!(sim.alive_processes(), 0, "{mode}");
    }
}

/// Multi-event segment waits: the waiter lists two events (one of them
/// twice), untimed and timed. It must wake once, on whichever event fires
/// first, and see that event in `ctx.wake()`; a timed wait nobody
/// notifies ends in a timeout. Both execution modes must agree.
#[test]
fn multi_event_segment_waits() {
    type Run = (Vec<(u64, Wake)>, rtsim_kernel::KernelStats);

    /// Runs the model and checks the wakes against this simulator's own
    /// event handles.
    fn run(mode: ExecMode) -> Run {
        let mut sim = Simulator::with_mode(mode);
        let a = sim.event("a");
        let b = sim.event("b");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let mut step = 0u32;
        sim.spawn_segment("waiter", move |ctx| {
            if step > 0 {
                log.lock().unwrap().push((ctx.now().as_us(), ctx.wake()));
            }
            step += 1;
            let (events, timeout) = match step {
                1 => (vec![a, b, a], None),
                2 => (vec![b, a, a], Some(us(100))),
                3 => (vec![a, b], Some(us(50))),
                _ => return SegStep::Done,
            };
            SegStep::Yield(WaitRequest::Events {
                events: EventList::Many(events),
                timeout,
            })
        });
        let mut fired = 0u32;
        sim.spawn_segment("notifier", move |ctx| {
            fired += 1;
            match fired {
                1 => SegStep::Yield(WaitRequest::time(us(10))),
                2 => {
                    ctx.notify(b);
                    SegStep::Yield(WaitRequest::time(us(20)))
                }
                _ => {
                    // Same instant, program order: `a` fires first and
                    // `b` finds the waiter already woken.
                    ctx.notify(a);
                    ctx.notify(b);
                    SegStep::Done
                }
            }
        });
        sim.run().unwrap();
        let seen = seen.lock().unwrap().clone();
        assert_eq!(
            seen,
            [
                (10, Wake::Event(b)),
                (30, Wake::Event(a)),
                (80, Wake::Timeout)
            ],
            "{mode}"
        );
        (seen, sim.stats())
    }

    let segment = run(ExecMode::Segment);
    assert_eq!(segment, run(ExecMode::Thread));
    assert_eq!(segment.1.event_wakes, 2, "each wait woke exactly once");
}
