//! Micro-benches of the MCSE communication relations: queue round-trips,
//! event signalling, and shared-variable locking — the per-transaction
//! host cost of the model's §2 relations. The queue round trip also runs
//! on run-to-completion segment tasks.

use rtsim::core::{SegControl, SegTaskRunner};
use rtsim::kernel::SegStep;
use rtsim::{
    EventPolicy, ExecMode, LockMode, MessageQueue, Processor, ProcessorConfig, RtEvent, SharedVar,
    SimDuration, Simulator, TaskConfig, TraceRecorder,
};
use rtsim_bench::harness::BenchGroup;

fn queue_round_trips(rounds: u64, traced: bool) {
    let mut sim = Simulator::new();
    let rec = if traced {
        TraceRecorder::new()
    } else {
        TraceRecorder::disabled()
    };
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let q: MessageQueue<u64> = MessageQueue::new(&rec, "q", 4);
    let tx = q.clone();
    cpu.spawn_task(&mut sim, TaskConfig::new("producer").priority(2), move |t| {
        for v in 0..rounds {
            tx.write(t, v);
            t.delay(SimDuration::from_ns(100));
        }
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("consumer").priority(1), move |t| {
        for _ in 0..rounds {
            let _ = q.read(t);
        }
    });
    sim.run().expect("run");
}

/// [`queue_round_trips`] with both tasks as segment processes, each
/// driving its [`SegTaskRunner`] through the queue's non-blocking attempt
/// entry points and suspending whenever an attempt blocks.
fn queue_round_trips_segment(rounds: u64, traced: bool) {
    let mut sim = Simulator::with_mode(ExecMode::Segment);
    let rec = if traced {
        TraceRecorder::new()
    } else {
        TraceRecorder::disabled()
    };
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let q: MessageQueue<u64> = MessageQueue::new(&rec, "q", 4);
    let tx = q.clone();

    let mut producer = cpu.register_seg_task(&mut sim, TaskConfig::new("producer").priority(2));
    let (mut sent, mut ticket) = (0, None);
    sim.spawn_segment("producer", move |ctx| {
        step_task(&mut producer, ctx, |task, ctx| {
            if sent == rounds {
                return task.finish();
            }
            match tx.write_attempt(&mut task.agent(ctx), sent, &mut ticket) {
                Ok(()) => {
                    sent += 1;
                    ticket = None;
                    task.delay(ctx.now(), SimDuration::from_ns(100));
                }
                Err(_) => task.suspend(false),
            }
        })
    });

    let mut consumer = cpu.register_seg_task(&mut sim, TaskConfig::new("consumer").priority(1));
    let (mut received, mut ticket) = (0, None);
    sim.spawn_segment("consumer", move |ctx| {
        step_task(&mut consumer, ctx, |task, ctx| {
            if received == rounds {
                return task.finish();
            }
            match q.read_attempt(&mut task.agent(ctx), &mut ticket) {
                Some(_) => {
                    received += 1;
                    ticket = None;
                }
                None => task.suspend(false),
            }
        })
    });
    sim.run().expect("run");
    assert_eq!(sim.alive_processes(), 0, "a task never finished");
}

/// One dispatch of a segment task: advances `task`, calling `on_idle` to
/// feed it the next intent whenever it is Running with nothing in flight.
fn step_task(
    task: &mut SegTaskRunner,
    ctx: &mut rtsim::kernel::SegmentCtx<'_>,
    mut on_idle: impl FnMut(&mut SegTaskRunner, &mut rtsim::kernel::SegmentCtx<'_>),
) -> SegStep {
    loop {
        match task.advance(ctx) {
            SegControl::Yield(request) => return SegStep::Yield(request),
            SegControl::Finished => return SegStep::Done,
            SegControl::Idle => on_idle(task, ctx),
        }
    }
}

fn event_storm(rounds: u64) {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::disabled();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let ev = RtEvent::new(&rec, "ev", EventPolicy::Counter);
    let tx = ev.clone();
    cpu.spawn_task(&mut sim, TaskConfig::new("signaller").priority(2), move |t| {
        for _ in 0..rounds {
            tx.signal(t);
            t.delay(SimDuration::from_ns(100));
        }
    });
    cpu.spawn_task(&mut sim, TaskConfig::new("waiter").priority(1), move |t| {
        for _ in 0..rounds {
            ev.wait(t);
        }
    });
    sim.run().expect("run");
}

fn lock_contention(rounds: u64, mode: LockMode) {
    let mut sim = Simulator::new();
    let rec = TraceRecorder::disabled();
    let cpu = Processor::new(&mut sim, &rec, ProcessorConfig::new("CPU"));
    let var = SharedVar::new(&rec, "v", 0u64, mode);
    for (name, prio) in [("a", 2), ("b", 1)] {
        let var = var.clone();
        cpu.spawn_task(&mut sim, TaskConfig::new(name).priority(prio), move |t| {
            for _ in 0..rounds {
                var.with_lock(t, |agent, value| {
                    agent.execute(SimDuration::from_ns(200));
                    *value += 1;
                });
                t.delay(SimDuration::from_ns(100));
            }
        });
    }
    sim.run().expect("run");
}

fn main() {
    let mut group = BenchGroup::new("comm");
    group.sample_size(10);
    group.bench("queue_1000_roundtrips_untraced", || {
        queue_round_trips(1_000, false)
    });
    group.bench("queue_1000_roundtrips_traced", || {
        queue_round_trips(1_000, true)
    });
    group.bench("queue_segment_1000_roundtrips_untraced", || {
        queue_round_trips_segment(1_000, false)
    });
    group.bench("queue_segment_1000_roundtrips_traced", || {
        queue_round_trips_segment(1_000, true)
    });
    group.bench("event_1000_signals", || event_storm(1_000));
    group.bench("mutex_500_plain", || lock_contention(500, LockMode::Plain));
    group.bench("mutex_500_inheritance", || {
        lock_contention(500, LockMode::PriorityInheritance)
    });
}
