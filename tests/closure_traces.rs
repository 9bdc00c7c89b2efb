//! Byte-for-byte pins of closure-bodied models.
//!
//! The farm goldens pin scripted bodies only. Closure bodies
//! (`Processor::spawn_task`, `spawn_hw_function`, `SystemModel::function`)
//! take their own path through the task and hardware-function runners, so
//! each model here pins the FNV-1a hash and the length of its canonical
//! trace text, plus the final simulated time. Every model runs under both
//! kernel execution modes and must give the same pin in each.
//!
//! A moved pin is a behavioural change of the RTOS model: review it, do not
//! re-pin it blindly.

use rtsim::campaign::Fnv1a;
use rtsim::policies::PriorityPreemptive;
use rtsim::trace::canonical;
use rtsim::{
    spawn_hw_function, spawn_periodic_interrupt, Agent, EngineKind, EventPolicy, ExecMode,
    LockMode, Mapping, Message, Overheads, Priority, Processor, ProcessorConfig, SimDuration,
    Simulator, SystemModel, TaskConfig, Trace, TraceRecorder, Waiter,
};

const ENGINES: [EngineKind; 2] = [EngineKind::ProcedureCall, EngineKind::DedicatedThread];
const MODES: [ExecMode; 2] = [ExecMode::Thread, ExecMode::Segment];

fn us(v: u64) -> SimDuration {
    SimDuration::from_us(v)
}

/// `(canonical hash, canonical length, final time in ps)` of one run.
type Pin = (u64, usize, u64);

fn pin_of(trace: &Trace, end_ps: u64) -> Pin {
    let text = canonical(trace);
    let mut h = Fnv1a::new();
    h.write(text.as_bytes());
    (h.finish(), text.len(), end_ps)
}

/// Runs `build` under both execution modes and checks both against `want`.
fn check(label: &str, want: Pin, build: impl Fn(ExecMode) -> Pin) {
    for mode in MODES {
        let got = build(mode);
        assert_eq!(
            got, want,
            "{label} ({mode}): got (0x{:016x}, {}, {})",
            got.0, got.1, got.2
        );
    }
}

fn run_model(mut model: SystemModel, mode: ExecMode) -> Pin {
    model.exec_mode(mode);
    let mut system = model.elaborate().expect("model elaborates");
    system.run().expect("model runs");
    pin_of(&system.trace(), system.now().as_ps())
}

/// The paper's Figure 6 system with closure bodies (hardware `Clock`
/// included).
fn figure6_closures(engine: EngineKind) -> SystemModel {
    let mut model = SystemModel::new("figure6");
    model.event("Clk", EventPolicy::Fugitive);
    model.event("Event_1", EventPolicy::Fugitive);
    model.software_processor_with(
        "Processor",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(5)),
        true,
        engine,
    );
    model.function(TaskConfig::new("Clock"), |agent, io| {
        let clk = io.event("Clk");
        agent.delay(us(100));
        agent.annotate("clk_edge");
        clk.signal(agent);
        agent.delay(us(300));
        agent.annotate("clk_edge");
        clk.signal(agent);
    });
    model.function(TaskConfig::new("Function_1").priority(5), |agent, io| {
        let clk = io.event("Clk");
        let event_1 = io.event("Event_1");
        for _ in 0..2 {
            clk.wait(agent);
            agent.execute(us(20));
            event_1.signal(agent);
            agent.execute(us(20));
        }
    });
    model.function(TaskConfig::new("Function_2").priority(3), |agent, io| {
        let event_1 = io.event("Event_1");
        for _ in 0..2 {
            event_1.wait(agent);
            agent.execute(us(30));
        }
    });
    model.function(TaskConfig::new("Function_3").priority(2), |agent, _io| {
        agent.execute(us(500));
    });
    model.map("Clock", Mapping::Hardware);
    for f in ["Function_1", "Function_2", "Function_3"] {
        model.map_to_processor(f, "Processor");
    }
    model
}

/// The paper's Figure 7 mutual-exclusion system with closure bodies. The
/// lock mode selects the release follow-up: none, `unlock_preemption`
/// (masked) or `reschedule` (ceiling).
fn figure7_closures(engine: EngineKind, mode: LockMode) -> SystemModel {
    let mut model = SystemModel::new("figure7");
    model.event("Clk", EventPolicy::Fugitive);
    model.shared_var("SharedVar_1", Message::new(0, 4), mode);
    model.software_processor_with(
        "Processor",
        Box::new(PriorityPreemptive::new()),
        Overheads::uniform(us(2)),
        true,
        engine,
    );
    model.function(TaskConfig::new("Clock"), |agent, io| {
        agent.delay(us(50));
        io.event("Clk").signal(agent);
    });
    model.function(TaskConfig::new("Function_1").priority(5), |agent, io| {
        io.event("Clk").wait(agent);
        agent.execute(us(30));
    });
    model.function(TaskConfig::new("Function_2").priority(3), |agent, io| {
        agent.delay(us(60));
        agent.annotate("f2_wants_var");
        let _ = io.var("SharedVar_1").read_for(agent, us(10));
        agent.annotate("f2_got_var");
        agent.execute(us(10));
    });
    model.function(TaskConfig::new("Function_3").priority(2), |agent, io| {
        let _ = io.var("SharedVar_1").read_for(agent, us(100));
        agent.execute(us(50));
    });
    model.map("Clock", Mapping::Hardware);
    for f in ["Function_1", "Function_2", "Function_3"] {
        model.map_to_processor(f, "Processor");
    }
    model
}

#[test]
fn figure6_closure_traces_are_pinned() {
    let pins: [(EngineKind, Pin); 2] = [
        (
            EngineKind::ProcedureCall,
            (0x998d88669c2852e7, 2227, 780_000_000),
        ),
        (
            EngineKind::DedicatedThread,
            (0xa6be3df4568aebc1, 2227, 780_000_000),
        ),
    ];
    for (engine, want) in pins {
        check(&format!("figure6/{engine}"), want, |mode| {
            run_model(figure6_closures(engine), mode)
        });
    }
}

#[test]
fn figure7_closure_traces_are_pinned() {
    let pins: [(EngineKind, LockMode, Pin); 6] = [
        (
            EngineKind::ProcedureCall,
            LockMode::Plain,
            (0x031d7ab8cf5c8d0f, 1985, 250_000_000),
        ),
        (
            EngineKind::ProcedureCall,
            LockMode::PreemptionMasked,
            (0x956ba3d4a12a4964, 1648, 238_000_000),
        ),
        (
            EngineKind::ProcedureCall,
            LockMode::PriorityCeiling(Priority(4)),
            (0x5e7de4a46048e7e3, 1797, 244_000_000),
        ),
        (
            EngineKind::DedicatedThread,
            LockMode::Plain,
            (0xcd66364379950f51, 1985, 250_000_000),
        ),
        (
            EngineKind::DedicatedThread,
            LockMode::PreemptionMasked,
            (0x62048e6ea72e31ae, 1648, 238_000_000),
        ),
        (
            EngineKind::DedicatedThread,
            LockMode::PriorityCeiling(Priority(4)),
            (0x968bae1e2a96561d, 1797, 244_000_000),
        ),
    ];
    for (engine, lock, want) in pins {
        check(&format!("figure7/{engine}/{lock}"), want, |mode| {
            run_model(figure7_closures(engine, lock), mode)
        });
    }
}

/// A rendezvous between a hardware producer, a software producer and a
/// software consumer (the two-sided handshake only closures can express).
#[test]
fn rendezvous_closure_trace_is_pinned() {
    let build = |mode| {
        let mut model = SystemModel::new("rendezvous");
        model.rendezvous("Handoff");
        model.software_processor("CPU", Overheads::uniform(us(1)));
        model.function(TaskConfig::new("sensor"), |agent, io| {
            let rv = io.rendezvous("Handoff");
            for k in 0..3 {
                agent.delay(us(40));
                rv.write(agent, Message::new(k, 8));
            }
        });
        model.function(TaskConfig::new("producer").priority(2), |agent, io| {
            let rv = io.rendezvous("Handoff");
            for k in 0..2 {
                agent.execute(us(15));
                rv.write(agent, Message::new(100 + k, 4));
            }
        });
        model.function(TaskConfig::new("consumer").priority(4), |agent, io| {
            let rv = io.rendezvous("Handoff");
            for _ in 0..5 {
                let m = rv.read(agent);
                agent.execute(us(5 + m.size));
            }
        });
        model.map("sensor", Mapping::Hardware);
        model.map_to_processor("producer", "CPU");
        model.map_to_processor("consumer", "CPU");
        run_model(model, mode)
    };
    check("rendezvous", (0x4681ec3e428c130b, 2519, 141_000_000), build);
}

/// A `spawn_hw_function` closure exercising every hardware-function
/// primitive (execute, delay, suspend, wake of a task) against a task
/// that wakes it back.
#[test]
fn hw_function_closure_trace_is_pinned() {
    let build = |mode| {
        let mut sim = Simulator::with_mode(mode);
        let rec = TraceRecorder::new();
        let cpu = Processor::new(
            &mut sim,
            &rec,
            ProcessorConfig::new("CPU").overheads(Overheads::uniform(us(2))),
        );
        let (tx, rx) = std::sync::mpsc::channel::<Waiter>();
        let worker = cpu.spawn_task(
            &mut sim,
            TaskConfig::new("worker").priority(3),
            move |task| {
                let hw = rx.recv().expect("hw waiter");
                for _ in 0..3 {
                    task.suspend(false);
                    task.execute(us(12));
                    task.annotate("ack");
                    hw.wake(task.kernel());
                }
            },
        );
        let waiter = spawn_hw_function(&mut sim, &rec, "Dma", move |hw| {
            for _ in 0..3 {
                hw.execute(us(20));
                Waiter::Task(worker.clone()).wake(hw.kernel());
                hw.suspend(true);
                hw.annotate("done");
                hw.delay(us(7));
            }
        });
        tx.send(waiter).expect("send waiter");
        sim.run().expect("runs");
        pin_of(&rec.snapshot(), sim.now().as_ps())
    };
    check(
        "hw_function",
        (0xff8f5c072819fec5, 1419, 129_000_000),
        build,
    );
}

/// The clock-driven baseline: preemption honoured only at 7 µs chunk
/// boundaries, against a periodic interrupt.
#[test]
fn quantized_preemption_closure_trace_is_pinned() {
    for engine in ENGINES {
        let build = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let rec = TraceRecorder::new();
            let cpu = Processor::new(
                &mut sim,
                &rec,
                ProcessorConfig::new("CPU")
                    .overheads(Overheads::uniform(us(1)))
                    .engine(engine)
                    .quantized_preemption(us(7)),
            );
            let isr = cpu.spawn_task(&mut sim, TaskConfig::new("isr").priority(9), |task| {
                for _ in 0..4 {
                    task.suspend(false);
                    task.execute(us(3));
                }
            });
            cpu.spawn_task(&mut sim, TaskConfig::new("bg").priority(1), |task| {
                task.execute(us(100));
                task.delay(us(10));
                task.execute(us(9));
            });
            spawn_periodic_interrupt(&mut sim, "irq", us(11), us(23), 4, Waiter::Task(isr));
            sim.run().expect("runs");
            pin_of(&rec.snapshot(), sim.now().as_ps())
        };
        let want = match engine {
            EngineKind::ProcedureCall => (0x812b9ad10e150757, 2010, 164_000_000),
            EngineKind::DedicatedThread => (0x7a02f6b751ae6d2f, 2010, 164_000_000),
        };
        check(&format!("quantized/{engine}"), want, build);
    }
}

/// Critical regions and forced scheduling decisions from a closure task:
/// `lock_preemption` / `unlock_preemption` with an arrival inside the
/// region, a priority drop followed by `reschedule`, and a
/// `preemption_point`.
#[test]
fn preemption_control_closure_trace_is_pinned() {
    for engine in ENGINES {
        let build = |mode| {
            let mut sim = Simulator::with_mode(mode);
            let rec = TraceRecorder::new();
            let cpu = Processor::new(
                &mut sim,
                &rec,
                ProcessorConfig::new("CPU")
                    .overheads(Overheads::uniform(us(1)))
                    .engine(engine),
            );
            let urgent = cpu.spawn_task(&mut sim, TaskConfig::new("urgent").priority(8), |task| {
                for _ in 0..2 {
                    task.suspend(false);
                    task.execute(us(4));
                }
            });
            cpu.spawn_task(&mut sim, TaskConfig::new("mid").priority(5), |task| {
                task.delay(us(30));
                task.execute(us(6));
            });
            cpu.spawn_task(&mut sim, TaskConfig::new("owner").priority(6), |task| {
                task.lock_preemption();
                task.execute(us(20));
                task.annotate("unlocking");
                task.unlock_preemption();
                task.execute(us(15));
                let me = task.handle();
                me.set_priority(Priority(2));
                task.reschedule();
                task.annotate("after_reschedule");
                task.preemption_point();
                task.execute(us(5));
            });
            spawn_periodic_interrupt(&mut sim, "irq", us(10), us(30), 2, Waiter::Task(urgent));
            sim.run().expect("runs");
            pin_of(&rec.snapshot(), sim.now().as_ps())
        };
        let want = match engine {
            EngineKind::ProcedureCall => (0xa6597792003f7281, 1764, 103_000_000),
            EngineKind::DedicatedThread => (0x911c42580153e1d5, 1764, 103_000_000),
        };
        check(&format!("preemption_control/{engine}"), want, build);
    }
}
