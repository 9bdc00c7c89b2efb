//! Figure 6: the TimeLine chart of the Clock + Function_1/2/3 system.
//!
//! Prints the chart, the per-event schedule rows and the paper's
//! annotated measurements, for both RTOS engine implementations (whose
//! schedules must match).

use rtsim::scenarios::figure6_system;
use rtsim::{EngineKind, Measure, TaskState, TimelineOptions};
use rtsim_bench::{wall_samples, BenchReport};

fn main() {
    rtsim::ExecMode::from_env_or_exit();
    let mut report = BenchReport::new("fig6_timeline");
    for engine in [EngineKind::ProcedureCall, EngineKind::DedicatedThread] {
        report.record_samples(
            &format!("figure6/{engine}"),
            1,
            &wall_samples(3, || {
                let mut system = figure6_system(engine).elaborate().expect("model");
                system.run().expect("run");
                std::hint::black_box(system.now());
            }),
        );
        let mut system = figure6_system(engine).elaborate().expect("model");
        system.run().expect("run");
        println!("== Figure 6 under the {engine} engine ==\n");
        println!(
            "{}",
            system.timeline(&TimelineOptions {
                width: 110,
                ..TimelineOptions::default()
            })
        );
        let trace = system.trace();

        println!("state-change schedule:");
        println!("{:>10} {:<12} state", "time", "function");
        for r in trace.records() {
            if let rtsim::trace::TraceData::State(s) = r.data {
                let name = trace.actor_name(r.actor);
                if name.starts_with("Function") {
                    println!("{:>8}us {:<12} {}", r.at.as_us(), name, s);
                }
            }
        }

        let measure = Measure::new(&trace);
        let f1 = trace.actor_by_name("Function_1").expect("F1");
        let f3 = trace.actor_by_name("Function_3").expect("F3");
        println!("\nmeasurements:");
        println!(
            "  (1) Clk -> Function_1 reaction : {}",
            measure.reaction_time("clk_edge", f1).expect("reaction")
        );
        let preempted = measure.transitions_to(f3, TaskState::Ready);
        let resumed = measure.transitions_to(f3, TaskState::Running);
        println!("  (b) Function_3 preemption points: {preempted:?} us");
        println!("      Function_3 resume points    : {resumed:?} us");
        println!("  simulation end: {}\n", system.now());
    }
    report.emit();
}
