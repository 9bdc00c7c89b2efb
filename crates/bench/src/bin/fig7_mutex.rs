//! Figure 7: mutual-exclusion blocking on `SharedVar_1`, plus the ablation
//! over the four protection modes (plain / preemption-masked / priority-
//! inheritance / priority-ceiling), tabulating how long the high-priority task is delayed.

use rtsim::scenarios::figure7_system;
use rtsim::{EngineKind, LockMode, Priority, SimDuration, TaskState, TimelineOptions};
use rtsim_bench::{wall_samples, BenchReport};

fn main() {
    rtsim::ExecMode::from_env_or_exit();
    println!("== Figure 7: SharedVar_1 blocking under four protection modes ==\n");
    println!(
        "{:<22} {:>14} {:>16} {:>14}",
        "mode", "F2 blocked", "F2 got var at", "sim end"
    );
    let mut report = BenchReport::new("fig7_mutex");
    let mut charts = Vec::new();
    for mode in [
        LockMode::Plain,
        LockMode::PreemptionMasked,
        LockMode::PriorityInheritance,
        LockMode::PriorityCeiling(Priority(4)),
    ] {
        report.record_samples(
            &format!("figure7/{mode}"),
            1,
            &wall_samples(3, || {
                let mut system = figure7_system(EngineKind::ProcedureCall, mode)
                    .elaborate()
                    .expect("model");
                system.run().expect("run");
                std::hint::black_box(system.now());
            }),
        );
        let mut system = figure7_system(EngineKind::ProcedureCall, mode)
            .elaborate()
            .expect("model");
        system.run().expect("run");
        let trace = system.trace();
        let wants = trace.annotation_times("f2_wants_var")[0];
        let got = trace.annotation_times("f2_got_var")[0];
        println!(
            "{:<22} {:>14} {:>16} {:>14}",
            mode.to_string(),
            (got - wants).to_string(),
            got.to_string(),
            system.now().to_string()
        );
        charts.push((
            mode,
            system.timeline(&TimelineOptions {
                width: 100,
                ..TimelineOptions::default()
            }),
        ));
        // Verify the signature states of the paper's figure for the plain
        // mode: Function_2 visibly waiting on the resource.
        if mode == LockMode::Plain {
            let f2 = trace.actor_by_name("Function_2").expect("F2");
            let resource_waits: Vec<_> = trace
                .records_for(f2)
                .filter(|r| {
                    matches!(
                        r.data,
                        rtsim::trace::TraceData::State(TaskState::WaitingResource)
                    )
                })
                .map(|r| r.at)
                .collect();
            assert!(!resource_waits.is_empty(), "F2 must block on the resource");
        }
    }

    println!("\n(the paper's fix — disabling preemption during the access — bounds");
    println!("Function_2's delay to the critical section's residue, at the price of");
    println!("delaying even the highest-priority Function_1. Priority inheritance");
    println!("does NOT help in this exact scenario: the interference comes from");
    println!("Function_1, which outranks the waiter Function_2, so no boost applies —");
    println!("the protocol only suppresses interference of intermediate priority,");
    println!("as the comm-crate inversion tests demonstrate with a mid-priority task.)\n");

    for (mode, chart) in charts {
        println!("-- TimeLine, {mode} --\n{chart}");
    }
    report.emit();
    let _ = SimDuration::ZERO;
}
