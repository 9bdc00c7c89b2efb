//! Figure 8: whole-run statistics of the Figure 6 system — per-task
//! activity / preempted / waiting-for-resource ratios (items (1)-(3)) and
//! communication utilization (item (4)).

use rtsim::scenarios::{figure6_system, figure7_system};
use rtsim::{EngineKind, LockMode, Statistics};
use rtsim_bench::{wall_samples, BenchReport};

fn main() {
    rtsim::ExecMode::from_env_or_exit();
    let mut report = BenchReport::new("fig8_stats");
    report.record_samples(
        "stats/figure6",
        1,
        &wall_samples(3, || {
            let mut system = figure6_system(EngineKind::ProcedureCall)
                .elaborate()
                .expect("model");
            system.run().expect("run");
            std::hint::black_box(Statistics::from_trace(&system.trace(), system.now()));
        }),
    );
    let mut system = figure6_system(EngineKind::ProcedureCall)
        .elaborate()
        .expect("model");
    system.run().expect("run");
    println!("== Figure 8: statistics of the Figure 6 run ==\n");
    let stats = Statistics::from_trace(&system.trace(), system.now());
    println!("{stats}");

    // The same panel for the Figure 7 run, where the waiting-for-resource
    // column (item (3)) is non-zero.
    report.record_samples(
        "stats/figure7",
        1,
        &wall_samples(3, || {
            let mut system = figure7_system(EngineKind::ProcedureCall, LockMode::Plain)
                .elaborate()
                .expect("model");
            system.run().expect("run");
            std::hint::black_box(Statistics::from_trace(&system.trace(), system.now()));
        }),
    );
    let mut system = figure7_system(EngineKind::ProcedureCall, LockMode::Plain)
        .elaborate()
        .expect("model");
    system.run().expect("run");
    println!("== statistics of the Figure 7 run (note the resource column) ==\n");
    let stats = Statistics::from_trace(&system.trace(), system.now());
    println!("{stats}");
    report.emit();
}
