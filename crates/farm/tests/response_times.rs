//! The one-walk response-time helper the fingerprint uses must agree
//! with the per-actor `Measure::response_times` on real farm traces.

use rtsim_farm::registry::{scenario_by_name, smoke_matrix};
use rtsim_kernel::{ExecMode, SimTime};
use rtsim_trace::{ActorKind, Measure};

#[test]
fn response_times_by_actor_match_per_actor_walks_on_every_smoke_cell() {
    let mut jobs = 0;
    for cell in smoke_matrix() {
        let scenario = scenario_by_name(cell.scenario).expect("registered scenario");
        let mut model = (scenario.build)(cell.cores);
        model.override_schedulers(cell.preemptive, |_| cell.policy.make());
        model.exec_mode(ExecMode::Segment);
        let mut system = model.elaborate().expect("scenario elaborates");
        system
            .run_until(SimTime::ZERO + scenario.horizon)
            .expect("scenario runs");
        system.with_trace(|trace| {
            let m = Measure::new(trace);
            let all = m.response_times_by_actor();
            assert_eq!(all.len(), trace.actors().len(), "{}", cell.label());
            let kinds = [ActorKind::Task, ActorKind::Processor, ActorKind::Relation];
            for actor in kinds.into_iter().flat_map(|k| trace.actors_of_kind(k)) {
                let times = &all[actor.index()];
                assert_eq!(times, &m.response_times(actor), "{} {actor}", cell.label());
                jobs += times.len();
            }
        });
    }
    assert!(jobs > 0, "the smoke cells complete no job at all");
}
