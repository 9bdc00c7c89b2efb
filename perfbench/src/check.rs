//! The checker workload (`check_explore`): exhaustive `check::explore`
//! of every healthy checker scenario, single-threaded.
//!
//! An operation is one explorer replay. The explorer rebuilds its model
//! on every replay through the scenario's `build` function, so the
//! benchmark hands it a copy of the scenario whose `build` stamps the
//! time before calling the real one: the gap between two stamps is one
//! replay's wall time, the explorer's own bookkeeping included.
//!
//! The traced run times the replay stages (build, elaborate, run,
//! canonical text) on default-schedule replays outside `explore`, and
//! attributes the rest of the explorer's time per replay to its own
//! search: DFS, choice policy, state hashing and oracles.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rtsim_campaign::Fnv1a;
use rtsim_check::{scenario_by_name, Budget, CheckScenario, Expectation, Exploration};
use rtsim_kernel::{ExecMode, SimTime};
use rtsim_mcse::SystemModel;
use rtsim_trace::canonical;

use crate::farm::{self, shuffle};
use crate::ledger::{for_seconds, quiet_rate, set_up, Fastest, HostSpeed, Ledger, Pass};
use crate::span::{self, FastestSelf, Recorder, Span};
use crate::{alloc, Opts};

/// Every healthy checker scenario with its pinned replay count; each
/// exploration must be complete and find no violation.
const PINNED_RUNS: [(&str, u64); 7] = [
    ("rivals", 31_104),
    ("burst_queue", 28_224),
    ("irq_races", 7_248),
    ("var_ceiling", 88),
    ("pipeline", 192),
    ("smp_migration", 17_632),
    ("fault_dropout", 348),
];

/// The small scenarios: explored in set-up to warm up, and the whole
/// workload under `--smoke`.
const SMALL: [&str; 3] = ["var_ceiling", "pipeline", "fault_dropout"];

/// Default-schedule replays per scenario in the traced stage probe.
const PROBE_REPLAYS: usize = 300;

/// The replay stages, in the order a replay runs them.
const REPLAY_STAGES: [&str; 4] = [
    "check.replay_build",
    "check.replay_elaborate",
    "check.replay_run",
    "check.replay_canonical",
];

thread_local! {
    /// The real build function of the scenario being explored.
    static BUILD: Cell<Option<fn() -> SystemModel>> = const { Cell::new(None) };
    /// When each replay of the current exploration started.
    static STAMPS: RefCell<Vec<Instant>> = const { RefCell::new(Vec::new()) };
}

/// The `build` the explorer is given: stamps the time, then builds.
fn stamped_build() -> SystemModel {
    STAMPS.with(|s| s.borrow_mut().push(Instant::now()));
    let build = BUILD
        .with(Cell::get)
        .expect("the build function is set before exploring");
    build()
}

/// One scenario to explore, with its pinned replay count.
#[derive(Clone, Copy)]
struct Target {
    scenario: &'static CheckScenario,
    runs: u64,
}

/// Resolves `names` to registered healthy scenarios.
fn targets(names: &[&str]) -> Result<Vec<Target>, String> {
    names
        .iter()
        .map(|name| {
            let runs = PINNED_RUNS
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, runs)| runs)
                .ok_or_else(|| format!("no pinned replay count for `{name}`"))?;
            match scenario_by_name(name) {
                Some(scenario) if scenario.expect == Expectation::Hold => {
                    Ok(Target { scenario, runs })
                }
                Some(_) => Err(format!("checker scenario `{name}` is not a healthy one")),
                None => Err(format!("no checker scenario `{name}`")),
            }
        })
        .collect()
}

/// The exact counts of one exploration.
type Counts = [u64; 4];

fn counts(e: &Exploration) -> Counts {
    [
        e.runs,
        e.states as u64,
        e.choice_points,
        e.distinct_traces as u64,
    ]
}

/// Explores `target` exhaustively, checks it against its pinned count
/// and appends each replay's wall time (µs) to `replays_us`.
fn explore_one(
    target: Target,
    replays_us: &mut Vec<f64>,
    ledger: &mut Ledger,
) -> (Exploration, Duration) {
    let s = target.scenario;
    BUILD.with(|b| b.set(Some(s.build)));
    STAMPS.with(|st| st.borrow_mut().clear());
    let stamped = CheckScenario {
        name: s.name,
        build: stamped_build,
        horizon: s.horizon,
        oracles: s.oracles,
        expect: s.expect,
    };
    let started = Instant::now();
    let e = rtsim_check::explore(&stamped, &Budget::default());
    let ended = Instant::now();
    STAMPS.with(|st| {
        let st = st.borrow();
        for (i, &from) in st.iter().enumerate() {
            let to = st.get(i + 1).copied().unwrap_or(ended);
            replays_us.push((to - from).as_secs_f64() * 1e6);
        }
    });
    let ok = e.runs == target.runs && e.complete && e.counterexample.is_none();
    ledger.ops(e.runs.max(1), ok, || {
        format!(
            "{}: {} runs (pinned {}), complete {}, violation {}",
            s.name,
            e.runs,
            target.runs,
            e.complete,
            e.counterexample
                .as_ref()
                .map_or("none".to_owned(), |c| c.render()),
        )
    });
    (e, ended - started)
}

/// One pass: every target, in the given order.
struct ExplorePass {
    pass: Pass,
    /// Wall time of each replay (µs), in replay order.
    replays_us: Vec<f64>,
    /// Exact counts and explore wall time per scenario name.
    per_scenario: BTreeMap<&'static str, (Counts, Duration)>,
    /// Hashes of the distinct traces found, per scenario name; kept for
    /// the first pass only.
    traces: BTreeMap<&'static str, BTreeSet<u64>>,
}

fn explore_pass(
    order: &[Target],
    keep_traces: bool,
    host: &mut HostSpeed,
    ledger: &mut Ledger,
) -> ExplorePass {
    let mut replays_us = Vec::with_capacity(PINNED_RUNS.iter().map(|&(_, r)| r as usize).sum());
    let mut per_scenario = BTreeMap::new();
    let mut traces = BTreeMap::new();
    let mut ops = 0;
    let mut wall = Duration::ZERO;
    for &target in order {
        host.sample();
        let (e, explored) = explore_one(target, &mut replays_us, ledger);
        ops += e.runs;
        wall += explored;
        per_scenario.insert(target.scenario.name, (counts(&e), explored));
        if keep_traces {
            traces.insert(target.scenario.name, e.trace_hashes);
        }
    }
    ExplorePass {
        pass: Pass { ops, wall },
        replays_us,
        per_scenario,
        traces,
    }
}

/// `check_explore`.
pub fn explore(opts: &Opts, ledger: &mut Ledger) -> Result<(), String> {
    let names: Vec<&str> = if opts.smoke {
        SMALL.to_vec()
    } else {
        PINNED_RUNS.iter().map(|&(n, _)| n).collect()
    };
    let (order, setup_s) = set_up(opts, || {
        let mut order = targets(&names)?;
        shuffle(&mut order, opts.seed);
        for target in targets(&SMALL)? {
            explore_one(target, &mut Vec::new(), ledger);
        }
        Ok(order)
    })?;
    ledger.note(format!(
        "scenarios {}",
        order
            .iter()
            .map(|t| t.scenario.name)
            .collect::<Vec<_>>()
            .join(",")
    ));

    let mut passes = Vec::new();
    let mut fastest = Fastest::default();
    let untraced_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut host = HostSpeed::default();
    for_seconds(untraced_seconds, 1, || {
        let mut pass = explore_pass(&order, passes.is_empty(), &mut host, ledger);
        if let Err(e) = fastest.pass(std::mem::take(&mut pass.replays_us).into_iter()) {
            ledger.error(e);
        }
        passes.push(pass);
    });
    let untraced: Vec<Pass> = passes.iter().map(|p| p.pass).collect();
    // The replays of one pass run back to back, so the composite of their
    // fastest times is the pass a quiet host would take.
    let best_rate = fastest.walls_us().len() as f64 / fastest.walls_us().iter().sum::<f64>() * 1e6;
    if !opts.trace {
        check_counts(&passes, ledger);
        return ledger.end_to_end(setup_s, best_rate, &untraced, &fastest, &host);
    }

    let mut traced = Vec::new();
    alloc::set_enabled(true);
    for_seconds(opts.seconds / 2.0, 2, || {
        traced.push(explore_pass(&order, false, &mut host, ledger));
    });
    alloc::set_enabled(false);
    let traced_rate = quiet_rate(&traced.iter().map(|p| p.pass).collect::<Vec<_>>());
    passes.extend(traced);
    let counts = check_counts(&passes, ledger);
    let (stage_fastest, spans) = probe_replays(&order, &passes[0], ledger);

    farm::absent_metrics(ledger);
    let total: Counts = counts
        .values()
        .fold([0; 4], |acc, c| std::array::from_fn(|i| acc[i] + c[i]));
    for (name, value) in [
        "check.runs",
        "check.states",
        "check.choice_points",
        "check.distinct_traces",
    ]
    .iter()
    .zip(total)
    {
        ledger.metric(name, value as f64, "count");
    }
    ledger.metric(
        "check.useful_ratio",
        total[3] as f64 / total[0] as f64,
        "ratio",
    );
    // A scenario's stage time per replay, weighted by its replays.
    let mut stages_ns = 0.0;
    for stage in REPLAY_STAGES {
        let ns: f64 = order
            .iter()
            .enumerate()
            .map(|(k, t)| {
                stage_fastest.of(stage, k as u32) as f64 * counts[t.scenario.name][0] as f64
            })
            .sum();
        stages_ns += ns;
        ledger.metric(&format!("{stage}_us"), ns / total[0] as f64 / 1e3, "us");
    }
    // Each scenario's fastest untraced exploration, summed.
    let explore_ns: f64 = order
        .iter()
        .map(|t| {
            passes[..untraced.len()]
                .iter()
                .map(|p| p.per_scenario[t.scenario.name].1.as_nanos() as f64)
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    ledger.metric(
        "check.explore_self_us",
        (explore_ns - stages_ns) / total[0] as f64 / 1e3,
        "us",
    );
    ledger.metric(
        "bench.trace_overhead_ratio",
        traced_rate / quiet_rate(&untraced),
        "ratio",
    );
    ledger.metric(
        "bench.stage_coverage_ratio",
        stages_ns / explore_ns,
        "ratio",
    );
    span::write_out(opts, &[&spans])
}

/// Checks that every pass gave every scenario the same exact counts, and
/// returns them.
fn check_counts(passes: &[ExplorePass], ledger: &mut Ledger) -> BTreeMap<&'static str, Counts> {
    let first: BTreeMap<&'static str, Counts> = passes[0]
        .per_scenario
        .iter()
        .map(|(&n, &(c, _))| (n, c))
        .collect();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for (name, (c, _)) in &pass.per_scenario {
            if first[name] != *c {
                ledger.error(format!(
                    "{name}: exact counts differ between passes 1 and {}: {:?} vs {c:?}",
                    i + 1,
                    first[name]
                ));
            }
        }
    }
    first
}

/// Times the replay stages on [`PROBE_REPLAYS`] default-schedule replays
/// of each scenario, and checks that the default schedule's trace is one
/// of the traces `explored` found. Returns each scenario's fastest stage
/// times, keyed by its position in `order`, and the spans of one replay
/// per scenario.
fn probe_replays(
    order: &[Target],
    explored: &ExplorePass,
    ledger: &mut Ledger,
) -> (FastestSelf, Vec<Span>) {
    let epoch = Instant::now();
    let mut fastest = FastestSelf::default();
    let mut first = Vec::new();
    for (op, target) in order.iter().enumerate() {
        let s = target.scenario;
        for rep in 0..PROBE_REPLAYS {
            let mut rec = Recorder::new(epoch, op as u32);
            let text = rec.span("check.replay", |rec| {
                let mut model = rec.span("check.replay_build", |_| (s.build)());
                let mut system = rec.span("check.replay_elaborate", |_| {
                    model.exec_mode(ExecMode::Segment);
                    model.elaborate().expect("check scenario elaborates")
                });
                let run = rec.span("check.replay_run", |_| {
                    system.run_until(SimTime::ZERO + s.horizon)
                });
                let text = rec.span("check.replay_canonical", |_| canonical(&system.trace()));
                run.map(|()| text)
            });
            let spans = rec.finish();
            fastest.add(op as u32, &spans);
            if rep == 0 {
                first.extend(spans);
                let mut h = Fnv1a::new();
                h.write(text.as_deref().unwrap_or_default().as_bytes());
                let hash = h.finish();
                let found = explored
                    .traces
                    .get(s.name)
                    .is_some_and(|t| t.contains(&hash));
                ledger.op(text.is_ok() && found, || {
                    format!(
                        "{}: the default-schedule trace {hash:016x} is not one the exploration found",
                        s.name
                    )
                });
            }
        }
    }
    (fastest, first)
}

/// Every checker metric, on a workload that runs no checker.
pub fn absent_metrics(ledger: &mut Ledger) {
    for name in [
        "check.runs",
        "check.states",
        "check.choice_points",
        "check.distinct_traces",
    ] {
        ledger.metric(name, 0.0, "count");
    }
    ledger.metric("check.useful_ratio", 0.0, "ratio");
    for stage in REPLAY_STAGES {
        ledger.metric(&format!("{stage}_us"), 0.0, "us");
    }
    ledger.metric("check.explore_self_us", 0.0, "us");
}
