//! The matrix workloads (`farm_segment`, `farm_thread`) and the warm
//! grid sweep (`grid_warm`).
//!
//! An operation is one matrix cell. Cells are submitted through
//! [`rtsim_grid::Grid`] on [`WORKERS`] workers in an order the seed
//! permutes; results are keyed by cell, and every one is compared with
//! its line in `tests/goldens/farm.jsonl`.
//!
//! The traced run repeats the cell pipeline of `run_cell` stage by stage
//! (build, elaborate, run, fingerprint), each stage wrapped in a span,
//! and times the fingerprint's parts on the finished system in a
//! separate probe that recomputes the golden hash from them.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rtsim_campaign::{run_isolated, Fnv1a};
use rtsim_farm::golden::render_line;
use rtsim_farm::registry::{full_matrix, scenario_by_name, smoke_matrix};
use rtsim_farm::{fingerprint, goldens_path, parse_line, Cell, CellResult, Fingerprint, FARM_SEED};
use rtsim_grid::{job_key, CacheStore, Grid, GridReport, Record};
use rtsim_kernel::testutil::Rng;
use rtsim_kernel::{ExecMode, SimTime};
use rtsim_mcse::ElaboratedSystem;
use rtsim_trace::{canonical, ActorKind, Measure, Trace};

use crate::ledger::{for_seconds, quiet_rate, set_up, Fastest, HostSpeed, Ledger, Pass};
use crate::span::{self, FastestSelf, Recorder, Span};
use crate::stats::{busy_ratio, median};
use crate::{alloc, Opts, WORKERS};

/// Traced passes the exact counters are compared across.
const MIN_TRACED_PASSES: usize = 2;

/// Repetitions of the grid load/decode/store probe.
const GRID_PROBE_REPS: usize = 20;

/// The cell pipeline's stages, in `run_cell` order, ending with dropping
/// the finished system.
const STAGES: [&str; 5] = [
    "farm.build",
    "mcse.elaborate",
    "kernel.run",
    "farm.fingerprint",
    "farm.teardown",
];

/// The fingerprint's parts, timed by the probe.
const FINGERPRINT_PARTS: [&str; 3] = ["trace.snapshot", "trace.canonical", "trace.measure"];

/// Exact per-cell counters of the cell pipeline, summed over a pass.
const COUNTERS: [(&str, &str); 9] = [
    ("trace.records", "count"),
    ("trace.canonical_bytes", "bytes"),
    ("kernel.process_switches", "count"),
    ("kernel.delta_cycles", "count"),
    ("kernel.time_advances", "count"),
    ("kernel.event_wakes", "count"),
    ("core.dispatches", "count"),
    ("core.preemptions", "count"),
    ("core.scheduler_runs", "count"),
];

/// The pinned fingerprint of every golden cell, by cell label.
struct Goldens(HashMap<String, Fingerprint>);

impl Goldens {
    /// Reads the golden file and checks that it covers `cells`.
    fn load(cells: &[Cell]) -> Result<Self, String> {
        let path = goldens_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read goldens {}: {e}", path.display()))?;
        let mut by_label = HashMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let result =
                parse_line(line).ok_or_else(|| format!("malformed golden line: {line}"))?;
            by_label.insert(result.cell.label(), result.fingerprint);
        }
        match cells.iter().find(|c| !by_label.contains_key(&c.label())) {
            Some(cell) => Err(format!("no golden line for {}", cell.label())),
            None => Ok(Goldens(by_label)),
        }
    }

    fn of(&self, cell: &Cell) -> Fingerprint {
        self.0[&cell.label()]
    }

    /// Counts each of `report`'s records as one operation, failing those
    /// that panicked or differ from their golden.
    fn check(&self, cells: &[Cell], records: &[CellOutcome], ledger: &mut Ledger) {
        for (cell, outcome) in cells.iter().zip(records) {
            let ok = outcome
                .0
                .is_some_and(|r| r.cell == *cell && r.fingerprint == self.of(cell));
            ledger.op(ok, || match outcome.0 {
                None => format!("{} panicked", cell.label()),
                Some(r) => format!(
                    "{} differs from its golden: {}",
                    cell.label(),
                    render_line(&r)
                ),
            });
        }
    }
}

/// A cell's result, or `None` when the cell panicked, so that one
/// failing cell is one failed operation rather than a failed sweep.
#[derive(Debug, Clone, Copy)]
struct CellOutcome(Option<CellResult>);

impl Record for CellOutcome {
    fn encode(&self) -> String {
        self.0
            .as_ref()
            .map_or_else(|| "panicked".to_owned(), render_line)
    }

    fn decode(line: &str) -> Option<Self> {
        parse_line(line).map(|r| CellOutcome(Some(r)))
    }
}

/// The matrix (full, or the smoke subset) in the seed's submission order.
fn cells(opts: &Opts) -> Vec<Cell> {
    let mut cells = if opts.smoke {
        smoke_matrix()
    } else {
        full_matrix()
    };
    shuffle(&mut cells, opts.seed);
    cells
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// A grid over `cells` on [`WORKERS`] workers with no cache.
fn grid() -> Grid {
    Grid::new("perfbench", FARM_SEED)
        .workers(WORKERS)
        .shards(1)
        .no_cache()
}

/// One untraced sweep: `run_cell` on every cell, as `rtsim-farm` does.
fn sweep(grid: &Grid, cells: &[Cell], mode: ExecMode) -> GridReport<CellOutcome> {
    grid.run(
        cells.len(),
        |i| cells[i].label(),
        |ctx| {
            let cell = cells[ctx.index()];
            CellOutcome(run_isolated(|| rtsim_farm::run_cell_with_mode(cell, mode)).ok())
        },
    )
}

/// The pool accounting of one untraced sweep.
#[derive(Debug, Clone, Copy)]
struct PoolStats {
    /// Σ job wall / (workers × pool wall).
    busy: f64,
    /// Jobs run.
    jobs: usize,
    /// Jobs served from the cache.
    hits: usize,
}

/// Adds a sweep's timing to the end-to-end figures and returns its pool
/// accounting.
fn time_sweep<T>(
    report: &GridReport<T>,
    passes: &mut Vec<Pass>,
    fastest: &mut Fastest,
    ledger: &mut Ledger,
) -> PoolStats {
    passes.push(Pass {
        ops: report.jobs as u64,
        wall: report.wall,
    });
    if let Err(e) = fastest.pass(report.job_walls.iter().map(|w| w.as_secs_f64() * 1e6)) {
        ledger.error(e);
    }
    PoolStats {
        busy: busy_ratio(&report.job_walls, report.workers, report.wall),
        jobs: report.jobs,
        hits: report.hits(),
    }
}

/// Median `busy_ratio` over `pools`.
fn pool_busy_ratio(pools: &[PoolStats]) -> f64 {
    median(&pools.iter().map(|p| p.busy).collect::<Vec<_>>())
}

/// `farm_segment` and `farm_thread`: the matrix in one execution mode.
pub fn matrix(opts: &Opts, mode: ExecMode, ledger: &mut Ledger) -> Result<(), String> {
    let cells = cells(opts);
    let grid = grid();
    let (goldens, setup_s) = set_up(opts, || {
        let goldens = Goldens::load(&cells)?;
        let warm = sweep(&grid, &cells, mode);
        goldens.check(&cells, &warm.records, ledger);
        Ok(goldens)
    })?;
    ledger.note(format!("cells {} in {mode:?} mode", cells.len()));

    let mut passes = Vec::new();
    let mut fastest = Fastest::default();
    let mut pools = Vec::new();
    // A traced run splits its time in three: untraced passes (the
    // reference for the tracing overhead), traced passes, and the
    // fingerprint probe.
    let share = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let mut host = HostSpeed::default();
    for_seconds(share, 1, || {
        host.sample();
        let report = sweep(&grid, &cells, mode);
        goldens.check(&cells, &report.records, ledger);
        pools.push(time_sweep(&report, &mut passes, &mut fastest, ledger));
    });
    if !opts.trace {
        return ledger.end_to_end(setup_s, quiet_rate(&passes), &passes, &fastest, &host);
    }

    let traced = traced_matrix(share, &grid, &cells, mode, &goldens, ledger);
    let probe = probe_fingerprints(share, &grid, &cells, mode, &goldens, ledger);
    // Stage times are each cell's fastest over the traced passes, like
    // the end-to-end cell times they are compared with.
    let cell_us: f64 = fastest.walls_us().iter().sum();
    let stage_us: Vec<f64> = STAGES.iter().map(|s| traced.fastest.per_op_us(s)).collect();
    let part_us: Vec<f64> = FINGERPRINT_PARTS
        .iter()
        .map(|s| probe.fastest.per_op_us(s))
        .collect();
    for (name, us) in STAGES.iter().zip(&stage_us) {
        ledger.metric(&format!("{name}_us"), *us, "us");
    }
    let run_ns = traced.fastest.total_ns("kernel.run");
    ledger.metric(
        "kernel.run_ns_per_record",
        run_ns as f64 / traced.counters["trace.records"].max(1) as f64,
        "ns",
    );
    for (name, us) in FINGERPRINT_PARTS.iter().zip(&part_us) {
        ledger.metric(&format!("{name}_us"), *us, "us");
    }
    ledger.metric(
        "farm.fingerprint_self_us",
        stage_us[3] - part_us.iter().sum::<f64>(),
        "us",
    );
    let mut counters = traced.counters.clone();
    counters.insert("trace.canonical_bytes", probe.canonical_bytes);
    for (name, unit) in COUNTERS {
        ledger.metric(name, counters[name] as f64, unit);
    }
    for stage in STAGES {
        // Exact in segment mode; the mean over passes in thread mode.
        let [allocs, bytes] = traced.allocs.iter().fold([0, 0], |[a, b], pass| {
            let [pa, pb] = pass.get(stage).copied().unwrap_or_default();
            [a + pa, b + pb]
        });
        let passes = traced.allocs.len() as f64;
        ledger.metric(&format!("{stage}.allocs"), allocs as f64 / passes, "count");
        ledger.metric(
            &format!("{stage}.alloc_bytes"),
            bytes as f64 / passes,
            "bytes",
        );
    }
    ledger.metric("campaign.busy_ratio", pool_busy_ratio(&pools), "ratio");
    absent_grid_metrics(ledger);
    crate::check::absent_metrics(ledger);
    ledger.metric(
        "bench.trace_overhead_ratio",
        traced.rate / quiet_rate(&passes),
        "ratio",
    );
    let stages_ns: u64 = STAGES.iter().map(|s| traced.fastest.total_ns(s)).sum();
    ledger.metric(
        "bench.stage_coverage_ratio",
        stages_ns as f64 / 1e3 / cell_us,
        "ratio",
    );
    ledger.note(format!(
        "untraced cell wall {:.2} us (mean of fastest); traced passes {}",
        cell_us / fastest.walls_us().len() as f64,
        traced.allocs.len()
    ));
    span::write_out(opts, &[&traced.spans, &probe.spans])
}

/// What the traced passes of the matrix measured.
struct TracedMatrix {
    /// Self allocations by span name, per traced pass.
    allocs: Vec<BTreeMap<&'static str, [u64; 2]>>,
    /// Each cell's fastest stage times over the traced passes.
    fastest: FastestSelf,
    /// Exact counters of one pass (identical in every pass).
    counters: BTreeMap<&'static str, u64>,
    /// Cells per second of the quiet traced passes.
    rate: f64,
    /// The spans of the first traced pass.
    spans: Vec<Span>,
}

/// Spans and exact counters of one staged cell.
struct StagedCell {
    spans: Vec<Span>,
    counters: [u64; COUNTERS.len()],
}

/// The spans' shared epoch.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Builds, elaborates and runs `cell` the way `run_cell` does, each
/// stage inside a span of `rec`.
fn staged_run(rec: &mut Recorder, cell: Cell, mode: ExecMode) -> ElaboratedSystem {
    let scenario = scenario_by_name(cell.scenario).expect("matrix cells name registered scenarios");
    let model = rec.span("farm.build", |_| {
        let mut model = (scenario.build)(cell.cores);
        model.override_schedulers(cell.preemptive, |_| cell.policy.make());
        model.exec_mode(mode);
        model
    });
    let mut system = rec.span("mcse.elaborate", |_| {
        model.elaborate().expect("scenario elaborates")
    });
    rec.span("kernel.run", |_| {
        system
            .run_until(SimTime::ZERO + scenario.horizon)
            .expect("scenario runs");
    });
    system
}

/// The staged pipeline of one cell: spans around each stage, then its
/// exact counters.
fn staged_cell(op: u32, cell: Cell, mode: ExecMode) -> (CellResult, StagedCell) {
    let mut rec = Recorder::new(epoch(), op);
    let (result, counters) = rec.span("farm.cell", |rec| {
        let system = staged_run(rec, cell, mode);
        let fingerprint = rec.span("farm.fingerprint", |_| fingerprint(&system));
        let kernel = system.kernel_stats();
        let (mut dispatches, mut preemptions, mut scheduler_runs) = (0, 0, 0);
        for name in system.processor_names() {
            let stats = system.processor_stats(name).expect("declared processor");
            dispatches += stats.dispatches;
            preemptions += stats.preemptions;
            scheduler_runs += stats.scheduler_runs;
        }
        let counters = [
            fingerprint.events,
            0, // canonical bytes come from the fingerprint probe
            kernel.process_switches,
            kernel.delta_cycles,
            kernel.time_advances,
            kernel.event_wakes,
            dispatches,
            preemptions,
            scheduler_runs,
        ];
        rec.span("farm.teardown", |_| drop(system));
        (CellResult { cell, fingerprint }, counters)
    });
    (
        result,
        StagedCell {
            spans: rec.finish(),
            counters,
        },
    )
}

/// Runs traced passes of the staged pipeline for `seconds` (at least
/// [`MIN_TRACED_PASSES`]) and checks that every pass gives the same
/// exact counters.
fn traced_matrix(
    seconds: f64,
    grid: &Grid,
    cells: &[Cell],
    mode: ExecMode,
    goldens: &Goldens,
    ledger: &mut Ledger,
) -> TracedMatrix {
    let next_op = AtomicU32::new(0);
    let mut fastest = FastestSelf::default();
    let mut per_pass: Vec<BTreeMap<&'static str, u64>> = Vec::new();
    let mut passes = Vec::new();
    let mut first_spans = None;
    // Allocation counts are exact only where every allocation of a stage
    // happens on the thread that runs it: not in thread mode.
    let exact_allocs = mode == ExecMode::Segment;
    let mut allocs: Vec<BTreeMap<&'static str, [u64; 2]>> = Vec::new();
    alloc::set_enabled(true);
    for_seconds(seconds, MIN_TRACED_PASSES, || {
        let staged: Mutex<Vec<(usize, StagedCell)>> = Mutex::new(Vec::with_capacity(cells.len()));
        let report = grid.run(
            cells.len(),
            |i| cells[i].label(),
            |ctx| {
                let i = ctx.index();
                let op = next_op.fetch_add(1, Ordering::Relaxed);
                let outcome = run_isolated(|| staged_cell(op, cells[i], mode));
                CellOutcome(outcome.ok().map(|(result, cell)| {
                    staged
                        .lock()
                        .expect("no job panics while holding the lock")
                        .push((i, cell));
                    result
                }))
            },
        );
        goldens.check(cells, &report.records, ledger);
        passes.push(Pass {
            ops: report.jobs as u64,
            wall: report.wall,
        });
        let mut staged = staged.into_inner().expect("the grid joined every job");
        staged.sort_by_key(|(i, _)| *i);
        let mut counters = BTreeMap::new();
        let mut pass_allocs = BTreeMap::new();
        for (i, cell) in &staged {
            for ((name, _), value) in COUNTERS.iter().zip(cell.counters) {
                *counters.entry(*name).or_insert(0) += value;
            }
            span::add_self_allocs(&mut pass_allocs, &cell.spans);
            fastest.add(*i as u32, &cell.spans);
        }
        allocs.push(pass_allocs);
        per_pass.push(counters);
        if first_spans.is_none() {
            first_spans = Some(staged.into_iter().flat_map(|(_, c)| c.spans).collect());
        }
    });
    alloc::set_enabled(false);
    if let Some(i) = per_pass.iter().position(|c| *c != per_pass[0]) {
        ledger.error(format!(
            "exact counters differ between traced passes 1 and {}: {:?} vs {:?}",
            i + 1,
            per_pass[0],
            per_pass[i]
        ));
    }
    if exact_allocs {
        if let Some(i) = allocs.iter().position(|a| *a != allocs[0]) {
            ledger.error(format!(
                "allocation counts differ between traced passes 1 and {}: {:?} vs {:?}",
                i + 1,
                allocs[0],
                allocs[i]
            ));
        }
    }
    TracedMatrix {
        allocs,
        fastest,
        counters: per_pass.swap_remove(0),
        rate: quiet_rate(&passes),
        spans: first_spans.unwrap_or_default(),
    }
}

/// What the fingerprint probe measured.
struct Probe {
    /// Each cell's fastest part times over the probe passes.
    fastest: FastestSelf,
    canonical_bytes: u64,
    spans: Vec<Span>,
}

/// Recomputes `fingerprint()` from its parts on a finished system, each
/// part in a span: the trace snapshot, the canonical text, the response
/// times, then the summary lines and the FNV-1a hash. Returns the hash
/// and the length of the canonical text.
fn staged_fingerprint(rec: &mut Recorder, system: &ElaboratedSystem) -> (u64, u64) {
    rec.span("farm.fingerprint_probe", |rec| {
        let trace: Trace = rec.span("trace.snapshot", |_| system.trace());
        let mut text = rec.span("trace.canonical", |_| canonical(&trace));
        let canonical_bytes = text.len() as u64;
        let responses: Vec<(usize, Vec<u64>)> = rec.span("trace.measure", |_| {
            let measure = Measure::new(&trace);
            trace
                .actors_of_kind(ActorKind::Task)
                .map(|actor| {
                    let times = measure.response_times(actor);
                    (actor.index(), times.iter().map(|d| d.as_ps()).collect())
                })
                .collect()
        });
        for (actor, times) in responses {
            let (min, mean, max) = match (times.iter().min(), times.iter().max()) {
                (Some(&min), Some(&max)) => {
                    let total: u128 = times.iter().map(|&t| u128::from(t)).sum();
                    (min, (total / times.len() as u128) as u64, max)
                }
                _ => (0, 0, 0),
            };
            let _ = writeln!(
                text,
                "task {actor} jobs {} response {min} {mean} {max}",
                times.len()
            );
        }
        for name in system.processor_names() {
            let s = system.processor_stats(name).expect("declared processor");
            let _ = writeln!(
                text,
                "proc {name} {} {} {} {} {}",
                s.dispatches,
                s.preemptions,
                s.scheduler_runs,
                s.quantum_expirations,
                s.deadline_misses,
            );
        }
        let _ = writeln!(text, "makespan {}", trace.horizon().as_ps());
        let mut hasher = Fnv1a::new();
        hasher.write(text.as_bytes());
        (hasher.finish(), canonical_bytes)
    })
}

/// A probed cell: its index, spans and, unless it panicked, its
/// recomputed hash and canonical byte count.
type ProbedCell = (usize, Vec<Span>, Option<(u64, u64)>);

/// Runs every cell untimed, then times the fingerprint's parts on the
/// finished system and checks that they recompute the golden hash.
/// Repeats for `seconds`, at least twice; the canonical byte count must
/// repeat exactly.
fn probe_fingerprints(
    seconds: f64,
    grid: &Grid,
    cells: &[Cell],
    mode: ExecMode,
    goldens: &Goldens,
    ledger: &mut Ledger,
) -> Probe {
    let mut fastest = FastestSelf::default();
    let mut bytes_per_pass = Vec::new();
    let mut spans = Vec::new();
    for_seconds(seconds, 2, || {
        let probed: Mutex<Vec<ProbedCell>> = Mutex::new(Vec::new());
        grid.run(
            cells.len(),
            |i| cells[i].label(),
            |ctx| {
                let i = ctx.index();
                let mut rec = Recorder::new(epoch(), i as u32);
                let out = run_isolated(|| {
                    let system = staged_run(&mut Recorder::new(epoch(), 0), cells[i], mode);
                    staged_fingerprint(&mut rec, &system)
                });
                probed
                    .lock()
                    .expect("no job panics while holding the lock")
                    .push((i, rec.finish(), out.ok()));
                CellOutcome(None)
            },
        );
        let mut probed = probed.into_inner().expect("the grid joined every job");
        probed.sort_by_key(|(i, _, _)| *i);
        let mut bytes = 0;
        for (i, cell_spans, out) in &probed {
            let cell = cells[*i];
            let want = goldens.of(&cell).hash;
            ledger.op(out.is_some_and(|(hash, _)| hash == want), || {
                format!(
                    "{}: staged fingerprint does not reproduce hash {want:016x}",
                    cell.label()
                )
            });
            bytes += out.map_or(0, |(_, b)| b);
            fastest.add(*i as u32, cell_spans);
        }
        bytes_per_pass.push(bytes);
        if spans.is_empty() {
            spans = probed.into_iter().flat_map(|(_, s, _)| s).collect();
        }
    });
    if let Some(i) = bytes_per_pass.iter().position(|&b| b != bytes_per_pass[0]) {
        ledger.error(format!(
            "canonical bytes differ between probe passes 1 and {}: {bytes_per_pass:?}",
            i + 1
        ));
    }
    Probe {
        fastest,
        canonical_bytes: bytes_per_pass[0],
        spans,
    }
}

/// A scratch directory for a cache store, inside the benchmark's own
/// directory; removed when dropped, however the run ends.
struct Scratch(PathBuf);

impl Scratch {
    /// An empty directory named after `tag` and this process.
    fn fresh(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("scratch")
            .join(format!("{tag}-{}", std::process::id()));
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("cannot clear {}: {e}", dir.display())),
        }
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Grid metrics on a workload that never touches the cache.
fn absent_grid_metrics(ledger: &mut Ledger) {
    for (name, unit) in [
        ("grid.load_us", "us"),
        ("farm.decode_us", "us"),
        ("grid.hit_ratio", "ratio"),
        ("grid.store_us", "us"),
    ] {
        ledger.metric(name, 0.0, unit);
    }
}

/// Cell-pipeline metrics on a workload that runs no cell.
fn absent_pipeline_metrics(ledger: &mut Ledger) {
    for name in STAGES
        .iter()
        .chain(&FINGERPRINT_PARTS)
        .copied()
        .chain(["farm.fingerprint_self"])
    {
        ledger.metric(&format!("{name}_us"), 0.0, "us");
    }
    ledger.metric("kernel.run_ns_per_record", 0.0, "ns");
    for (name, unit) in COUNTERS {
        ledger.metric(name, 0.0, unit);
    }
    for stage in STAGES {
        ledger.metric(&format!("{stage}.allocs"), 0.0, "count");
        ledger.metric(&format!("{stage}.alloc_bytes"), 0.0, "bytes");
    }
}

/// Every per-layer metric the checker workload does not reach.
pub fn absent_metrics(ledger: &mut Ledger) {
    absent_pipeline_metrics(ledger);
    ledger.metric("campaign.busy_ratio", 0.0, "ratio");
    absent_grid_metrics(ledger);
}

/// Checks a warm sweep: every operation a hit that decodes to its golden.
fn check_warm(
    goldens: &Goldens,
    cells: &[Cell],
    report: &GridReport<CellOutcome>,
    ledger: &mut Ledger,
) {
    goldens.check(cells, &report.records, ledger);
    let misses = report.misses();
    if misses > 0 {
        ledger.error(format!(
            "{misses} of {} warm lookups missed the cache",
            report.jobs
        ));
    }
}

/// `grid_warm`: a 100 %-hit grid sweep. Set-up fills the cache once (in
/// segment mode); the timed passes only read it.
pub fn grid_warm(opts: &Opts, ledger: &mut Ledger) -> Result<(), String> {
    let cells = cells(opts);
    let mut scratch = None;
    let ((goldens, warm_grid), setup_s) = set_up(opts, || {
        let goldens = Goldens::load(&cells)?;
        // The previous repetition's cache goes first: it has the same path.
        drop(scratch.take());
        let dir = Scratch::fresh("grid_warm")?;
        let cold_grid = grid().cache(CacheStore::new(&dir.0));
        let fill = sweep(&cold_grid, &cells, ExecMode::Segment);
        goldens.check(&cells, &fill.records, ledger);
        let warm_grid = grid().cache(CacheStore::new(&dir.0));
        let warm = sweep(&warm_grid, &cells, ExecMode::Segment);
        check_warm(&goldens, &cells, &warm, ledger);
        scratch = Some(dir);
        Ok((goldens, warm_grid))
    })?;
    let scratch = scratch.expect("set-up ran");
    ledger.note(format!("cells {} served from a warm cache", cells.len()));

    let mut passes = Vec::new();
    let mut fastest = Fastest::default();
    let mut pools = Vec::new();
    let untraced_seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut host = HostSpeed::default();
    for_seconds(untraced_seconds, 1, || {
        host.sample();
        let report = sweep(&warm_grid, &cells, ExecMode::Segment);
        check_warm(&goldens, &cells, &report, ledger);
        pools.push(time_sweep(&report, &mut passes, &mut fastest, ledger));
    });
    if !opts.trace {
        return ledger.end_to_end(setup_s, quiet_rate(&passes), &passes, &fastest, &host);
    }

    // Traced passes: the same sweep, with every decode in a span.
    decode_spans()
        .lock()
        .expect("decode spans are never poisoned")
        .clear();
    let mut traced = Vec::new();
    alloc::set_enabled(true);
    for_seconds(opts.seconds / 2.0, MIN_TRACED_PASSES, || {
        let report = warm_grid.run(cells.len(), |i| cells[i].label(), |_| TracedHit(None));
        let records: Vec<CellOutcome> = report.records.iter().map(|h| CellOutcome(h.0)).collect();
        goldens.check(&cells, &records, ledger);
        if report.misses() > 0 {
            ledger.error(format!(
                "{} traced warm lookups missed the cache",
                report.misses()
            ));
        }
        traced.push(Pass {
            ops: report.jobs as u64,
            wall: report.wall,
        });
    });
    alloc::set_enabled(false);
    let decodes = std::mem::take(
        &mut *decode_spans()
            .lock()
            .expect("decode spans are never poisoned"),
    );

    let (probe, probe_spans) = probe_cache(&CacheStore::new(&scratch.0), &cells, &goldens, ledger)?;
    absent_pipeline_metrics(ledger);
    ledger.metric("campaign.busy_ratio", pool_busy_ratio(&pools), "ratio");
    let load_us = probe.per_op_us("grid.load");
    let mut decode = FastestSelf::default();
    for span in &decodes {
        decode.add(span.op, std::slice::from_ref(span));
    }
    let decode_us = decode.per_op_us("farm.decode");
    ledger.metric("grid.load_us", load_us, "us");
    ledger.metric("farm.decode_us", decode_us, "us");
    let hits: usize = pools.iter().map(|p| p.hits).sum();
    let jobs: usize = pools.iter().map(|p| p.jobs).sum();
    ledger.metric("grid.hit_ratio", hits as f64 / jobs as f64, "ratio");
    ledger.metric("grid.store_us", probe.per_op_us("grid.store"), "us");
    crate::check::absent_metrics(ledger);
    ledger.metric(
        "bench.trace_overhead_ratio",
        quiet_rate(&traced) / quiet_rate(&passes),
        "ratio",
    );
    let hit_us = fastest.walls_us().iter().sum::<f64>() / fastest.walls_us().len() as f64;
    ledger.metric(
        "bench.stage_coverage_ratio",
        (load_us + decode_us) / hit_us,
        "ratio",
    );
    // The decodes of the first traced pass.
    let first_pass = &decodes[..decodes.len().min(cells.len())];
    span::write_out(opts, &[first_pass, &probe_spans])
}

/// Spans of the decodes made inside traced warm sweeps.
fn decode_spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
    &SPANS
}

/// A cache hit whose decode is timed in a `farm.decode` span.
struct TracedHit(Option<CellResult>);

impl Record for TracedHit {
    fn encode(&self) -> String {
        self.0
            .as_ref()
            .map_or_else(|| "panicked".to_owned(), render_line)
    }

    fn decode(line: &str) -> Option<Self> {
        // The grid does not pass the cell along; its line identifies it.
        let mut key = Fnv1a::new();
        key.write(line.as_bytes());
        let mut rec = Recorder::new(epoch(), key.finish() as u32);
        let result = rec.span("farm.decode", |_| parse_line(line));
        decode_spans()
            .lock()
            .expect("decode spans are never poisoned")
            .extend(rec.finish());
        result.map(|r| TracedHit(Some(r)))
    }
}

/// Times `CacheStore::load` and `CacheStore::store` on every cell's
/// entry, [`GRID_PROBE_REPS`] times, and checks each loaded line.
/// Returns each entry's fastest times and the spans of the first
/// repetition.
fn probe_cache(
    store: &CacheStore,
    cells: &[Cell],
    goldens: &Goldens,
    ledger: &mut Ledger,
) -> Result<(FastestSelf, Vec<Span>), String> {
    let copy = Scratch::fresh("grid_store")?;
    let copy_store = CacheStore::new(&copy.0);
    let mut fastest = FastestSelf::default();
    let mut first = Vec::new();
    for rep in 0..GRID_PROBE_REPS {
        for (i, cell) in cells.iter().enumerate() {
            let key = job_key(FARM_SEED, i as u64, &cell.label());
            let mut rec = Recorder::new(epoch(), i as u32);
            let line = rec.span("grid.load", |_| store.load(key));
            let want = goldens.of(cell);
            ledger.op(
                line.as_deref()
                    .and_then(parse_line)
                    .is_some_and(|r| r.fingerprint == want),
                || {
                    format!(
                        "{}: cached line does not decode to its golden",
                        cell.label()
                    )
                },
            );
            if let Some(line) = line {
                rec.span("grid.store", |_| copy_store.store(key, &line))
                    .map_err(|e| format!("cannot store into {}: {e}", copy.0.display()))?;
            }
            let spans = rec.finish();
            fastest.add(i as u32, &spans);
            if rep == 0 {
                first.extend(spans);
            }
        }
    }
    Ok((fastest, first))
}
