//! `bench-v1` trajectory emission for exploration coverage.
//!
//! The explored-state and replay counts of each scenario are emitted in
//! the same JSONL schema the bench harnesses use, so
//! `rtsim-bench-diff` gates coverage regressions exactly like perf
//! regressions. Each count is one single-sample case whose picosecond
//! fields carry `count * 1000`: a count dressed as nanoseconds, so the
//! diff tool's relative-change gate applies to it unchanged.
//!
//! This is hand-rolled rather than reusing `rtsim-bench`'s
//! `BenchReport` because the bench crate depends on the `rtsim` facade,
//! which re-exports this crate — the dependency would be circular.

use rtsim_campaign::json::{to_jsonl, Json};
use rtsim_campaign::{smoke, workers_from_env, write_artifact_in};

use crate::explore::Exploration;

/// The environment variable naming the trajectory output directory
/// (same knob as every bench harness).
pub const BENCH_OUT_ENV: &str = "RTSIM_BENCH_OUT";

/// One `bench-v1` record carrying a deterministic count.
fn count_case(group: &str, id: &str, count: u64, workers: usize, is_smoke: bool) -> Json {
    let ps = count.saturating_mul(1_000);
    Json::obj([
        ("schema", Json::from("bench-v1")),
        ("group", Json::from(group)),
        ("id", Json::from(id)),
        ("samples", Json::from(1u64)),
        ("iters", Json::from(1u64)),
        ("min_ps", Json::from(ps)),
        ("median_ps", Json::from(ps)),
        ("max_ps", Json::from(ps)),
        ("workers", Json::from(workers)),
        ("smoke", Json::from(is_smoke)),
        (
            "build",
            Json::from(format!(
                "rtsim-{}+{}",
                env!("CARGO_PKG_VERSION"),
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )),
        ),
    ])
}

/// Renders the coverage trajectory for a set of explorations: per
/// scenario, the visited-state count (`states/<name>`), the replay
/// count (`runs/<name>`) and the distinct-trace count
/// (`traces/<name>`).
pub fn coverage_jsonl(explorations: &[Exploration]) -> String {
    let workers = workers_from_env();
    let is_smoke = smoke();
    let mut records = Vec::new();
    for e in explorations {
        records.push(count_case(
            "check",
            &format!("states/{}", e.scenario),
            e.states as u64,
            workers,
            is_smoke,
        ));
        records.push(count_case(
            "check",
            &format!("runs/{}", e.scenario),
            e.runs,
            workers,
            is_smoke,
        ));
        records.push(count_case(
            "check",
            &format!("traces/{}", e.scenario),
            e.distinct_traces as u64,
            workers,
            is_smoke,
        ));
    }
    to_jsonl(&records)
}

/// Writes `bench-check.jsonl` into `RTSIM_BENCH_OUT` (no-op when the
/// variable is unset).
pub fn emit_coverage(explorations: &[Exploration]) {
    write_artifact_in(BENCH_OUT_ENV, "bench-check.jsonl", &coverage_jsonl(explorations));
}
