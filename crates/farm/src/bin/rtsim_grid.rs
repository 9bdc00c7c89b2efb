//! The sharded-grid driver: the farm's 224-cell matrix as a
//! campaign-of-campaigns with content-addressed result caching.
//!
//! ```text
//! rtsim-grid                 run the matrix through the grid and print
//!                            the per-shard summary table
//! rtsim-grid --shards N      override the shard count (else
//!                            RTSIM_GRID_SHARDS, else 1)
//! rtsim-grid --merge         additionally write per-shard
//!                            grid.shard<i>.jsonl plus merged
//!                            grid.jsonl / grid.csv artifacts
//!                            (RTSIM_CAMPAIGN_OUT names the directory)
//! rtsim-grid --check-cache   cold run, then warm run at a different
//!                            shard count; exit 1 unless the warm run is
//!                            100 % cache hits with byte-identical
//!                            merged JSONL
//! ```
//!
//! `RTSIM_GRID_CACHE=<dir>` names the result cache (`--check-cache`
//! creates and removes a temporary one when unset); `RTSIM_WORKERS`
//! sets the per-shard pool width; `RTSIM_BENCH_SMOKE=1` shrinks the
//! matrix to the smoke subset. Merged results are bit-identical for any
//! worker and shard count.

use std::process::ExitCode;

use rtsim_campaign::{smoke, workers_from_env, write_artifact};
use rtsim_farm::registry::{full_matrix, run_matrix_sharded, smoke_matrix};
use rtsim_farm::{render_csv, Cell, CellResult};
use rtsim_grid::{shards_from_env, CacheStore, GridReport, CACHE_ENV};

fn matrix() -> Vec<Cell> {
    if smoke() {
        smoke_matrix()
    } else {
        full_matrix()
    }
}

fn print_summary(report: &GridReport<CellResult>, cached: bool) {
    println!(
        "grid `{}`: {} jobs, {} shard(s) x {} worker(s), {:.1} ms",
        report.name,
        report.jobs,
        report.shards.len(),
        report.workers,
        report.wall.as_secs_f64() * 1e3,
    );
    println!(
        "{:<7} {:>6} {:>6} {:>6} {:>7} {:>10}",
        "shard", "start", "jobs", "hits", "misses", "wall_ms"
    );
    for s in &report.shards {
        println!(
            "{:<7} {:>6} {:>6} {:>6} {:>7} {:>10.1}",
            s.shard,
            s.start,
            s.jobs,
            s.hits,
            s.misses,
            s.wall.as_secs_f64() * 1e3,
        );
    }
    if cached {
        println!(
            "cache: {} hit(s), {} miss(es) ({:.0} % hit rate)",
            report.hits(),
            report.misses(),
            report.hit_rate() * 100.0,
        );
    }
}

fn run(shards: usize, merge: bool) -> ExitCode {
    let cells = matrix();
    let cache = CacheStore::from_env();
    let cached = cache.is_some();
    let report = run_matrix_sharded(&cells, workers_from_env(), shards, cache);
    print_summary(&report, cached);
    if merge {
        for s in &report.shards {
            write_artifact(
                &format!("grid.shard{}.jsonl", s.shard),
                &report.shard_jsonl(s.shard),
            );
        }
        write_artifact("grid.jsonl", &report.merged_jsonl());
        write_artifact("grid.csv", &render_csv(&report.records));
    }
    ExitCode::SUCCESS
}

/// Cold run then warm run at a different shard count: the warm run must
/// be served entirely from the cache and reproduce the merged JSONL
/// byte-for-byte. This is the round-trip `tools/check_hermetic.sh`
/// exercises in smoke mode.
fn check_cache(shards: usize) -> ExitCode {
    let cells = matrix();
    // A scratch store unless the user pointed RTSIM_GRID_CACHE somewhere.
    let (store, scratch) = match CacheStore::from_env() {
        Some(store) => (store, None),
        None => {
            let dir = std::env::temp_dir().join(format!("rtsim-grid-check-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (CacheStore::new(&dir), Some(dir))
        }
    };
    println!(
        "check-cache: {} cells, cache at {} ({} preexisting entries)",
        cells.len(),
        store.dir().display(),
        store.len(),
    );
    let preexisting = store.len();
    let cold = run_matrix_sharded(&cells, workers_from_env(), shards, Some(store.clone()));
    print_summary(&cold, true);
    // A different shard count on the warm pass proves keys are global.
    let warm = run_matrix_sharded(&cells, workers_from_env(), shards + 1, Some(store.clone()));
    print_summary(&warm, true);
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let mut failures = Vec::new();
    if preexisting == 0 && cold.hits() != 0 {
        failures.push(format!("cold run hit {} times in a fresh cache", cold.hits()));
    }
    if warm.hits() != cells.len() {
        failures.push(format!(
            "warm run hit {}/{} (expected 100 %)",
            warm.hits(),
            cells.len()
        ));
    }
    if warm.merged_jsonl() != cold.merged_jsonl() {
        failures.push("warm merged JSONL differs from cold".to_owned());
    }
    if warm.records != cold.records {
        failures.push("warm decoded records differ from cold".to_owned());
    }
    if failures.is_empty() {
        println!(
            "OK: warm rerun at {} shard(s) was {}/{} hits, byte-identical",
            shards + 1,
            warm.hits(),
            cells.len(),
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: rtsim-grid [--shards N] [--merge|--check-cache]");
    eprintln!("env: {CACHE_ENV}=<dir>, RTSIM_GRID_SHARDS, RTSIM_WORKERS, RTSIM_BENCH_SMOKE");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    rtsim_kernel::ExecMode::from_env_or_exit();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shards = shards_from_env();
    let mut merge = false;
    let mut check = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--shards" => match iter.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = n.max(1),
                None => {
                    eprintln!("--shards needs a positive integer");
                    return usage();
                }
            },
            "--merge" => merge = true,
            "--check-cache" => check = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    if check && merge {
        eprintln!("--merge and --check-cache are mutually exclusive");
        return usage();
    }
    if check {
        check_cache(shards)
    } else {
        run(shards, merge)
    }
}
