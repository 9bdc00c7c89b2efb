//! The regression-farm driver.
//!
//! ```text
//! rtsim-farm            run the matrix and print the fingerprint table
//! rtsim-farm --check    compare against tests/goldens/farm.jsonl;
//!                       exit 1 with a per-cell diff on drift
//! rtsim-farm --bless    rerun the FULL matrix and rewrite the goldens
//! rtsim-farm --list     list scenarios and policies without running
//! ```
//!
//! `RTSIM_WORKERS` sets the pool width (results are identical for any
//! value); `RTSIM_GRID_SHARDS` / `RTSIM_GRID_CACHE` shard the sweep and
//! cache per-cell results (also identical for any value — see
//! `rtsim-grid`); `RTSIM_BENCH_SMOKE=1` shrinks the run and `--check` to
//! the smoke subset of the matrix; `RTSIM_CAMPAIGN_OUT=<dir>`
//! additionally writes the results as `farm.jsonl` / `farm.csv`
//! artifacts; `RTSIM_FARM_GOLDENS` overrides the golden-file path.

use std::process::ExitCode;

use rtsim_campaign::{smoke, workers_from_env, write_campaign_outputs};
use rtsim_farm::registry::{full_matrix, run_matrix_sharded, smoke_matrix, PolicyKind, SCENARIOS};
use rtsim_farm::{diff, goldens_path, render, render_csv, CellResult};
use rtsim_grid::{shards_from_env, CacheStore};

fn run(cells: Vec<rtsim_farm::Cell>) -> Vec<CellResult> {
    let workers = workers_from_env();
    let shards = shards_from_env();
    let cache = CacheStore::from_env();
    let cached = cache.is_some();
    println!(
        "running {} cells on {workers} workers x {shards} shard(s) (registry: {} scenarios x {} policies x 2 modes)",
        cells.len(),
        SCENARIOS.len(),
        PolicyKind::ALL.len(),
    );
    let sweep = run_matrix_sharded(&cells, workers, shards, cache);
    if cached {
        println!(
            "cache: {} hit(s), {} miss(es)",
            sweep.hits(),
            sweep.misses()
        );
    }
    let results = sweep.records;
    write_campaign_outputs("farm", &render(&results), &render_csv(&results));
    results
}

fn print_table(results: &[CellResult]) {
    println!(
        "{:<16} {:<15} {:<12} {:>16} {:>7} {:>13} {:>6} {:>7} {:>7}",
        "scenario", "policy", "mode", "hash", "events", "makespan_us", "disp", "preempt", "misses"
    );
    for r in results {
        let f = &r.fingerprint;
        println!(
            "{:<16} {:<15} {:<12} {:>16} {:>7} {:>13} {:>6} {:>7} {:>7}",
            r.cell.scenario,
            r.cell.policy.key(),
            r.cell.mode(),
            f.hash_hex(),
            f.events,
            f.makespan_ps / 1_000_000,
            f.dispatches,
            f.preemptions,
            f.deadline_misses,
        );
    }
}

fn check() -> ExitCode {
    let path = goldens_path();
    let goldens = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "cannot read goldens {}: {e}\nrun `rtsim-farm --bless` to create them",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let smoke_run = smoke();
    let cells = if smoke_run { smoke_matrix() } else { full_matrix() };
    let results = run(cells);
    let outcome = diff(&goldens, &results, !smoke_run);
    if outcome.is_clean() {
        println!(
            "OK: {} cells match {}{}",
            outcome.matched,
            path.display(),
            if smoke_run { " (smoke subset)" } else { "" },
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "FAIL: {} cells drifted from {} ({} matched):",
            outcome.messages.len(),
            path.display(),
            outcome.matched,
        );
        for msg in &outcome.messages {
            eprintln!("  {msg}");
        }
        eprintln!("if the change is intentional, re-pin with `rtsim-farm --bless`");
        ExitCode::FAILURE
    }
}

fn bless() -> ExitCode {
    // Blessing always covers the full matrix: a smoke-sized golden file
    // would make every full --check fail as incomplete.
    let results = run(full_matrix());
    let path = goldens_path();
    if let Some(parent) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    match std::fs::write(&path, render(&results)) {
        Ok(()) => {
            println!("blessed {} cells into {}", results.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn list() -> ExitCode {
    println!("scenarios ({}):", SCENARIOS.len());
    for s in SCENARIOS {
        println!("  {:<16} horizon {}", s.name, s.horizon);
    }
    println!("policies ({}):", PolicyKind::ALL.len());
    for p in PolicyKind::ALL {
        println!("  {}", p.key());
    }
    println!("modes: preemptive, cooperative");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    rtsim_kernel::ExecMode::from_env_or_exit();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    // At most one flag: `--check --bless` must not silently drop the
    // bless, nor `--list junk` its junk.
    match args[..] {
        [] => {
            let cells = if smoke() { smoke_matrix() } else { full_matrix() };
            let results = run(cells);
            print_table(&results);
            ExitCode::SUCCESS
        }
        ["--check"] => check(),
        ["--bless"] => bless(),
        ["--list"] => list(),
        _ => {
            eprintln!(
                "unexpected arguments `{}`; usage: rtsim-farm [--check|--bless|--list]",
                args.join(" ")
            );
            ExitCode::FAILURE
        }
    }
}
