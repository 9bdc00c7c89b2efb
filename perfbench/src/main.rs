//! `perfbench` — the rtsim benchmark: end-to-end and per-layer metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `LEDGER.md` beside this crate):
//!
//! * `farm_segment` — the 224-cell farm matrix in `ExecMode::Segment`;
//! * `farm_thread` — the same matrix in `ExecMode::Thread`;
//! * `check_explore` — exhaustive `check::explore` of the healthy
//!   checker scenarios;
//! * `grid_warm` — a 100 %-hit grid sweep over a cache filled in set-up.
//!
//! Every run checks each operation against the pinned goldens. With
//! `--trace 0` it reports the end-to-end metrics, measured with tracing
//! off; with `--trace 1` it reports the per-layer split, measured with
//! spans the benchmark wraps around its calls into each layer. Human
//! lines come first; the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every output was correct.

mod alloc;
mod check;
mod farm;
mod ledger;
mod span;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use ledger::Ledger;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Worker threads of every pooled sweep. Pinned, not taken from the
/// host: one worker measured about 3× slower than two in thread mode.
pub const WORKERS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["farm_segment", "farm_thread", "check_explore", "grid_warm"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Permutes the submission order of cells or scenarios.
    pub seed: u64,
    /// Length of the timed part of the run.
    pub seconds: f64,
    /// Per-layer run (`true`) or end-to-end run.
    pub trace: bool,
    /// Shrinks every workload to a subset, for the benchmark's own tests.
    pub smoke: bool,
    /// When the process started, for `setup_s`.
    pub started: Instant,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String], started: Instant) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload `{value}`")),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed `{value}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds `{value}` is not in (0, 600]"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}` is not 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        started,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args, started) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut ledger = Ledger::new(&opts);
    let outcome = match opts.workload.as_str() {
        "farm_segment" => farm::matrix(&opts, rtsim_kernel::ExecMode::Segment, &mut ledger),
        "farm_thread" => farm::matrix(&opts, rtsim_kernel::ExecMode::Thread, &mut ledger),
        "grid_warm" => farm::grid_warm(&opts, &mut ledger),
        "check_explore" => check::explore(&opts, &mut ledger),
        _ => unreachable!("parse_args admits only known workloads"),
    };
    if let Err(e) = outcome {
        // Missing inputs or an unusable checkout: no result to print.
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    ledger.print();
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let opts = parse_args(
            &args("--workload grid_warm --seed 7 --seconds 2.5 --trace 1"),
            Instant::now(),
        )
        .unwrap();
        assert_eq!(opts.workload, "grid_warm");
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.smoke),
            (7, 2.5, true, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        let now = Instant::now();
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload grid_warm --seed -1 --seconds 1 --trace 0",
            "--workload grid_warm --seed 1 --seconds 0 --trace 0",
            "--workload grid_warm --seed 1 --seconds 1 --trace 2",
            "--workload grid_warm --seed 1 --seconds 1",
            "--workload grid_warm --seed 1 --seconds 1 --trace 0 --extra 3",
            "--workload grid_warm --seed",
        ] {
            assert!(parse_args(&args(bad), now).is_err(), "{bad:?}");
        }
    }
}
