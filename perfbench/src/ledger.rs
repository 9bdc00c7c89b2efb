//! What a run measured and whether its outputs were right, and the
//! printing of both.
//!
//! The end-to-end metrics are assembled here from the same pieces on
//! every workload: the set-up repetitions, the timed passes, and the
//! fastest wall time of each operation over those passes.
//!
//! The host is shared, and other load slows stretches of a run by tens
//! of percent. Two things keep most of that out of the figures:
//!
//! - Throughput is the 90th percentile of the pass rates, and an
//!   operation's latency is its fastest time over the run's passes (every
//!   pass repeats the same operations in the same order).
//! - Between passes (at most every quarter second) the benchmark times a
//!   fixed computation of its own. The end-to-end times are scaled by the
//!   run's median host speed to what they would read on the nominal host:
//!   a run made while the host was 20 % slow reads 20 % shorter.

use std::time::{Duration, Instant};

use rtsim_campaign::json::Json;

use crate::stats::{median, percentile, tail_percentile};
use crate::Opts;

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 5;

/// Reference iterations per second on the nominal host: the 2-vCPU
/// virtual machine the benchmark was tuned on, when quiet.
const NOMINAL_REFERENCE_RATE: f64 = 10_000.0;

/// How long one reference sample runs.
const REFERENCE_SAMPLE: Duration = Duration::from_millis(5);

/// A reference sample older than this is taken again.
const REFERENCE_MAX_AGE: Duration = Duration::from_millis(250);

/// At most this many failure messages are kept for printing.
const MAX_MESSAGES: usize = 10;

/// The host's speed relative to the nominal host, sampled between passes.
#[derive(Debug, Default)]
pub struct HostSpeed {
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Samples the host's speed ÷ nominal (below 1 while other load slows
    /// the host), unless the last sample is younger than
    /// [`REFERENCE_MAX_AGE`]. Call it between passes.
    pub fn sample(&mut self) {
        if self.last.is_none_or(|at| at.elapsed() >= REFERENCE_MAX_AGE) {
            self.samples.push(reference_rate() / NOMINAL_REFERENCE_RATE);
            self.last = Some(Instant::now());
        }
    }

    /// The median of the samples so far (1 before any).
    pub fn median(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples)
        }
    }
}

/// Iterations per second of [`reference_work`] over one sample.
fn reference_rate() -> f64 {
    let started = Instant::now();
    let mut iterations = 0;
    while started.elapsed() < REFERENCE_SAMPLE {
        std::hint::black_box(reference_work(iterations));
        iterations += 1;
    }
    iterations as f64 / started.elapsed().as_secs_f64()
}

/// A fixed computation, independent of the program under test, that mixes
/// what a simulation step does: integer arithmetic, a growing vector, an
/// ordered map, string formatting and a sort.
fn reference_work(seed: u64) -> u64 {
    use std::fmt::Write as _;
    let mut x = seed | 1;
    let mut values = Vec::with_capacity(2_000);
    let mut map = std::collections::BTreeMap::new();
    let mut text = String::new();
    for i in 0..2_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
        if i % 4 == 0 {
            map.insert(x % 500, i);
        }
        if i % 8 == 0 {
            text.clear();
            let _ = write!(text, "rec {i} {x} {}", x % 97);
        }
    }
    values.sort_unstable();
    values[100] ^ text.len() as u64 ^ map.len() as u64
}

/// One timed pass over a workload's operations.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Operations completed in the pass.
    pub ops: u64,
    /// Host wall time of the pass.
    pub wall: Duration,
}

impl Pass {
    /// Operations per host second.
    pub fn rate(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Operations per second of the quiet passes: the 90th percentile
/// (nearest rank) of the pass rates.
pub fn quiet_rate(passes: &[Pass]) -> f64 {
    let mut rates: Vec<f64> = passes.iter().map(Pass::rate).collect();
    rates.sort_by(f64::total_cmp);
    percentile(&rates, 90.0)
}

/// The fastest wall time (µs) of each operation over the passes so far.
#[derive(Debug, Default)]
pub struct Fastest(Vec<f64>);

impl Fastest {
    /// Takes one pass's operation times, in operation order.
    ///
    /// # Errors
    ///
    /// When the pass ran a different number of operations than the first.
    pub fn pass(&mut self, walls_us: impl ExactSizeIterator<Item = f64>) -> Result<(), String> {
        if self.0.is_empty() {
            self.0.extend(walls_us);
        } else if walls_us.len() != self.0.len() {
            return Err(format!(
                "a pass ran {} operations, the first {}",
                walls_us.len(),
                self.0.len()
            ));
        } else {
            for (best, wall) in self.0.iter_mut().zip(walls_us) {
                *best = best.min(wall);
            }
        }
        Ok(())
    }

    /// The fastest time of each operation.
    pub fn walls_us(&self) -> &[f64] {
        &self.0
    }
}

/// Runs `pass` until `seconds` have gone by, and at least `min` times.
pub fn for_seconds(seconds: f64, min: usize, mut pass: impl FnMut()) {
    let started = Instant::now();
    let mut done = 0;
    while done < min || started.elapsed().as_secs_f64() < seconds {
        pass();
        done += 1;
    }
}

/// Runs the set-up `once` several times and returns the last result with
/// the median set-up time in seconds. The first repetition is timed from
/// process start, so loading the binary and the inputs counts.
///
/// # Errors
///
/// Passes on the first error of `once`.
pub fn set_up<T>(
    opts: &Opts,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let reps = if opts.smoke { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let from = if rep == 0 {
            opts.started
        } else {
            Instant::now()
        };
        last = Some(once()?);
        times.push(from.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Ledger {
    header: String,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Ledger {
    /// An empty ledger for the run `opts` describe.
    pub fn new(opts: &Opts) -> Self {
        Ledger {
            header: format!(
                "perfbench workload={} seed={} seconds={} trace={} workers={} smoke={} host_parallelism={}",
                opts.workload,
                opts.seed,
                opts.seconds,
                u8::from(opts.trace),
                crate::WORKERS,
                opts.smoke,
                std::thread::available_parallelism().map_or(0, usize::from),
            ),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one checked operation; `why` names a failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops(1, ok, why);
    }

    /// Counts `n` checked operations that pass or fail together.
    pub fn ops(&mut self, n: u64, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            if self.errors.len() < MAX_MESSAGES {
                self.errors.push(why());
            }
        }
    }

    /// Records a wrong output that is not one operation's, such as exact
    /// counters that differ between two runs of the same code.
    pub fn error(&mut self, why: String) {
        self.errors.push(why);
    }

    /// Reports `name` = `value` `unit`.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "{name} twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Adds a human line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every operation and every exact counter was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The end-to-end metrics: throughput, latency percentiles over the
    /// operations' fastest times (both scaled to the nominal host by the
    /// run's median host speed), peak memory and set-up time.
    ///
    /// # Errors
    ///
    /// When peak memory cannot be read.
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        ops_per_s: f64,
        passes: &[Pass],
        fastest: &Fastest,
        host: &HostSpeed,
    ) -> Result<(), String> {
        let speed = host.median();
        let mut sorted = fastest.walls_us().to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = tail_percentile(sorted.len() as u64, 99.0);
        self.metric("ops_per_s", ops_per_s / speed, "1/s");
        self.metric("op_p50_us", percentile(&sorted, 50.0) * speed, "us");
        self.metric("op_tail_us", percentile(&sorted, tail) * speed, "us");
        self.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
        self.metric("setup_s", setup_s, "s");
        self.note(format!(
            "timed passes {}, ops {}; latency over {} operations, op_tail_us is p{tail}",
            passes.len(),
            passes.iter().map(|p| p.ops).sum::<u64>(),
            sorted.len(),
        ));
        self.note(format!(
            "host speed {speed:.3} of nominal (median of the run's samples); \
             unscaled ops_per_s {ops_per_s:.1}"
        ));
        Ok(())
    }

    /// Prints the human report, then the result object as the last line.
    pub fn print(&self) {
        println!("{}", self.header);
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>16.4} {unit}");
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!("  {:<32} {ratio:>16.4} ratio", "failed_ratio");
        for error in &self.errors {
            println!("  WRONG: {error}");
        }
        let metrics = Json::obj(self.metrics.iter().map(|(name, value, unit)| {
            (
                name.clone(),
                Json::obj([("value", Json::F64(*value)), ("unit", Json::from(*unit))]),
            )
        }));
        let result = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_keeps_each_operations_best_time() {
        let mut fastest = Fastest::default();
        fastest.pass([10.0, 20.0].into_iter()).unwrap();
        fastest.pass([9.0, 30.0].into_iter()).unwrap();
        assert_eq!(fastest.walls_us(), &[9.0, 20.0]);
        assert!(fastest.pass([1.0].into_iter()).is_err());
    }

    #[test]
    fn quiet_rate_is_the_90th_percentile_pass() {
        let passes: Vec<Pass> = (1..=20)
            .map(|ms| Pass {
                ops: 100,
                wall: Duration::from_millis(ms),
            })
            .collect();
        // Rates 100/ms ops/s for ms = 1..=20; p90 of 20 is the 18th slowest.
        assert_eq!(quiet_rate(&passes), 100.0 / 0.003);
    }
}
