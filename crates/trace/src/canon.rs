//! Canonical event serialization: a stable, line-oriented text form of a
//! [`Trace`], made for hashing and byte-comparison rather than for
//! humans.
//!
//! The regression farm reduces every simulation to a fingerprint over
//! this stream; two runs produce the same canonical text if and only if
//! they recorded the same events in the same order with the same
//! timestamps. The format is therefore deliberately exhaustive and
//! deliberately frozen:
//!
//! ```text
//! actor <index> <kind> <escaped-name>
//! ...
//! <at_ps> <seq> <actor-index> S <state>
//! <at_ps> <seq> <actor-index> O <overhead-kind> <duration_ps>
//! <at_ps> <seq> <actor-index> C <relation-index> <comm-kind>
//! <at_ps> <seq> <actor-index> Q <depth>/<capacity>
//! <at_ps> <seq> <actor-index> R acquired|released
//! <at_ps> <seq> <actor-index> A <escaped-label>
//! <at_ps> <seq> <actor-index> K <core>
//! <at_ps> <seq> <actor-index> F <fault-kind> <magnitude_ps>
//! ```
//!
//! Times are picoseconds since time zero; names and annotation labels
//! are escaped (`\\`, `\n`, `\s` for backslash, newline, space) so every
//! record stays exactly one line with space-separated fields. **Changing
//! this format invalidates every pinned fingerprint** — treat it like a
//! wire format, not an implementation detail.
//!
//! # One renderer, several sinks
//!
//! The format is rendered in one place: a private line renderer that
//! writes each line, newline included, into a reused byte buffer and
//! hands it to a sink. Integers go through a hand-rolled decimal
//! writer and enum fields through their `&'static str` keys, so no
//! `fmt` machinery runs per record. Escaping is byte-wise, which is
//! UTF-8-safe because the three escaped characters are ASCII and never
//! occur inside a multi-byte sequence. Every consumer streams through
//! it:
//!
//! - [`canonical_lines`] — the whole trace, line by line (the farm
//!   fingerprint feeds it straight into its hasher);
//! - [`canonical_record_lines`] — a run of records without the actor
//!   table (the explorer folds each new trace suffix into its state
//!   hash);
//! - [`canonical`] and [`write_canonical`] — collectors into a `String`
//!   or a [`fmt::Write`] sink.

use std::fmt;

use crate::record::{ActorInfo, Record, TraceData};
use crate::recorder::Trace;

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends a name or label escaped into one whitespace-free token.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b' ' => out.extend_from_slice(b"\\s"),
            b => out.push(b),
        }
    }
}

/// The canonical renderer: the actor lines of `actors`, then one line
/// per record, each passed to `sink` with its trailing newline.
fn render<F: FnMut(&[u8])>(actors: &[ActorInfo], records: &[Record], mut sink: F) {
    let mut line = Vec::with_capacity(64);
    for (index, info) in actors.iter().enumerate() {
        line.clear();
        line.extend_from_slice(b"actor ");
        push_u64(&mut line, index as u64);
        line.push(b' ');
        line.extend_from_slice(info.kind.key().as_bytes());
        line.push(b' ');
        push_escaped(&mut line, &info.name);
        line.push(b'\n');
        sink(&line);
    }
    for r in records {
        line.clear();
        push_u64(&mut line, r.at.as_ps());
        line.push(b' ');
        push_u64(&mut line, r.seq);
        line.push(b' ');
        push_u64(&mut line, r.actor.index() as u64);
        match &r.data {
            TraceData::State(s) => {
                line.extend_from_slice(b" S ");
                line.extend_from_slice(s.key().as_bytes());
            }
            TraceData::Overhead { kind, duration } => {
                line.extend_from_slice(b" O ");
                line.extend_from_slice(kind.key().as_bytes());
                line.push(b' ');
                push_u64(&mut line, duration.as_ps());
            }
            TraceData::Comm { relation, kind } => {
                line.extend_from_slice(b" C ");
                push_u64(&mut line, relation.index() as u64);
                line.push(b' ');
                line.extend_from_slice(kind.key().as_bytes());
            }
            TraceData::QueueDepth { depth, capacity } => {
                line.extend_from_slice(b" Q ");
                push_u64(&mut line, *depth as u64);
                line.push(b'/');
                push_u64(&mut line, *capacity as u64);
            }
            TraceData::ResourceHeld(held) => {
                line.extend_from_slice(if *held {
                    b" R acquired"
                } else {
                    b" R released"
                });
            }
            TraceData::Annotation(label) => {
                line.extend_from_slice(b" A ");
                push_escaped(&mut line, label);
            }
            TraceData::Core(core) => {
                line.extend_from_slice(b" K ");
                push_u64(&mut line, *core as u64);
            }
            TraceData::Fault { kind, magnitude_ps } => {
                line.extend_from_slice(b" F ");
                line.extend_from_slice(kind.key().as_bytes());
                line.push(b' ');
                push_u64(&mut line, *magnitude_ps);
            }
        }
        line.push(b'\n');
        sink(&line);
    }
}

/// Streams the canonical form of `trace` to `sink`, one line at a time.
///
/// Each call receives one complete line, trailing newline included, in
/// a buffer that is reused for the next line; the concatenation of all
/// calls is exactly [`canonical`]. Every line is valid UTF-8.
///
/// # Examples
///
/// ```
/// use rtsim_campaign::Fnv1a;
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{canonical, canonical_lines, ActorKind, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let t = rec.register("T", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(42), TaskState::Running);
/// let mut streamed = Fnv1a::new();
/// rec.with_trace(|trace| canonical_lines(trace, |line| streamed.write(line)));
/// let mut whole = Fnv1a::new();
/// whole.write(canonical(&rec.snapshot()).as_bytes());
/// assert_eq!(streamed.finish(), whole.finish());
/// ```
pub fn canonical_lines(trace: &Trace, sink: impl FnMut(&[u8])) {
    render(trace.actors(), trace.records(), sink);
}

/// Streams the canonical lines of `records` alone — no actor table —
/// to `sink`, exactly as they appear in [`canonical_lines`] output.
///
/// This is the incremental face of the format: a consumer that hashes
/// records as they are appended (the `rtsim-check` explorer folding a
/// trace prefix into its visited-state hash) gets the same byte stream
/// as hashing the record section of [`canonical`] at the end.
pub fn canonical_record_lines(records: &[Record], sink: impl FnMut(&[u8])) {
    render(&[], records, sink);
}

/// Renders the canonical form of `trace` into a string.
///
/// The output covers the full actor table and every record (states,
/// overheads, communication accesses, queue depths, resource holds,
/// annotations), so any behavioural difference between two runs —
/// dispatch order, preemption instants, overhead placement — shows up as
/// a byte difference.
///
/// # Examples
///
/// ```
/// use rtsim_kernel::SimTime;
/// use rtsim_trace::{canonical, ActorKind, TaskState, TraceRecorder};
///
/// let rec = TraceRecorder::new();
/// let t = rec.register("Function_1", ActorKind::Task);
/// rec.state(t, SimTime::from_ps(42), TaskState::Running);
/// let text = canonical(&rec.snapshot());
/// assert_eq!(text, "actor 0 task Function_1\n42 0 0 S running\n");
/// ```
pub fn canonical(trace: &Trace) -> String {
    let mut out = Vec::new();
    canonical_lines(trace, |line| out.extend_from_slice(line));
    String::from_utf8(out).expect("byte-wise escaping keeps UTF-8 valid")
}

/// Streams the canonical form of `trace` to a [`fmt::Write`] sink, one
/// line per `write_str` call.
///
/// # Errors
///
/// Propagates the sink's first formatting error; no line is written
/// after it.
pub fn write_canonical<W: fmt::Write>(trace: &Trace, out: &mut W) -> fmt::Result {
    let mut result = Ok(());
    canonical_lines(trace, |line| {
        if result.is_ok() {
            let line = std::str::from_utf8(line).expect("byte-wise escaping keeps UTF-8 valid");
            result = out.write_str(line);
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ActorKind, CommKind, OverheadKind, TaskState};
    use crate::recorder::TraceRecorder;
    use rtsim_kernel::{SimDuration, SimTime};

    #[test]
    fn every_record_kind_renders_one_line() {
        let rec = TraceRecorder::new();
        let t = rec.register("T one", ActorKind::Task);
        let q = rec.register("Q", ActorKind::Relation);
        rec.state(t, SimTime::from_ps(1), TaskState::Ready);
        rec.overhead(
            t,
            SimTime::from_ps(2),
            OverheadKind::Scheduling,
            SimDuration::from_ps(5),
        );
        rec.comm(t, SimTime::from_ps(3), q, CommKind::Write);
        rec.queue_depth(q, SimTime::from_ps(3), 1, 4);
        rec.resource_held(q, SimTime::from_ps(4), true);
        rec.annotate(t, SimTime::from_ps(5), "mark here");
        let text = canonical(&rec.snapshot());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "actor 0 task T\\sone",
                "actor 1 relation Q",
                "1 0 0 S ready",
                "2 1 0 O scheduling 5",
                "3 2 0 C 1 write",
                "3 3 1 Q 1/4",
                "4 4 1 R acquired",
                "5 5 0 A mark\\shere",
            ]
        );
    }

    #[test]
    fn escaping_keeps_one_record_per_line() {
        let rec = TraceRecorder::new();
        let t = rec.register("a\nb\\c", ActorKind::Task);
        rec.annotate(t, SimTime::ZERO, "x y");
        let text = canonical(&rec.snapshot());
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("actor 0 task a\\nb\\\\c\n"));
    }

    #[test]
    fn identical_runs_are_byte_identical() {
        let build = || {
            let rec = TraceRecorder::new();
            let t = rec.register("T", ActorKind::Task);
            rec.state(t, SimTime::from_ps(10), TaskState::Running);
            rec.state(t, SimTime::from_ps(20), TaskState::Waiting);
            canonical(&rec.snapshot())
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn write_canonical_matches_canonical() {
        let rec = TraceRecorder::new();
        let t = rec.register("T", ActorKind::Task);
        rec.state(t, SimTime::ZERO, TaskState::Running);
        let trace = rec.snapshot();
        let mut sink = String::new();
        write_canonical(&trace, &mut sink).unwrap();
        assert_eq!(sink, canonical(&trace));
    }
}
