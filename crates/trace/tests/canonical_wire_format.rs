//! Wire-format oracle for the canonical trace text.
//!
//! The canonical form is what every golden fingerprint hashes, so its
//! bytes must never move. This test pins them against a reference
//! renderer kept here verbatim from the original `write!`-based
//! implementation, over seeded random traces that cover every record
//! kind, the decimal edge values (0, 9, 10, 99, `u64::MAX`) and names
//! or labels holding spaces, newlines, backslashes and multi-byte
//! UTF-8.

use std::fmt::Write as _;

use rtsim_campaign::Fnv1a;
use rtsim_kernel::testutil::{check, Rng};
use rtsim_kernel::{SimDuration, SimTime};
use rtsim_trace::{
    canonical, canonical_lines, canonical_record_lines, write_canonical, ActorKind, CommKind,
    FaultKind, OverheadKind, Record, TaskState, Trace, TraceData, TraceRecorder,
};

// ---- Reference renderer (the original implementation, verbatim) ----

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\s"),
            c => out.push(c),
        }
    }
}

fn reference_canonical(trace: &Trace) -> String {
    let mut out = String::new();
    for (index, info) in trace.actors().iter().enumerate() {
        let _ = write!(out, "actor {index} {} ", info.kind);
        escape_into(&mut out, &info.name);
        out.push('\n');
    }
    for r in trace.records() {
        canonical_record_into(&mut out, r);
        out.push('\n');
    }
    out
}

fn canonical_record_into(out: &mut String, r: &Record) {
    let _ = write!(out, "{} {} {} ", r.at.as_ps(), r.seq, r.actor.index());
    match &r.data {
        TraceData::State(s) => {
            let _ = write!(out, "S {s}");
        }
        TraceData::Overhead { kind, duration } => {
            let _ = write!(out, "O {kind} {}", duration.as_ps());
        }
        TraceData::Comm { relation, kind } => {
            let _ = write!(out, "C {} {kind}", relation.index());
        }
        TraceData::QueueDepth { depth, capacity } => {
            let _ = write!(out, "Q {depth}/{capacity}");
        }
        TraceData::ResourceHeld(held) => {
            let _ = write!(out, "R {}", if *held { "acquired" } else { "released" });
        }
        TraceData::Annotation(label) => {
            out.push_str("A ");
            escape_into(out, label);
        }
        TraceData::Core(core) => {
            let _ = write!(out, "K {core}");
        }
        TraceData::Fault { kind, magnitude_ps } => {
            let _ = write!(out, "F {kind} {magnitude_ps}");
        }
    }
}

// ---- Random traces ----

/// Decimal edge values: one and two digits on both sides of each
/// carry, plus the widest value a field can hold.
const EDGES: [u64; 5] = [0, 9, 10, 99, u64::MAX];

fn gen_int(rng: &mut Rng) -> u64 {
    if rng.gen_bool(0.6) {
        *rng.choose(&EDGES)
    } else {
        rng.next_u64() >> rng.gen_range(0u32..64)
    }
}

fn gen_usize(rng: &mut Rng) -> usize {
    usize::try_from(gen_int(rng)).unwrap_or(usize::MAX)
}

/// A name or label built from fragments that exercise every escape and
/// multi-byte UTF-8 sequences of two, three and four bytes.
fn gen_text(rng: &mut Rng) -> String {
    const PARTS: [&str; 10] = ["T", "task_1", " ", "\n", "\\", "é", "日本", "🦀", "\\s", ""];
    rng.gen_vec(0..6, |r| *r.choose(&PARTS)).concat()
}

fn gen_state(rng: &mut Rng) -> TaskState {
    *rng.choose(&[
        TaskState::Created,
        TaskState::Running,
        TaskState::Ready,
        TaskState::Waiting,
        TaskState::WaitingResource,
        TaskState::Terminated,
    ])
}

fn gen_fault(rng: &mut Rng) -> FaultKind {
    *rng.choose(&[
        FaultKind::DropMessage,
        FaultKind::DropSignal,
        FaultKind::Jitter,
        FaultKind::Burst,
        FaultKind::Degraded,
        FaultKind::Recovered,
    ])
}

/// Number of `TraceData` variants; the first records of every trace
/// cycle through all of them so each case covers every kind.
const KINDS: usize = 8;

fn gen_trace(rng: &mut Rng) -> Trace {
    let rec = TraceRecorder::new();
    let kinds = [ActorKind::Task, ActorKind::Processor, ActorKind::Relation];
    let actors: Vec<_> = (0..rng.gen_range(1usize..5))
        .map(|_| {
            let kind = *rng.choose(&kinds);
            rec.register(&gen_text(rng), kind)
        })
        .collect();
    let records = rng.gen_range(KINDS..KINDS + 24);
    for i in 0..records {
        let actor = *rng.choose(&actors);
        let at = SimTime::from_ps(gen_int(rng));
        let kind = if i < KINDS {
            i
        } else {
            rng.gen_range(0..KINDS)
        };
        match kind {
            0 => rec.state(actor, at, gen_state(rng)),
            1 => {
                let kind = *rng.choose(&[
                    OverheadKind::ContextSave,
                    OverheadKind::Scheduling,
                    OverheadKind::ContextLoad,
                    OverheadKind::Migration,
                ]);
                rec.overhead(actor, at, kind, SimDuration::from_ps(gen_int(rng)));
            }
            2 => {
                let relation = *rng.choose(&actors);
                let kind = *rng.choose(&[CommKind::Read, CommKind::Write, CommKind::Signal]);
                rec.comm(actor, at, relation, kind);
            }
            3 => rec.queue_depth(actor, at, gen_usize(rng), gen_usize(rng)),
            4 => rec.resource_held(actor, at, rng.gen_bool(0.5)),
            5 => rec.annotate(actor, at, &gen_text(rng)),
            6 => rec.core(actor, at, gen_usize(rng)),
            _ => rec.fault(actor, at, gen_fault(rng), gen_int(rng)),
        }
    }
    rec.snapshot()
}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

// ---- The oracle ----

#[test]
fn canonical_matches_the_reference_renderer() {
    check(256, gen_trace, |trace| {
        let want = reference_canonical(trace);
        let text = canonical(trace);
        assert_eq!(text, want);

        let mut streamed = Vec::new();
        let mut hashed = Fnv1a::new();
        canonical_lines(trace, |line| {
            assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(line.last(), Some(&b'\n'));
            streamed.extend_from_slice(line);
            hashed.write(line);
        });
        assert_eq!(String::from_utf8(streamed).unwrap(), want);
        assert_eq!(hashed.finish(), fnv(text.as_bytes()));

        let mut records = Vec::new();
        canonical_record_lines(trace.records(), |line| records.extend_from_slice(line));
        let record_section: String = want
            .lines()
            .skip(trace.actors().len())
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(String::from_utf8(records).unwrap(), record_section);

        let mut written = String::new();
        write_canonical(trace, &mut written).unwrap();
        assert_eq!(written, want);
    });
}

#[test]
fn generated_traces_cover_every_kind_and_edge() {
    let mut rng = Rng::seed_from_u64(0x5eed);
    let text: String = (0..64).map(|_| canonical(&gen_trace(&mut rng))).collect();
    for tag in [" S ", " O ", " C ", " Q ", " R ", " A ", " K ", " F "] {
        assert!(text.contains(tag), "no record with tag {tag:?}");
    }
    for edge in EDGES {
        assert!(
            text.contains(&format!(" {edge}")),
            "edge value {edge} never rendered"
        );
    }
    for escaped in ["\\s", "\\n", "\\\\", "é", "日本", "🦀"] {
        assert!(text.contains(escaped), "{escaped:?} never rendered");
    }
}
