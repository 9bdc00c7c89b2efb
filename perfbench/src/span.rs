//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since a shared
//! epoch), the span that encloses it, and the allocations its thread made
//! while it was open. Spans of one operation share an operation id. They
//! stay in memory until the run ends; [`write_jsonl`] then writes them out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;
use crate::Opts;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `kernel.run`.
    pub name: &'static str,
    /// The operation (matrix cell, scenario exploration) it belongs to.
    pub op: u32,
    /// Index of the enclosing span within the same operation's spans.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Allocations made on the span's thread while it was open.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records the spans of one operation on one thread.
pub struct Recorder {
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    stack: Vec<(u32, u64, u64)>,
}

impl Recorder {
    /// A recorder for operation `op`, timing against `epoch`.
    pub fn new(epoch: Instant, op: u32) -> Self {
        Recorder {
            epoch,
            op,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().map(|&(p, _, _)| p);
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        });
        let (calls, bytes) = alloc::snapshot();
        self.stack.push((id, calls, bytes));
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        let (_, calls0, bytes0) = self.stack.pop().expect("span stack is balanced");
        let (calls, bytes) = alloc::snapshot();
        let span = &mut self.spans[id as usize];
        span.start_ns = start;
        span.end_ns = end;
        span.allocs = calls - calls0;
        span.alloc_bytes = bytes - bytes0;
        out
    }

    /// The operation's spans, in the order they were opened.
    pub fn finish(self) -> Vec<Span> {
        debug_assert!(self.stack.is_empty());
        self.spans
    }
}

/// Self time of `spans[i]`: its duration minus the part of its interval
/// that its child spans cover. `spans` are the spans of one operation.
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let parent = &spans[i];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i as u32))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.dur_ns() - covered
}

/// The fastest self time of each span name in each operation, over
/// repetitions of the same operations. Operations are identified by a
/// key the caller chooses (a matrix cell, a checker scenario), so the
/// same operation in two passes is one entry.
#[derive(Debug, Default)]
pub struct FastestSelf(BTreeMap<(&'static str, u32), u64>);

impl FastestSelf {
    /// Takes the spans of one run of operation `key`.
    pub fn add(&mut self, key: u32, spans: &[Span]) {
        for (i, span) in spans.iter().enumerate() {
            let best = self.0.entry((span.name, key)).or_insert(u64::MAX);
            *best = (*best).min(self_ns(spans, i));
        }
    }

    /// The fastest self time of `name` in operation `key`, in ns.
    pub fn of(&self, name: &'static str, key: u32) -> u64 {
        self.0.get(&(name, key)).copied().unwrap_or(0)
    }

    /// The fastest self times of `name`, summed over operations, in ns.
    pub fn total_ns(&self, name: &'static str) -> u64 {
        self.0
            .range((name, 0)..=(name, u32::MAX))
            .map(|(_, &ns)| ns)
            .sum()
    }

    /// The mean over operations of the fastest self time of `name`, in
    /// µs (0 when no operation has such a span).
    pub fn per_op_us(&self, name: &'static str) -> f64 {
        let ops = self.0.range((name, 0)..=(name, u32::MAX)).count();
        if ops == 0 {
            0.0
        } else {
            self.total_ns(name) as f64 / ops as f64 / 1e3
        }
    }
}

/// Adds the allocations each of one operation's spans made, its
/// children's excluded, to `totals`: `[allocations, bytes]` by span name.
pub fn add_self_allocs(totals: &mut BTreeMap<&'static str, [u64; 2]>, spans: &[Span]) {
    for (i, span) in spans.iter().enumerate() {
        let (child_allocs, child_bytes) = spans
            .iter()
            .filter(|s| s.parent == Some(i as u32))
            .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes));
        let t = totals.entry(span.name).or_default();
        t[0] += span.allocs - child_allocs;
        t[1] += span.alloc_bytes - child_bytes;
    }
}

/// Renders spans as JSONL, one span per line, after a header line.
pub fn write_jsonl(header: &str, spans: &[Span]) -> String {
    let mut out = format!("{header}\n");
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            r#"{{"op":{},"name":"{}","parent":{parent},"start_ns":{},"end_ns":{},"allocs":{},"alloc_bytes":{}}}"#,
            s.op, s.name, s.start_ns, s.end_ns, s.allocs, s.alloc_bytes
        );
    }
    out
}

/// Writes `groups` of spans to `out/spans-<workload>.jsonl` in the
/// benchmark's directory, after a header naming the run.
///
/// # Errors
///
/// When the file cannot be written.
pub fn write_out(opts: &Opts, groups: &[&[Span]]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}.jsonl", opts.workload));
    let header = format!(
        r#"{{"workload":"{}","seed":{},"smoke":{}}}"#,
        opts.workload, opts.seed, opts.smoke
    );
    let spans: Vec<Span> = groups.iter().flat_map(|g| g.iter().cloned()).collect();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, write_jsonl(&header, &spans)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("cell", None, 0, 100),
            span("build", Some(0), 10, 30),
            span("run", Some(0), 30, 90),
            span("inner", Some(2), 40, 50),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 60);
        assert_eq!(self_ns(&spans, 1), 20);
        // Grandchildren belong to their own parent, not to the root.
        assert_eq!(self_ns(&spans, 2), 60 - 10);
        assert_eq!(self_ns(&spans, 3), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("root", None, 100, 200),
            span("a", Some(0), 90, 140),  // clipped to 100..140
            span("b", Some(0), 120, 160), // overlaps a: adds 140..160
            span("c", Some(0), 190, 250), // clipped to 190..200
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 20 - 10);
    }

    #[test]
    fn self_allocations_exclude_children() {
        let mut spans = vec![span("outer", None, 0, 10), span("inner", Some(0), 2, 4)];
        spans[0].allocs = 5;
        spans[0].alloc_bytes = 500;
        spans[1].allocs = 2;
        spans[1].alloc_bytes = 64;
        let mut totals = BTreeMap::new();
        add_self_allocs(&mut totals, &spans);
        add_self_allocs(&mut totals, &spans);
        assert_eq!(totals["outer"], [6, 872]);
        assert_eq!(totals["inner"], [4, 128]);
    }

    #[test]
    fn fastest_self_keeps_each_operations_fastest_run() {
        let mut fastest = FastestSelf::default();
        // Operation 0 twice: the second run is faster in `inner` only.
        fastest.add(
            0,
            &[span("outer", None, 0, 100), span("inner", Some(0), 10, 60)],
        );
        fastest.add(
            0,
            &[span("outer", None, 0, 100), span("inner", Some(0), 10, 30)],
        );
        fastest.add(
            1,
            &[span("outer", None, 0, 40), span("inner", Some(0), 0, 40)],
        );
        assert_eq!(fastest.of("inner", 0), 20);
        // Self time: 100 - 50 in the first run, 100 - 20 in the second.
        assert_eq!(fastest.of("outer", 0), 50);
        assert_eq!(fastest.total_ns("inner"), 20 + 40);
        assert_eq!(fastest.per_op_us("outer"), (50.0 + 0.0) / 2.0 / 1e3);
        assert_eq!(fastest.per_op_us("missing"), 0.0);
    }

    #[test]
    fn recorder_nests_and_times_spans() {
        let mut rec = Recorder::new(Instant::now(), 7);
        rec.span("outer", |rec| {
            rec.span("inner", |_| std::hint::black_box(1))
        });
        let spans = rec.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans.iter().all(|s| s.op == 7));
    }
}
