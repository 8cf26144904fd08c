//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, a parent and the
//! id of the op it belongs to. Spans stay in memory until the run ends and
//! are then written once as JSON Lines. A layer's self time is its span's
//! duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

/// Op kind of the spans recorded while setting up a workload.
pub const SETUP_KIND: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `op` for the root span of an op.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or `NO_PARENT`.
    pub parent: u32,
    /// Index of the op this span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when on; when off, [`span`](Tracer::span) is a plain
/// call and [`op`](Tracer::op) only reads the clock around the op.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Per op: its kind and the index of its root span.
    ops: Vec<(u32, u32)>,
    /// Values observed at layer boundaries, e.g. resident megabytes.
    gauges: Vec<(&'static str, f64)>,
    /// Untraced latencies (kind, ns) taken beside the traced ops.
    untraced: Vec<(u32, u64)>,
}

impl Tracer {
    /// A tracer that records spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            ops: Vec::new(),
            gauges: Vec::new(),
            untraced: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.push(name);
        let r = f(self);
        self.pop(idx);
        r
    }

    fn push(&mut self, name: &'static str) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let op = self.ops.len().saturating_sub(1) as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(idx);
        idx
    }

    fn pop(&mut self, idx: u32) {
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        self.stack.pop();
    }

    /// Runs one op of kind `kind` and returns its result with its
    /// duration. When on, the op first runs once untraced, for the latency
    /// spans are compared with, and then again under a root span named
    /// `op`; so `f` must be safe to repeat. The untraced result is freed
    /// before the traced run, so both runs start from the same heap.
    pub fn op<R>(&mut self, kind: u32, mut f: impl FnMut(&mut Tracer) -> R) -> (R, Duration) {
        if self.on {
            self.on = false;
            let t0 = Instant::now();
            let r = f(self);
            self.note_untraced(kind, t0.elapsed());
            drop(r);
            self.on = true;
        }
        self.op_once(kind, f)
    }

    /// Like [`op`](Self::op), for an op that changes state and so runs
    /// once.
    pub fn op_once<R>(&mut self, kind: u32, f: impl FnOnce(&mut Tracer) -> R) -> (R, Duration) {
        if !self.on {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed());
        }
        self.ops.push((kind, self.spans.len() as u32));
        let idx = self.push("op");
        let r = f(self);
        self.pop(idx);
        let dur = self.spans[idx as usize].dur_ns();
        (r, Duration::from_nanos(dur))
    }

    /// Records the untraced latency of an op of kind `kind`.
    pub fn note_untraced(&mut self, kind: u32, dur: Duration) {
        self.untraced.push((kind, dur.as_nanos() as u64));
    }

    /// Median untraced latency per op kind, in milliseconds.
    pub fn untraced_medians_ms(&self, kinds: usize) -> Vec<Option<f64>> {
        let mut per_kind = vec![Vec::new(); kinds];
        for &(kind, ns) in &self.untraced {
            if let Some(v) = per_kind.get_mut(kind as usize) {
                v.push(ns as f64 / 1e6);
            }
        }
        per_kind
            .iter()
            .map(|v| (!v.is_empty()).then(|| crate::stats::median(v)))
            .collect()
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans and gauges as tab-separated lines, for a child process to
    /// hand its trace to the benchmark (see [`adopt`](Self::adopt)).
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{parent}",
                s.name, s.start_ns, s.end_ns
            );
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge\t{name}\t{v}");
        }
        out
    }

    /// Adds the spans and gauges of [`to_lines`](Self::to_lines) output
    /// under the current span, shifting their times by `offset_ns`. Lines
    /// of any other shape are ignored.
    pub fn adopt(&mut self, lines: &str, offset_ns: u64) {
        let base = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let op = self.ops.len().saturating_sub(1) as u32;
        for line in lines.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["span", name, start, end, p] => {
                    let (Ok(start), Ok(end)) = (start.parse::<u64>(), end.parse::<u64>()) else {
                        continue;
                    };
                    self.spans.push(Span {
                        name: intern(name),
                        start_ns: offset_ns + start,
                        end_ns: offset_ns + end,
                        parent: p.parse::<u32>().map_or(parent, |p| base + p),
                        op,
                    });
                }
                ["gauge", name, v] => {
                    if let Ok(v) = v.parse() {
                        self.gauges.push((intern(name), v));
                    }
                }
                _ => {}
            }
        }
    }

    /// Records a value observed at a layer boundary.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.gauges.push((name, value));
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Recorded gauges, in order.
    pub fn gauges(&self) -> &[(&'static str, f64)] {
        &self.gauges
    }

    /// Per op: its kind and the index of its root span.
    pub fn ops(&self) -> &[(u32, u32)] {
        &self.ops
    }

    /// Self time of every span, in nanoseconds.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<i64> = self.spans.iter().map(|s| s.dur_ns() as i64).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.dur_ns() as i64;
            }
        }
        own.into_iter().map(|v| v.max(0) as u64).collect()
    }

    /// Renders every span as one JSON object per line. `kind_label` names
    /// op kinds; root spans carry their op's kind.
    pub fn to_jsonl(&self, kind_label: impl Fn(u32) -> String) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\":{i},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
                s.op, s.name, s.start_ns, s.end_ns, own[i]
            );
            if s.name == "op" {
                let kind = self.ops[s.op as usize].0;
                let _ = write!(out, ",\"kind\":{}", json_string(&kind_label(kind)));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// A `'static` copy of a span name read back from a child process. The
/// few distinct names are kept for the life of the process.
fn intern(name: &str) -> &'static str {
    use std::sync::Mutex;
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES
        .lock()
        .expect("no thread panics while holding the name table");
    if let Some(n) = names.iter().find(|n| **n == name) {
        return n;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.push(leaked);
    leaked
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {}
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let ((), dur) = tr.op_once(3, |tr| {
            tr.span("a.outer", |tr| {
                spin(Duration::from_millis(2));
                tr.span("b.inner", |_| spin(Duration::from_millis(3)));
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert!(spans.iter().all(|s| s.op == 0));
        let own = tr.self_times();
        assert!(own[1] >= 2_000_000 && own[1] < spans[1].dur_ns());
        assert!(own[2] >= 3_000_000);
        assert!(dur.as_nanos() as u64 >= own[1] + own[2]);
        assert_eq!(tr.ops(), &[(3, 0)]);
        let jsonl = tr.to_jsonl(|k| format!("kind{k}"));
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl.lines().next().unwrap().contains("\"kind\":\"kind3\""));
    }

    #[test]
    fn adopted_child_spans_nest_under_the_current_op() {
        let mut child = Tracer::new(true);
        child.span("io.read_text", |tr| tr.span("log.validate", |_| ()));
        child.gauge("log.resident_mb", 1.5);
        let mut tr = Tracer::new(true);
        tr.op_once(0, |tr| tr.adopt(&child.to_lines(), 100));
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].name, spans[1].parent), ("io.read_text", 0));
        assert_eq!((spans[2].name, spans[2].parent), ("log.validate", 1));
        assert_eq!(spans[1].start_ns, 100 + child.spans()[0].start_ns);
        assert_eq!(tr.gauges(), &[("log.resident_mb", 1.5)]);
    }

    #[test]
    fn repeatable_ops_also_run_untraced() {
        let mut tr = Tracer::new(true);
        let mut runs = 0;
        let (v, _) = tr.op(1, |tr| {
            runs += 1;
            tr.span("a.b", |_| runs)
        });
        assert_eq!((v, runs), (2, 2));
        assert_eq!(tr.spans().len(), 2);
        let medians = tr.untraced_medians_ms(2);
        assert!(medians[0].is_none() && medians[1].is_some());
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let (v, _) = tr.op(0, |tr| tr.span("a.b", |_| 7));
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty() && tr.ops().is_empty());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
