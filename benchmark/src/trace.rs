//! In-memory spans around every call the benchmark makes into a layer.
//!
//! The tracer lives in the benchmark, outside the crates it measures:
//! a span opens before a call into a layer and closes after it. Op
//! spans ([`Tracer::op`]) always read the clock, because the per-op
//! latency samples come from them; layer spans ([`Tracer::layer`]) read
//! it only while tracing is on, so an untraced run pays nothing for
//! them. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the per-operation root span.
pub const OP: &str = "op";

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer (or [`OP`]) the span covers.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the span belongs to; spans of one op share it.
    pub op_id: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An op span that has been opened and not yet closed.
#[derive(Debug)]
pub struct OpenOp {
    start: Instant,
    idx: Option<u32>,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Index of the op span currently open, the parent of layer spans.
    current: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with recording off.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            current: None,
        }
    }

    /// Turn recording on or off (between repeats, never inside an op).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name times of the spans recorded since the span list was
    /// `mark` long (a repeat notes the length when it starts).
    pub fn times_since(&self, mark: usize) -> BTreeMap<&'static str, LayerTime> {
        self_times(&self.spans[mark..], mark)
    }

    fn since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start: Instant, op_id: u64) -> u32 {
        let idx = self.spans.len() as u32;
        let start_ns = self.since_epoch(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.current,
            op_id,
        });
        idx
    }

    /// Open the root span of operation `op_id`. Always reads the clock.
    pub fn op(&mut self, op_id: u64) -> OpenOp {
        let start = Instant::now();
        let idx = self.enabled.then(|| self.push(OP, start, op_id));
        if idx.is_some() {
            self.current = idx;
        }
        OpenOp { start, idx }
    }

    /// Close an op span and return its duration in nanoseconds.
    pub fn end_op(&mut self, open: OpenOp) -> u64 {
        let end = Instant::now();
        if let Some(idx) = open.idx {
            self.spans[idx as usize].end_ns = self.since_epoch(end);
            self.current = None;
        }
        end.duration_since(open.start).as_nanos() as u64
    }

    /// Run `f` inside a span named after the layer it calls into. With
    /// recording off this is a plain call.
    pub fn layer<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = self.push(name, Instant::now(), op_id);
        let out = f();
        self.spans[idx as usize].end_ns = self.since_epoch(Instant::now());
        out
    }

    /// The spans as a JSON document, for `results/trace_<workload>.json`.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 80);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their child spans cover.
    pub self_ns: u64,
}

/// Per-name totals and self times. A span's self time is its duration
/// minus the durations of the spans that name it as parent (children of
/// one span never overlap: the benchmark is single-threaded). `spans`
/// must hold every parent its spans name; `base` is the tracer index of
/// `spans[0]`, so one repeat's tail of the span list can be summed alone.
pub fn self_times(spans: &[Span], base: usize) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize - base] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

/// Share of op time no layer span covers, in permille: the benchmark's
/// own loop, sample recording and anything it forgot to wrap.
pub fn unattributed_permille(times: &BTreeMap<&'static str, LayerTime>) -> f64 {
    match times.get(OP) {
        Some(op) if op.total_ns > 0 => op.self_ns as f64 * 1000.0 / op.total_ns as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(OP, 0, 100, None),
            span("wire.decode", 10, 30, Some(0)),
            span("speaker.on_message", 30, 90, Some(0)),
            span(OP, 100, 150, None),
            span("wire.decode", 105, 145, Some(3)),
        ];
        let t = self_times(&spans, 0);
        assert_eq!(
            t[OP],
            LayerTime {
                count: 2,
                total_ns: 150,
                self_ns: 30
            }
        );
        assert_eq!(
            t["wire.decode"],
            LayerTime {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(t["speaker.on_message"].self_ns, 60);
        // 30 of 150 op nanoseconds are outside every layer span.
        assert_eq!(unattributed_permille(&t), 200.0);
    }

    #[test]
    fn children_longer_than_parent_saturate_at_zero() {
        let spans = vec![span(OP, 0, 10, None), span("x", 0, 12, Some(0))];
        assert_eq!(self_times(&spans, 0)[OP].self_ns, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times_ops() {
        let mut t = Tracer::new();
        let open = t.op(7);
        let v = t.layer("wire.decode", 7, || 41 + 1);
        let _ns = t.end_op(open);
        assert_eq!(v, 42);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_layers_under_their_op() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let open = t.op(3);
        t.layer("wire.decode", 3, || ());
        t.layer("wire.encode", 3, || ());
        let ns = t.end_op(open);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, OP);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op_id == 3));
        assert!(spans[0].duration_ns() <= ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(t.to_json("w", 1).contains("\"parent\":0"));
        // A later repeat's spans are summed on their own.
        let mark = t.spans().len();
        let open = t.op(4);
        t.layer("wire.decode", 4, || ());
        t.end_op(open);
        let times = t.times_since(mark);
        assert_eq!((times[OP].count, times["wire.decode"].count), (1, 1));
    }
}
