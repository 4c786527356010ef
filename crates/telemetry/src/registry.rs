//! The metric registry and the [`Telemetry`] handle instrumented code holds.

use crate::event::{EventRecord, FieldValue, SpanRecord};
use crate::histogram::Histogram;
use crate::snapshot::Snapshot;
use peering_netsim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default cap on the stored event/span streams. Counters and histograms
/// are fixed-size per metric; the trace streams are the only unbounded
/// state, so they are bounded. Overflow is counted, never silent.
pub const DEFAULT_MAX_EVENTS: usize = 4096;

/// Backing store for one telemetry domain (one testbed, one emulation).
///
/// All metric families are `BTreeMap`-keyed so a [`Snapshot`] is sorted by
/// construction, independent of insertion order.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    events: Vec<EventRecord>,
    spans: Vec<SpanRecord>,
    dropped_events: u64,
    max_events: usize,
}

impl Registry {
    /// Fresh registry with the default event-stream bound.
    pub fn new() -> Self {
        Registry {
            max_events: DEFAULT_MAX_EVENTS,
            ..Registry::default()
        }
    }

    fn counter_add(&mut self, name: &str, delta: u64) {
        let c = self.counters.entry(name.to_string()).or_insert(0);
        *c = c.saturating_add(delta);
    }

    fn gauge_set(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_string(), value);
    }

    fn gauge_max(&mut self, name: &str, value: i64) {
        let g = self.gauges.entry(name.to_string()).or_insert(i64::MIN);
        *g = (*g).max(value);
    }

    fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    fn push_event(&mut self, record: EventRecord) {
        if self.events.len() >= self.max_events {
            self.dropped_events += 1;
        } else {
            self.events.push(record);
        }
    }

    fn push_span(&mut self, record: SpanRecord) {
        if self.spans.len() >= self.max_events {
            self.dropped_events += 1;
        } else {
            self.spans.push(record);
        }
    }

    /// Freeze the registry into its serializable form.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            events: self.events.clone(),
            spans: self.spans.clone(),
            dropped_events: self.dropped_events,
        }
    }
}

/// Cheap, cloneable handle to a shared [`Registry`] — or a no-op.
///
/// Library crates hold one of these and instrument unconditionally;
/// whether anything is recorded is the *owner's* decision (the testbed,
/// the bench harness). [`Telemetry::disabled`] is the default everywhere
/// so un-instrumented use pays one branch per call.
///
/// Handles are plumbed explicitly — never stored in globals — so the
/// registry's contents are a deterministic function of the (seeded) run.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Registry>>>,
}

impl Telemetry {
    /// A live handle backed by a fresh registry.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Registry::new()))),
        }
    }

    /// The no-op handle: every record call is a cheap branch.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `delta` to the named counter (saturating).
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(r) = &self.inner {
            r.borrow_mut().counter_add(name, delta);
        }
    }

    /// Increment the named counter by one.
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Set the named gauge to `value`.
    pub fn gauge_set(&self, name: &str, value: i64) {
        if let Some(r) = &self.inner {
            r.borrow_mut().gauge_set(name, value);
        }
    }

    /// Raise the named gauge to `value` if it is below it (high-water mark).
    pub fn gauge_max(&self, name: &str, value: i64) {
        if let Some(r) = &self.inner {
            r.borrow_mut().gauge_max(name, value);
        }
    }

    /// Record one observation into the named log-2 histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(r) = &self.inner {
            r.borrow_mut().observe(name, value);
        }
    }

    /// Record a sim-duration (in microseconds) into the named histogram.
    pub fn observe_duration(&self, name: &str, d: SimDuration) {
        self.observe(name, d.as_micros());
    }

    /// Append a structured trace event at sim-time `now`.
    pub fn event(&self, now: SimTime, name: &str, fields: &[(&str, FieldValue)]) {
        if let Some(r) = &self.inner {
            r.borrow_mut().push_event(EventRecord {
                time_us: now.as_micros(),
                name: name.to_string(),
                fields: fields
                    .iter()
                    .map(|(k, v)| ((*k).to_string(), v.clone()))
                    .collect(),
            });
        }
    }

    /// Open a timed region starting at `start`. Close it with
    /// [`Span::end`]; an unclosed span records nothing.
    pub fn span(&self, name: &str, start: SimTime) -> Span {
        Span {
            telemetry: self.clone(),
            name: name.to_string(),
            start,
        }
    }

    /// Freeze the current registry state. The disabled handle yields an
    /// empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(r) => r.borrow().snapshot(),
            None => Snapshot::default(),
        }
    }
}

/// An open timed region; see [`Telemetry::span`].
#[derive(Debug)]
pub struct Span {
    telemetry: Telemetry,
    name: String,
    start: SimTime,
}

impl Span {
    /// Close the span at sim-time `now`: records a [`SpanRecord`] and an
    /// observation of the duration into the histogram of the same name.
    pub fn end(self, now: SimTime) {
        if let Some(r) = &self.telemetry.inner {
            let start_us = self.start.as_micros();
            let end_us = now.as_micros().max(start_us);
            let mut reg = r.borrow_mut();
            reg.observe(&self.name, end_us - start_us);
            reg.push_span(SpanRecord {
                name: self.name,
                start_us,
                end_us,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter_inc("a.b.c");
        t.gauge_set("a.b.g", 5);
        t.observe("a.b.h", 9);
        t.event(SimTime::from_micros(1), "a.b.e", &[]);
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::new();
        let u = t.clone();
        t.counter_inc("x.y.n");
        u.counter_add("x.y.n", 2);
        assert_eq!(t.snapshot().counter("x.y.n"), 3);
    }

    #[test]
    fn gauge_set_and_high_water() {
        let t = Telemetry::new();
        t.gauge_set("q.depth", 4);
        t.gauge_set("q.depth", 2);
        t.gauge_max("q.peak", 2);
        t.gauge_max("q.peak", 7);
        t.gauge_max("q.peak", 3);
        let s = t.snapshot();
        assert_eq!(s.gauges.get("q.depth"), Some(&2));
        assert_eq!(s.gauges.get("q.peak"), Some(&7));
    }

    #[test]
    fn span_records_duration_histogram_and_trace() {
        let t = Telemetry::new();
        let span = t.span("bgp.session.convergence_us", SimTime::from_micros(100));
        span.end(SimTime::from_micros(350));
        let s = t.snapshot();
        assert_eq!(s.spans.len(), 1);
        assert_eq!(s.spans[0].duration_us(), 250);
        let h = s.histograms.get("bgp.session.convergence_us").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 250);
    }

    #[test]
    fn event_stream_is_bounded_and_counts_overflow() {
        let t = Telemetry::new();
        for i in 0..(DEFAULT_MAX_EVENTS as u64 + 10) {
            t.event(SimTime::from_micros(i), "e.v.t", &[("i", i.into())]);
        }
        let s = t.snapshot();
        assert_eq!(s.events.len(), DEFAULT_MAX_EVENTS);
        assert_eq!(s.dropped_events, 10);
    }

    #[test]
    fn counters_saturate() {
        let t = Telemetry::new();
        t.counter_add("c", u64::MAX);
        t.counter_add("c", 5);
        assert_eq!(t.snapshot().counter("c"), u64::MAX);
    }
}
