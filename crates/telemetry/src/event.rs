//! Structured trace events and spans.
//!
//! Events are point-in-time moments ("fault applied", "session
//! established") stamped with the caller's [`SimTime`](crate::SimTime)
//! and carrying a small list of typed fields. Spans are timed regions with
//! a begin and an end. Both live in bounded insertion-ordered streams
//! inside the registry — the order of calls *is* the order in the
//! snapshot, which is what makes same-seed runs byte-identical.

use serde::{Deserialize, Serialize};

/// A typed field value attached to an event.
///
/// Deliberately integer/string only: floating-point field values would put
/// formatting (and NaN) questions in the determinism-critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FieldValue {
    /// Unsigned integer payload.
    U64(u64),
    /// Signed integer payload.
    I64(i64),
    /// Text payload.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One point-in-time trace event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Sim-time of the event, in microseconds since the epoch of the run.
    pub time_us: u64,
    /// Event name, `<crate>.<subsystem>.<name>` convention.
    pub name: String,
    /// Ordered `(key, value)` fields.
    pub fields: Vec<(String, FieldValue)>,
}

/// One completed timed region.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Span name, `<crate>.<subsystem>.<name>` convention.
    pub name: String,
    /// Sim-time the span was opened, microseconds.
    pub start_us: u64,
    /// Sim-time the span was closed, microseconds (>= `start_us`).
    pub end_us: u64,
}

impl SpanRecord {
    /// Duration of the region in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3u64), FieldValue::U64(3));
        assert_eq!(FieldValue::from(4usize), FieldValue::U64(4));
        assert_eq!(FieldValue::from(-2i64), FieldValue::I64(-2));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }

    #[test]
    fn span_duration_saturates() {
        let s = SpanRecord {
            name: "t".into(),
            start_us: 10,
            end_us: 25,
        };
        assert_eq!(s.duration_us(), 15);
        let backwards = SpanRecord {
            name: "t".into(),
            start_us: 25,
            end_us: 10,
        };
        assert_eq!(backwards.duration_us(), 0);
    }

    #[test]
    fn event_serializes_stably() {
        let e = EventRecord {
            time_us: 7,
            name: "test.unit.fired".into(),
            fields: vec![("n".into(), FieldValue::U64(1))],
        };
        let json = serde_json::to_string(&e).expect("serialize");
        assert!(json.contains("\"test.unit.fired\""), "{json}");
    }
}
