//! Causal update provenance: the side-channel record of *why* routes moved.
//!
//! Every originated announcement or withdrawal is minted a
//! [`peering_netsim::TraceId`] at its origin speaker. The id rides
//! along — out of band of the wire encoding — through Adj-RIB-In, the
//! decision process, and Adj-RIB-Out at every hop, so a collector can later
//! reconstruct the full propagation DAG of one routing change: which AS
//! heard it from which neighbor at what sim-time, with what AS path, and
//! whether each hop re-exported or filtered it (and why).
//!
//! Recording is strictly observational. A [`ProvenanceLog`] is a cheap
//! cloneable handle (like `peering_telemetry::Telemetry`): disabled by
//! default, attached per speaker with `Speaker::set_provenance`. Trace ids
//! themselves are minted deterministically whether or not a log is
//! attached, so instrumented and bare runs make bit-identical decisions —
//! the chaos digests prove it.

use crate::message::UpdateMessage;
use crate::rib::PeerId;
use peering_netsim::{Asn, Prefix, SimTime, TraceId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// What happened to an announced NLRI on import at one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImportVerdict {
    /// Installed in the Adj-RIB-In.
    Accepted,
    /// Receiver-side loop detection: our ASN already in the path.
    AsPathLoop,
    /// Import policy rejected it (implicit withdraw of prior paths).
    PolicyRejected,
    /// Installed, but flap damping suppressed it from candidacy.
    Damped,
}

/// What happened to a route on export toward one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExportVerdict {
    /// Announced to the peer.
    Exported,
    /// Split horizon: never back to the peer it came from.
    SplitHorizon,
    /// iBGP-learned route toward iBGP peer without route reflection.
    IbgpNoReflect,
    /// NO_ADVERTISE community.
    NoAdvertise,
    /// NO_EXPORT community at an eBGP boundary.
    NoExport,
    /// Sender-side loop check: the peer's ASN already in the path.
    AsPathLoop,
    /// Export policy rejected it.
    PolicyRejected,
}

impl fmt::Display for ExportVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExportVerdict::Exported => "exported",
            ExportVerdict::SplitHorizon => "split-horizon",
            ExportVerdict::IbgpNoReflect => "ibgp-no-reflect",
            ExportVerdict::NoAdvertise => "no-advertise",
            ExportVerdict::NoExport => "no-export",
            ExportVerdict::AsPathLoop => "as-path-loop",
            ExportVerdict::PolicyRejected => "policy-reject",
        };
        f.write_str(s)
    }
}

impl fmt::Display for ImportVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ImportVerdict::Accepted => "accepted",
            ImportVerdict::AsPathLoop => "as-path-loop",
            ImportVerdict::PolicyRejected => "policy-reject",
            ImportVerdict::Damped => "damped",
        };
        f.write_str(s)
    }
}

/// One observed moment in a routing change's life at one speaker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProvenanceEvent {
    /// A local origination (announcement or withdrawal) minted `trace`.
    Originated {
        /// The originated prefix.
        prefix: Prefix,
        /// The freshly minted id.
        trace: TraceId,
        /// True for a withdrawal of a previously originated prefix.
        withdraw: bool,
    },
    /// A full UPDATE arrived from a peer (the vantage-point feed record).
    Feed {
        /// Sending peer's local id.
        from_peer: PeerId,
        /// Sending peer's ASN.
        from_asn: Asn,
        /// The message as received.
        update: UpdateMessage,
    },
    /// One announced NLRI passed through import processing.
    Imported {
        /// Sending peer's local id.
        from_peer: PeerId,
        /// Sending peer's ASN.
        from_asn: Asn,
        /// The announced prefix.
        prefix: Prefix,
        /// Provenance id carried by the update, if any.
        trace: Option<TraceId>,
        /// AS path as heard at this hop.
        as_path: Vec<Asn>,
        /// What import did with it.
        verdict: ImportVerdict,
    },
    /// A withdrawal for `prefix` arrived from a peer.
    WithdrawReceived {
        /// Sending peer's local id.
        from_peer: PeerId,
        /// Sending peer's ASN.
        from_asn: Asn,
        /// The withdrawn prefix.
        prefix: Prefix,
        /// Provenance id carried by the update, if any.
        trace: Option<TraceId>,
    },
    /// A route was evaluated for export toward a peer.
    Exported {
        /// Receiving peer's local id.
        to_peer: PeerId,
        /// Receiving peer's ASN.
        to_asn: Asn,
        /// The exported prefix.
        prefix: Prefix,
        /// Provenance id of the route being exported, if any.
        trace: Option<TraceId>,
        /// AS path as sent (post export rewrite) or as evaluated when
        /// filtered.
        as_path: Vec<Asn>,
        /// Exported, or why not.
        verdict: ExportVerdict,
    },
    /// A withdrawal for `prefix` was sent to a peer.
    WithdrawSent {
        /// Receiving peer's local id.
        to_peer: PeerId,
        /// Receiving peer's ASN.
        to_asn: Asn,
        /// The withdrawn prefix.
        prefix: Prefix,
        /// Provenance id of the change that removed the paths, if known.
        trace: Option<TraceId>,
    },
}

/// A [`ProvenanceEvent`] stamped with where and when it was observed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Sim-time at the observing speaker (delivery time for imports).
    pub time: SimTime,
    /// ASN of the observing speaker.
    pub node_asn: Asn,
    /// What was observed.
    pub event: ProvenanceEvent,
}

/// Default bound on retained records; beyond it new records are dropped
/// (and counted), keeping instrumented chaos runs memory-safe.
pub const DEFAULT_MAX_RECORDS: usize = 1 << 18;

struct LogInner {
    records: Vec<ProvenanceRecord>,
    capacity: usize,
    dropped: u64,
}

/// A cheap cloneable handle onto a shared provenance record stream.
///
/// The default handle is disabled and records nothing, so library code can
/// call [`record`](Self::record) unconditionally at near-zero cost. Clones
/// share one underlying stream: attach one handle to every speaker in an
/// emulation and the collector reads a single merged, delivery-ordered
/// record sequence.
#[derive(Clone, Default)]
pub struct ProvenanceLog {
    inner: Option<Rc<RefCell<LogInner>>>,
}

impl ProvenanceLog {
    /// An enabled log with the default record bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_MAX_RECORDS)
    }

    /// An enabled log retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        ProvenanceLog {
            inner: Some(Rc::new(RefCell::new(LogInner {
                records: Vec::new(),
                capacity,
                dropped: 0,
            }))),
        }
    }

    /// The disabled handle (records nothing).
    pub fn disabled() -> Self {
        ProvenanceLog { inner: None }
    }

    /// True if records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Append one record (no-op when disabled; counted-drop at capacity).
    pub fn record(&self, time: SimTime, node_asn: Asn, event: ProvenanceEvent) {
        if let Some(inner) = &self.inner {
            let mut l = inner.borrow_mut();
            if l.records.len() >= l.capacity {
                l.dropped = l.dropped.saturating_add(1);
                return;
            }
            l.records.push(ProvenanceRecord {
                time,
                node_asn,
                event,
            });
        }
    }

    /// Clone out every retained record, in recording order.
    pub fn records(&self) -> Vec<ProvenanceRecord> {
        match &self.inner {
            Some(inner) => inner.borrow().records.clone(),
            None => Vec::new(),
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().records.len())
    }

    /// True if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped at the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }
}

impl fmt::Debug for ProvenanceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProvenanceLog")
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(prefix: Prefix, trace: TraceId) -> ProvenanceEvent {
        ProvenanceEvent::Originated {
            prefix,
            trace,
            withdraw: false,
        }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let log = ProvenanceLog::disabled();
        assert!(!log.is_enabled());
        log.record(
            SimTime::ZERO,
            Asn(65001),
            rec(Prefix::v4(10, 0, 0, 0, 24), TraceId::new(65001, 0)),
        );
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn clones_share_one_stream() {
        let a = ProvenanceLog::new();
        let b = a.clone();
        a.record(
            SimTime::ZERO,
            Asn(65001),
            rec(Prefix::v4(10, 0, 0, 0, 24), TraceId::new(65001, 0)),
        );
        b.record(
            SimTime::from_secs(1),
            Asn(65002),
            rec(Prefix::v4(10, 1, 0, 0, 24), TraceId::new(65002, 0)),
        );
        assert_eq!(a.len(), 2);
        let recs = b.records();
        assert_eq!(recs[0].node_asn, Asn(65001));
        assert_eq!(recs[1].time, SimTime::from_secs(1));
    }

    #[test]
    fn capacity_bound_drops_and_counts() {
        let log = ProvenanceLog::with_capacity(2);
        for i in 0..5u32 {
            log.record(
                SimTime::ZERO,
                Asn(65001),
                rec(Prefix::v4(10, 0, 0, 0, 24), TraceId::new(65001, i)),
            );
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    #[test]
    fn verdicts_render() {
        assert_eq!(ExportVerdict::SplitHorizon.to_string(), "split-horizon");
        assert_eq!(ExportVerdict::Exported.to_string(), "exported");
        assert_eq!(ImportVerdict::Damped.to_string(), "damped");
        assert_eq!(ImportVerdict::Accepted.to_string(), "accepted");
    }
}
