//! Where the update path ends: an export delta goes onto the wire at
//! once, or — with [`SpeakerConfig::mrai`] set — into the member's staged
//! batch until its timer fires and [`Wire::flush`] packs it.

use super::super::{retime, Output, PeerState, SpeakerConfig, Timers};
use crate::attrs::PathAttributes;
use crate::message::{BgpMessage, Nlri, UpdateMessage};
use crate::provenance::{ProvenanceEvent, ProvenanceLog};
use peering_netsim::{Prefix, SimTime, TraceId};
use peering_telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::Arc;

/// One staged export delta awaiting an MRAI flush. Keyed by [`Nlri`] in
/// `Member::pending`, so a later delta for the same NLRI supersedes an
/// earlier one — packing never changes the peer's final state, only how
/// many UPDATE messages carry it.
#[derive(Debug, Clone)]
pub(super) enum PendingDelta {
    /// Withdraw the NLRI.
    Withdraw {
        /// Provenance cause of the withdrawal.
        trace: Option<TraceId>,
    },
    /// Announce the NLRI with these (already exported) attributes.
    Announce {
        /// Attributes as they will appear on the wire.
        attrs: Arc<PathAttributes>,
        /// Provenance id of the announcement.
        trace: Option<TraceId>,
    },
}

/// The one sink of the update path: the caller's `Vec<Output>`, the
/// counters an emitted UPDATE moves and the timer index an MRAI deadline
/// goes into, borrowed beside the peers so a member's [`PeerState`] can
/// be held mutably next to them.
pub(super) struct Wire<'a> {
    pub(super) cfg: &'a SpeakerConfig,
    pub(super) timers: &'a mut Timers,
    /// The provenance log, when one is attached.
    pub(super) prov: Option<&'a ProvenanceLog>,
    pub(super) telemetry: &'a Telemetry,
    pub(super) updates_sent: &'a mut u64,
    pub(super) now: SimTime,
    pub(super) out: &'a mut Vec<Output>,
}

impl Wire<'_> {
    /// Emit one export delta toward a member immediately, or stage it for
    /// the member's MRAI flush when packing is configured. Counters track
    /// emitted UPDATE messages, so they move to the flush in packed mode.
    pub(super) fn emit(&mut self, state: &mut PeerState, nlris: Vec<Nlri>, delta: PendingDelta) {
        let Some(interval) = self.cfg.mrai else {
            let update = match delta {
                PendingDelta::Withdraw { trace } => {
                    UpdateMessage::withdraw(nlris).with_trace(trace)
                }
                PendingDelta::Announce { attrs, trace } => {
                    UpdateMessage::announce(attrs, nlris).with_trace(trace)
                }
            };
            return self.send_update(state, update);
        };
        for nlri in nlris {
            state.sent.pending.insert(nlri, delta.clone());
        }
        // First staged delta arms the timer; later ones ride the
        // existing deadline so a busy peer still flushes.
        if state.sent.mrai_deadline == SimTime::MAX {
            state.sent.mrai_deadline = self.now + interval;
            retime(self.timers, state);
        }
    }

    /// Put one UPDATE on the wire toward a peer: the single place emitted
    /// UPDATEs are counted (session stats, `updates_sent`, telemetry),
    /// shared by the immediate and the MRAI-flush path.
    fn send_update(&mut self, state: &mut PeerState, update: UpdateMessage) {
        state.session.note_update_sent();
        *self.updates_sent += 1;
        self.telemetry.counter_inc("bgp.speaker.updates_out");
        self.out
            .push(Output::Send(state.cfg.id, BgpMessage::Update(update)));
    }

    /// Flush a peer's staged export deltas as packed UPDATEs: withdrawals
    /// grouped by provenance trace, announcements grouped by (attribute
    /// allocation, trace), each group one multi-NLRI message. Iteration
    /// is over a `BTreeMap` keyed by [`Nlri`] and group order is
    /// first-seen, so the packing is deterministic. Send-side provenance
    /// ([`ProvenanceEvent::WithdrawSent`]) is recorded here, at `now`,
    /// because this is when the packed UPDATEs actually hit the wire —
    /// a staged withdraw superseded before the flush is never recorded.
    pub(super) fn flush(&mut self, state: &mut PeerState) {
        state.sent.mrai_deadline = SimTime::MAX;
        retime(self.timers, state);
        if state.sent.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.sent.pending);
        let (id, to_asn) = (state.cfg.id, state.cfg.asn);
        let mut withdraw_groups: Vec<(Option<TraceId>, Vec<Nlri>)> = Vec::new();
        let mut announce_groups: Vec<(Arc<PathAttributes>, Option<TraceId>, Vec<Nlri>)> =
            Vec::new();
        // Indexes are lookup-only (never iterated), so the HashMap does
        // not enter any ordered output; group order comes from the Vecs.
        let mut wd_index: HashMap<Option<u64>, usize> = HashMap::new();
        let mut ann_index: HashMap<(usize, Option<u64>), usize> = HashMap::new();
        for (nlri, delta) in pending {
            match delta {
                PendingDelta::Withdraw { trace } => {
                    let slot = *wd_index.entry(trace.map(|t| t.0)).or_insert_with(|| {
                        withdraw_groups.push((trace, Vec::new()));
                        withdraw_groups.len() - 1
                    });
                    withdraw_groups[slot].1.push(nlri);
                }
                PendingDelta::Announce { attrs, trace } => {
                    let key = (Arc::as_ptr(&attrs) as usize, trace.map(|t| t.0));
                    let slot = *ann_index.entry(key).or_insert_with(|| {
                        announce_groups.push((attrs, trace, Vec::new()));
                        announce_groups.len() - 1
                    });
                    announce_groups[slot].2.push(nlri);
                }
            }
        }
        for (trace, nlris) in withdraw_groups {
            if let Some(prov) = self.prov {
                // One record per distinct prefix, mirroring the unpacked
                // path's per-prefix granularity (ADD-PATH can put several
                // NLRIs of one prefix in a group).
                let mut last: Option<Prefix> = None;
                for nlri in &nlris {
                    if last == Some(nlri.prefix) {
                        continue;
                    }
                    last = Some(nlri.prefix);
                    prov.record(
                        self.now,
                        self.cfg.asn,
                        ProvenanceEvent::WithdrawSent {
                            to_peer: id,
                            to_asn,
                            prefix: nlri.prefix,
                            trace,
                        },
                    );
                }
            }
            self.send_update(state, UpdateMessage::withdraw(nlris).with_trace(trace));
        }
        for (attrs, trace, nlris) in announce_groups {
            let update = UpdateMessage::announce(attrs, nlris).with_trace(trace);
            self.send_update(state, update);
        }
    }
}
