//! The member-level half of the export engine: what a group's staged
//! export means for one member, diffed against what that member holds.

use super::super::PeerState;
use super::mrai::{PendingDelta, Wire};
use super::stage::StagedEntry;
use crate::attrs::{Community, PathAttributes};
use crate::message::Nlri;
use crate::provenance::{ExportVerdict, ProvenanceEvent};
use crate::rib::{PeerId, Route};
use peering_netsim::{Asn, Prefix, TraceId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Low 16 bits of an ASN — the encoding used in `0:<asn>` operator
/// communities (route-server member blocks, RFC 7947 style).
fn as16(asn: Asn) -> u16 {
    (asn.0 & 0xFFFF) as u16
}

/// A staged entry as one member sees it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum MemberPath {
    /// Not for this member (group-level reject or per-member delta).
    Withheld,
    /// Desired and already held with equal attributes.
    Unchanged,
    /// Desired and new or changed: announce it.
    Announce,
}

/// Member-dependent export filter over a staged entry. Verdict
/// precedence exactly mirrors the historical per-peer pipeline: split
/// horizon, then the group-level reflection/community rejects, then the
/// member's sender-side loop check (on the *source* path), then
/// group-level policy rejection, then route-server member blocks. `Ok`
/// borrows the staged route shared by the whole group.
fn member_delta(
    rs_member_blocks: bool,
    member: PeerId,
    member_asn: Asn,
    entry: &StagedEntry,
) -> Result<&Route, ExportVerdict> {
    // Split horizon: never back to the peer it came from.
    if entry.source_peer == member {
        return Err(ExportVerdict::SplitHorizon);
    }
    if let Err(v) = entry.outcome {
        if matches!(
            v,
            ExportVerdict::IbgpNoReflect | ExportVerdict::NoAdvertise | ExportVerdict::NoExport
        ) {
            return Err(v);
        }
    }
    // Sender-side loop check.
    if entry.source_attrs.as_path.contains(member_asn) {
        return Err(ExportVerdict::AsPathLoop);
    }
    match &entry.outcome {
        Err(v) => Err(*v),
        Ok(route) => {
            // RFC 7947 member blocks: community `0:<member-as16>` on
            // the source route keeps it away from that member. The
            // check runs on the source attributes (the shared policy
            // strips operator communities on the way out).
            if rs_member_blocks
                && entry
                    .source_attrs
                    .has_community(Community::new(0, as16(member_asn)))
            {
                return Err(ExportVerdict::PolicyRejected);
            }
            Ok(route)
        }
    }
}

/// The member diff — the only place desired and advertised state meet.
/// Desired is the group's staged export of `prefix` filtered by the
/// member's own delta (split horizon, sender-side loop, RS member block);
/// `sent` is what the member's view is drawn from, less the paths its
/// mask withholds. Exactly the difference is emitted (or MRAI-staged):
/// one withdrawal for the paths no longer desired, one announcement per
/// new or changed path. The member's mask becomes the staged paths
/// withheld from it.
///
/// The callers differ only in their arguments. A routing change
/// (`Speaker::export_prefix`) diffs against the group's live base,
/// records rejects, and tags withdrawals with the causing trace. The
/// initial table sync diffs against nothing. A group reseat diffs
/// against the pre-move snapshot and records only what it emits.
#[allow(clippy::too_many_arguments)]
pub(super) fn export_to_member(
    wire: &mut Wire,
    verdicts: &mut Vec<MemberPath>,
    state: &mut PeerState,
    prefix: Prefix,
    staged: &[StagedEntry],
    sent: &[(u32, Arc<PathAttributes>)],
    record_rejects: bool,
    cause: Option<TraceId>,
) {
    let (id, member_asn) = (state.cfg.id, state.cfg.asn);
    let add_path = state.session.negotiated().is_some_and(|n| n.add_path_tx);
    let nlri = |path_id: u32| {
        if add_path {
            Nlri::with_path_id(prefix, path_id)
        } else {
            Nlri::plain(prefix)
        }
    };
    let (prov, now, local_asn) = (wire.prov, wire.now, wire.cfg.asn);
    let record_export = |trace, attrs: &PathAttributes, verdict| {
        if let Some(prov) = prov {
            prov.record(
                now,
                local_asn,
                ProvenanceEvent::Exported {
                    to_peer: id,
                    to_asn: member_asn,
                    prefix,
                    trace,
                    as_path: attrs.as_path.asns().collect(),
                    verdict,
                },
            );
        }
    };
    let mask = state.sent.mask.get(&prefix);
    let held = sent
        .iter()
        .filter(|(pid, _)| !mask.is_some_and(|withheld| withheld.contains(pid)));

    let mut masked: BTreeSet<u32> = BTreeSet::new();
    verdicts.clear();
    for entry in staged {
        let verdict = match member_delta(wire.cfg.rs_member_blocks, id, member_asn, entry) {
            Ok(route) => {
                let unchanged = held.clone().any(|(pid, attrs)| {
                    *pid == route.path_id
                        && (Arc::ptr_eq(attrs, &route.attrs) || **attrs == *route.attrs)
                });
                if unchanged {
                    MemberPath::Unchanged
                } else {
                    MemberPath::Announce
                }
            }
            Err(verdict) => {
                if let Some(route) = entry.exported() {
                    masked.insert(route.path_id);
                }
                if record_rejects {
                    record_export(entry.source_trace, &entry.source_attrs, verdict);
                }
                MemberPath::Withheld
            }
        };
        verdicts.push(verdict);
    }
    let desired = || {
        let wanted = staged.iter().zip(verdicts.iter());
        wanted.filter_map(|(entry, verdict)| match verdict {
            MemberPath::Withheld => None,
            MemberPath::Unchanged | MemberPath::Announce => entry.exported(),
        })
    };
    debug_assert_eq!(
        desired().map(|r| r.path_id).collect::<BTreeSet<_>>().len(),
        desired().count(),
        "duplicate export path ids for one member"
    );
    // Withdraw paths no longer desired.
    let withdrawals: Vec<Nlri> = held
        .filter(|(pid, _)| !desired().any(|r| r.path_id == *pid))
        .map(|(pid, _)| nlri(*pid))
        .collect();
    if masked.is_empty() {
        state.sent.mask.remove(&prefix);
    } else {
        state.sent.mask.insert(prefix, masked);
    }

    if !withdrawals.is_empty() {
        // `WithdrawSent` means the withdrawal hit the wire. Unpacked,
        // that is right here; with MRAI packing the delta is only
        // *staged* (and may be superseded by a later announce or
        // dropped by a session reset before the flush), so the
        // record is made in `Wire::flush` at actual emission time.
        if let (None, Some(prov)) = (wire.cfg.mrai, prov) {
            prov.record(
                now,
                local_asn,
                ProvenanceEvent::WithdrawSent {
                    to_peer: id,
                    to_asn: member_asn,
                    prefix,
                    trace: cause,
                },
            );
        }
        wire.emit(state, withdrawals, PendingDelta::Withdraw { trace: cause });
    }
    // Announce new or changed paths.
    for (i, entry) in staged.iter().enumerate() {
        let (MemberPath::Announce, Some(route)) = (verdicts[i], entry.exported()) else {
            continue;
        };
        record_export(route.trace, &route.attrs, ExportVerdict::Exported);
        let delta = PendingDelta::Announce {
            attrs: Arc::clone(&route.attrs),
            trace: route.trace,
        };
        wire.emit(state, vec![nlri(route.path_id)], delta);
    }
}
