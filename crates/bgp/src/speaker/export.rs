//! The export side of the Speaker: what every peer has been sent, and
//! the engine that keeps it in line with the routing tables.
//!
//! This module and its child [`mrai`] own the export peer-groups with
//! their shared Adj-RIB-Out bases, the engine's scratch, and each peer's
//! [`Member`] state (group, mask, sync flag, staged MRAI batch). The
//! fields are private here, so the rest of the Speaker reaches them only
//! through the entry points: [`Export::join`] / [`Export::leave`] and the
//! reseat behind [`Input::SetPeerExport`](super::Input::SetPeerExport)
//! (membership), [`Export::forget`] (the session is gone),
//! [`Speaker::full_table_to`] (table sync), [`Speaker::export_prefix`] (a
//! routing change) and [`Speaker::flush_mrai`]. The rule they keep between them: a group's
//! base holds exactly what its *synced* members have been sent.

mod diff;
mod mrai;
mod stage;

use super::{
    AdvertiseMode, ExportGroupKey, ExportGrouping, Output, PeerConfig, Peers, Speaker,
    SpeakerConfig,
};
use crate::mem::{rib_memory, BTREE_ENTRY_OVERHEAD};
use crate::message::{BgpMessage, Nlri, UpdateMessage};
use crate::policy::Policy;
use crate::rib::{AdjRibOut, PeerId, Route};
use diff::{export_to_member, MemberPath};
use mrai::{PendingDelta, Wire};
use peering_netsim::{Fnv1a, Prefix, SimTime, TraceId};
use stage::{base_routes, Stager, Staging};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::Arc;

/// The export-relevant slice of a peer's configuration: two peers share
/// a staged export computation (and a COW Adj-RIB-Out base) exactly when
/// these match. Equality is verified structurally on every group join —
/// the hash only picks the slot, it never decides sharing by itself.
#[derive(Debug, Clone, PartialEq)]
struct GroupFingerprint {
    export: Policy,
    advertise: AdvertiseMode,
    /// Session class: iBGP (peer ASN == ours) vs eBGP changes the export
    /// transforms and reflection rules.
    ibgp: bool,
    rr_client: bool,
}

impl GroupFingerprint {
    fn of(cfg: &SpeakerConfig, peer: &PeerConfig) -> Self {
        GroupFingerprint {
            export: peer.export.clone(),
            advertise: peer.advertise,
            ibgp: peer.asn == cfg.asn,
            rr_client: peer.rr_client,
        }
    }

    /// FNV-1a over the fingerprint's canonical debug form: deterministic
    /// across runs and platforms. The form is streamed into the hash, not
    /// built as a string first.
    fn hash(&self) -> u64 {
        let mut h = HashWriter(Fnv1a::legacy());
        // Writing into a hash cannot fail, and `Debug` of these fields
        // never errors on its own.
        let _ = write!(h, "{self:?}");
        h.0.finish()
    }
}

/// A [`fmt::Write`] sink that feeds every byte written into a hash.
struct HashWriter(Fnv1a);

impl fmt::Write for HashWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// One export peer-group: the members sharing a staged export
/// computation and the group's copy-on-write Adj-RIB-Out base. The base
/// holds the *group-level* export result (before per-member split
/// horizon / loop / member-block deltas); each member's sent state is
/// `base ∖ mask` (see [`Member`]), so a member whose view is identical
/// to the group's costs no route copies at all.
struct ExportGroup {
    fingerprint: GroupFingerprint,
    /// No match of the export policy reads the prefix
    /// ([`Policy::is_prefix_free`]), so what the group makes of a source
    /// route depends on the route's attributes and learning peer only and
    /// can be shared by every prefix carrying them (see `StageMemo`).
    export_prefix_free: bool,
    members: BTreeSet<PeerId>,
    base: AdjRibOut,
}

/// One export group with an established member, as one engine call sees
/// it. Sessions and sync flags do not move while prefixes are being
/// re-exported, so this is read from the peers once per call.
struct LiveGroup {
    key: ExportGroupKey,
    all_paths: bool,
    /// Established members.
    members: u64,
    /// A member is synced: the group's base is live and follows routing
    /// changes.
    synced: bool,
    /// Staged for the prefix in hand.
    staged_now: bool,
    /// This group's entries in [`Staging::staged`] and
    /// [`Staging::sent`] for the prefix in hand.
    staged: Range<usize>,
    sent: Range<usize>,
}

/// Reusable working memory of the export engine. An engine call takes it
/// out of [`Export`] ([`Export::begin`]) and puts it back emptied
/// ([`Export::end`]), so it can be borrowed next to the Speaker's
/// tables; only capacity survives a call.
#[derive(Default)]
pub(super) struct ExportScratch {
    /// Groups with an established member, in key order.
    live: Vec<LiveGroup>,
    staging: Staging,
    /// Per staged entry, what it means for the member in hand.
    verdicts: Vec<MemberPath>,
}

/// What one peer has been sent, as the export side keeps it.
pub(super) struct Member {
    /// When the pending batch flushes; `SimTime::MAX` when nothing is
    /// staged, as for the session's timers (an `Option` would grow every
    /// `PeerState` by 8 bytes).
    mrai_deadline: SimTime,
    /// The export peer-group this peer currently belongs to.
    group: ExportGroupKey,
    /// Per-member delta vs the group base: `(prefix -> path ids)` present
    /// in the base but withheld from this peer (split horizon, sender-side
    /// loop, RS member block). Empty for a member with the group's
    /// identical view — which is what makes marginal tenants O(1).
    mask: BTreeMap<Prefix, BTreeSet<u32>>,
    /// Whether this peer's sent state is represented by `base ∖ mask`.
    /// False before the initial table sync and after any session loss or
    /// refresh; the group base only reflects peers that are synced.
    synced: bool,
    /// Staged export deltas (MRAI packing); empty when `cfg.mrai` is off.
    pending: BTreeMap<Nlri, PendingDelta>,
}

impl Member {
    /// Whether this peer's mask withholds `route` (a route of its group's
    /// base) from its view.
    fn withholds(&self, route: &Route) -> bool {
        self.mask
            .get(&route.prefix)
            .is_some_and(|ids| ids.contains(&route.path_id))
    }

    /// When the staged MRAI batch flushes; `SimTime::MAX` if none is
    /// staged.
    pub(super) fn mrai_deadline(&self) -> SimTime {
        self.mrai_deadline
    }
}

/// The export peer-groups and the engine's working memory.
#[derive(Default)]
pub(super) struct Export {
    /// Keyed by [`ExportGroupKey`]. Every configured peer belongs to
    /// exactly one group; solo peers get a private one.
    groups: BTreeMap<ExportGroupKey, ExportGroup>,
    /// Allocated by the first engine call: a speaker that never exports
    /// pays a pointer for it.
    scratch: Option<Box<ExportScratch>>,
}

impl Export {
    /// Resolve the export group for a peer config and register the peer
    /// as a member, creating the group on first use. Sharing is decided
    /// by structural fingerprint equality — the hash only picks the slot;
    /// on a collision the peer probes to the next free slot instead of
    /// sharing.
    fn resolve(&mut self, cfg: &SpeakerConfig, peer: &PeerConfig) -> ExportGroupKey {
        let fp = GroupFingerprint::of(cfg, peer);
        let mut key = match peer.grouping {
            ExportGrouping::Auto if cfg.export_groups => {
                ExportGroupKey(fp.hash() & !ExportGroupKey::SOLO_BIT)
            }
            _ => ExportGroupKey::solo(peer.id),
        };
        loop {
            match self.groups.get_mut(&key) {
                None => {
                    self.groups.insert(
                        key,
                        ExportGroup {
                            export_prefix_free: fp.export.is_prefix_free(),
                            fingerprint: fp,
                            members: BTreeSet::from([peer.id]),
                            base: AdjRibOut::new(),
                        },
                    );
                    return key;
                }
                Some(g) if g.fingerprint == fp => {
                    g.members.insert(peer.id);
                    return key;
                }
                Some(_) => {
                    key = ExportGroupKey(key.0.wrapping_add(1) & !ExportGroupKey::SOLO_BIT);
                }
            }
        }
    }

    /// A newly configured peer joins its group, with nothing sent yet.
    pub(super) fn join(&mut self, cfg: &SpeakerConfig, peer: &PeerConfig) -> Member {
        Member {
            group: self.resolve(cfg, peer),
            mask: BTreeMap::new(),
            synced: false,
            pending: BTreeMap::new(),
            mrai_deadline: SimTime::MAX,
        }
    }

    /// Drop peer `id`'s membership in group `key`, deleting the group when
    /// it empties and clearing its base when no synced member remains.
    pub(super) fn leave(&mut self, peers: &Peers, id: PeerId, key: ExportGroupKey) {
        let Some(g) = self.groups.get_mut(&key) else {
            return;
        };
        g.members.remove(&id);
        if g.members.is_empty() {
            self.groups.remove(&key);
        } else {
            self.maybe_clear_base(peers, key);
        }
    }

    /// Clear a group's base if none of its members is synced: the base
    /// only represents state that has actually been sent to someone.
    fn maybe_clear_base(&mut self, peers: &Peers, key: ExportGroupKey) {
        if !self.group_synced(peers, key, None) {
            if let Some(g) = self.groups.get_mut(&key) {
                let _ = g.base.clear();
            }
        }
    }

    /// Whether any member of the group other than `except` is synced,
    /// i.e. whether someone keeps the group's base live.
    fn group_synced(&self, peers: &Peers, key: ExportGroupKey, except: Option<PeerId>) -> bool {
        self.groups.get(&key).is_some_and(|g| {
            g.members
                .iter()
                .any(|m| Some(*m) != except && peers.get(m).is_some_and(|p| p.sent.synced))
        })
    }

    /// Forget what `id` holds: it no longer takes part in its group's base
    /// and the next table sync rebuilds its view. What is staged for it
    /// stays staged (a ROUTE-REFRESH keeps the session).
    pub(super) fn unsync(&mut self, peers: &mut Peers, id: PeerId) {
        let Some(state) = peers.get_mut(&id) else {
            return;
        };
        state.sent.mask.clear();
        if !std::mem::replace(&mut state.sent.synced, false) {
            // It kept no base live (a session coming up, or lost before
            // its first table sync): nothing to look for.
            return;
        }
        let key = state.sent.group;
        self.maybe_clear_base(peers, key);
    }

    /// The session with `id` is gone, and with it everything sent or
    /// staged on it.
    pub(super) fn forget(&mut self, peers: &mut Peers, id: PeerId) {
        self.unsync(peers, id);
        if let Some(state) = peers.get_mut(&id) {
            state.sent.pending.clear();
            state.sent.mrai_deadline = SimTime::MAX;
        }
    }

    /// Start an engine call: take the scratch out and read the export
    /// groups with an established member, in key order, into it.
    pub(super) fn begin(&mut self, peers: &Peers) -> Box<ExportScratch> {
        let mut scratch = self.scratch.take().unwrap_or_default();
        let live = &mut scratch.live;
        let established = peers.values().filter(|s| s.session.is_established());
        live.extend(established.map(|state| LiveGroup {
            key: state.sent.group,
            all_paths: state.cfg.advertise == AdvertiseMode::AllPaths,
            members: 1,
            synced: state.sent.synced,
            staged_now: false,
            staged: 0..0,
            sent: 0..0,
        }));
        live.sort_unstable_by_key(|g| g.key);
        live.dedup_by(|later, first| {
            let same_group = later.key == first.key;
            if same_group {
                first.members += later.members;
                first.synced |= later.synced;
            }
            same_group
        });
        scratch
    }

    /// End an engine call: drop every `Arc` it left in the scratch and
    /// put the scratch back.
    pub(super) fn end(&mut self, mut scratch: Box<ExportScratch>) {
        scratch.live.clear();
        let st = &mut scratch.staging;
        st.staged.clear();
        st.sent.clear();
        st.memo.clear();
        self.scratch = Some(scratch);
    }

    /// The export side of [`Speaker::check_invariants`]: membership is
    /// consistent both ways, masks and bases describe sent state only,
    /// and nothing is synced or staged on a session that is not up.
    pub(super) fn check(&self, cfg: &SpeakerConfig, peers: &Peers) -> Result<(), String> {
        for (id, state) in peers {
            let sent = &state.sent;
            let group = self
                .groups
                .get(&sent.group)
                .ok_or_else(|| format!("peer {id:?} references missing export group"))?;
            if !group.members.contains(id) {
                return Err(format!(
                    "peer {id:?} not a member of its export group {:?}",
                    sent.group
                ));
            }
            if !state.session.is_established() {
                if sent.synced {
                    return Err(format!("peer {id:?} is synced but not established"));
                }
                if !sent.pending.is_empty() || sent.mrai_deadline != SimTime::MAX {
                    return Err(format!(
                        "peer {id:?} has MRAI deltas staged but is not established"
                    ));
                }
            }
            for (p, ids) in &sent.mask {
                for pid in ids {
                    if group.base.get(p, *pid).is_none() {
                        return Err(format!(
                            "peer {id:?} masks path {pid} for {p} absent from its group base"
                        ));
                    }
                }
            }
        }
        for (key, group) in &self.groups {
            if group.members.is_empty() {
                return Err(format!("export group {key:?} has no members"));
            }
            let mut any_synced = false;
            for m in &group.members {
                let p = peers
                    .get(m)
                    .ok_or_else(|| format!("export group {key:?} lists missing peer {m:?}"))?;
                if p.sent.group != *key {
                    return Err(format!(
                        "peer {m:?} listed in group {key:?} but points at {:?}",
                        p.sent.group
                    ));
                }
                if GroupFingerprint::of(cfg, &p.cfg) != group.fingerprint {
                    return Err(format!(
                        "peer {m:?} fingerprint diverged from its export group {key:?}"
                    ));
                }
                any_synced |= p.sent.synced;
            }
            group
                .base
                .check_invariants()
                .map_err(|e| format!("group {key:?} adj-rib-out base: {e}"))?;
            if !any_synced && !group.base.is_empty() {
                return Err(format!(
                    "export group {key:?} has a non-empty base but no synced member"
                ));
            }
        }
        Ok(())
    }
}

/// The Speaker as one engine call borrows it: the peers (read while
/// staging, written member by member), the groups, what staging reads,
/// and where emission writes.
struct Engine<'a> {
    peers: &'a mut Peers,
    groups: &'a mut BTreeMap<ExportGroupKey, ExportGroup>,
    stager: Stager<'a>,
    wire: Wire<'a>,
}

impl Speaker {
    fn engine<'a>(&'a mut self, now: SimTime, out: &'a mut Vec<Output>) -> Engine<'a> {
        Engine {
            peers: &mut self.peers,
            groups: &mut self.export.groups,
            stager: Stager {
                cfg: &self.cfg,
                loc_rib: &self.loc_rib,
                local_routes: &self.local_routes,
                local_traces: &self.local_traces,
                interner: &mut self.interner,
                now,
            },
            wire: Wire {
                cfg: &self.cfg,
                timers: &mut self.timers,
                prov: self.provenance.is_enabled().then_some(&self.provenance),
                telemetry: &self.telemetry,
                updates_sent: &mut self.updates_sent,
                now,
                out,
            },
        }
    }

    /// The Adj-RIB-Out for a peer, materialized from the peer's export
    /// group: the group's copy-on-write base minus this peer's mask.
    /// Entries share attribute `Arc`s with the base, so the copy is
    /// route-struct-deep only.
    pub fn adj_rib_out(&self, peer: PeerId) -> Option<AdjRibOut> {
        let sent = &self.peers.get(&peer)?.sent;
        let mut rib = AdjRibOut::new();
        if !sent.synced {
            return Some(rib);
        }
        if let Some(g) = self.export.groups.get(&sent.group) {
            for route in g.base.iter().filter(|r| !sent.withholds(r)) {
                rib.insert(route.clone());
            }
        }
        Some(rib)
    }

    /// Total BGP table memory (all RIBs, attributes shared-once). Each
    /// export group's Adj-RIB-Out base is charged once no matter how many
    /// members share it; members additionally pay only for their masks —
    /// which is exactly the marginal-memory argument the mux-scale bench
    /// measures.
    pub fn table_memory(&self) -> usize {
        let ins = self.peers.values().map(|p| &p.adj_in);
        let bases = self.export.groups.values().map(|g| &g.base);
        let mut total = rib_memory(ins.chain(bases), Some(&self.loc_rib));
        for mask in self.peers.values().map(|p| &p.sent.mask) {
            total += mask.len() * (std::mem::size_of::<Prefix>() + BTREE_ENTRY_OVERHEAD);
            for ids in mask.values() {
                total += ids.len() * (std::mem::size_of::<u32>() + BTREE_ENTRY_OVERHEAD);
            }
        }
        total
    }

    /// The export peer-group a peer currently belongs to.
    pub fn export_group_of(&self, peer: PeerId) -> Option<ExportGroupKey> {
        self.peers.get(&peer).map(|p| p.sent.group)
    }

    /// Number of members in an export peer-group (0 if unknown).
    pub fn export_group_len(&self, key: ExportGroupKey) -> usize {
        self.export.groups.get(&key).map_or(0, |g| g.members.len())
    }

    /// Apply `change` to a peer's configuration, re-resolve its export
    /// group and, when the group actually changes, resync the peer's
    /// advertised view by diffing against what has been sent.
    pub(super) fn reseat_peer_group(
        &mut self,
        peer: PeerId,
        now: SimTime,
        out: &mut Vec<Output>,
        change: impl FnOnce(&mut PeerConfig),
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        change(&mut state.cfg);
        let old_key = state.sent.group;
        // Resolve *before* detaching: if the answer is the same group the
        // membership (and its base) must survive untouched.
        let new_key = self.export.resolve(&self.cfg, &state.cfg);
        if new_key == old_key {
            return;
        }
        self.telemetry.counter_inc("bgp.export.group_splits");
        // Snapshot what this peer has actually been sent (old base minus
        // its mask) before the detach below can clear the old base.
        let snapshot = self.adj_rib_out(peer).unwrap_or_default();
        self.export.leave(&self.peers, peer, old_key);
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        state.sent.group = new_key;
        state.sent.mask.clear();
        if !state.sent.synced {
            // Nothing has been sent on this session yet; the next full
            // sync simply uses the new group.
            return;
        }
        // Resync: recompute this peer's exports under the new group and
        // emit only the diff against the snapshot. No reject provenance
        // here — a group move is not a routing decision; only actual
        // emissions are recorded.
        self.resync_member(peer, &snapshot, false, now, out);
    }

    /// Re-export one prefix to the established peers after a routing
    /// change. Each group's export is staged once and shared by its
    /// established members; per-member work is the cheap delta filter and
    /// the wire diff against the member's view (group base minus mask),
    /// in peer-id order. Bases commit *after* the member loop so every
    /// member diffs against the pre-change state. With `best_only` false
    /// the best path did not move and only AllPaths groups take part.
    pub(super) fn export_prefix(
        &mut self,
        scratch: &mut ExportScratch,
        prefix: Prefix,
        best_only: bool,
        now: SimTime,
        cause: Option<TraceId>,
        out: &mut Vec<Output>,
    ) {
        let ExportScratch {
            live,
            staging,
            verdicts,
        } = scratch;
        staging.staged.clear();
        staging.sent.clear();
        let Engine {
            peers,
            groups,
            mut stager,
            mut wire,
        } = self.engine(now, out);
        let (mut computed, mut shared) = (0, 0);
        for g in live.iter_mut() {
            g.staged_now = false;
            if !(best_only || g.all_paths) {
                continue;
            }
            let Some(group) = groups.get(&g.key) else {
                continue;
            };
            g.staged = stager.stage(peers, staging, g.key, group, &prefix);
            let sent = staging.sent.len();
            if g.synced {
                let held = group.base.paths(&prefix);
                staging
                    .sent
                    .extend(held.map(|r| (r.path_id, Arc::clone(&r.attrs))));
            }
            g.sent = sent..staging.sent.len();
            g.staged_now = true;
            computed += 1;
            shared += g.members - 1;
        }
        if computed == 0 {
            return;
        }
        wire.telemetry
            .counter_add("bgp.export.group_computed", computed);
        if shared > 0 {
            wire.telemetry
                .counter_add("bgp.export.group_shared", shared);
        }
        for state in peers.values_mut() {
            if !state.session.is_established() {
                continue;
            }
            let Ok(i) = live.binary_search_by_key(&state.sent.group, |g| g.key) else {
                continue;
            };
            let g = &live[i];
            if !g.staged_now {
                continue;
            }
            // Nothing counts as sent until the initial table sync is done.
            let sent: &[_] = if state.sent.synced {
                &staging.sent[g.sent.clone()]
            } else {
                &[]
            };
            let staged = &staging.staged[g.staged.clone()];
            export_to_member(
                &mut wire, verdicts, state, prefix, staged, sent, true, cause,
            );
        }
        // The base only ever holds what has been sent to someone, so a
        // routing change moves it exactly when a member is synced.
        for g in live.iter().filter(|g| g.staged_now && g.synced) {
            if let Some(group) = groups.get_mut(&g.key) {
                let staged = &staging.staged[g.staged.clone()];
                group.base.set_prefix(&prefix, base_routes(staged));
            }
        }
    }

    /// Bring `peer`'s advertised view in line with its group's exports,
    /// prefix by prefix, against what it holds in `sent`: nothing at an
    /// initial table sync ([`full_table_to`](Self::full_table_to)), the
    /// pre-move snapshot at a group reseat. The member joins the group's
    /// shared view: the walk fills the base only when no *other* member
    /// keeps it live; otherwise the base is already authoritative and the
    /// staged computation must agree with it.
    fn resync_member(
        &mut self,
        peer: PeerId,
        sent: &AdjRibOut,
        record_rejects: bool,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let Some(key) = self.peers.get(&peer).map(|s| s.sent.group) else {
            return;
        };
        let mut prefixes = self.known_prefixes();
        prefixes.extend(sent.prefixes().copied());
        if prefixes.is_empty() {
            return;
        }
        let others_synced = self.export.group_synced(&self.peers, key, Some(peer));
        let mut scratch = self.export.scratch.take().unwrap_or_default();
        let ExportScratch {
            staging, verdicts, ..
        } = &mut *scratch;
        let Engine {
            peers,
            groups,
            mut stager,
            mut wire,
        } = self.engine(now, out);
        for prefix in prefixes {
            let Some(group) = groups.get_mut(&key) else {
                break;
            };
            staging.staged.clear();
            let staged = stager.stage(peers, staging, key, group, &prefix);
            let staged = &staging.staged[staged];
            staging.sent.clear();
            let held = sent.paths(&prefix);
            staging
                .sent
                .extend(held.map(|r| (r.path_id, Arc::clone(&r.attrs))));
            let Some(state) = peers.get_mut(&peer) else {
                break;
            };
            let sent = &staging.sent;
            export_to_member(
                &mut wire,
                verdicts,
                state,
                prefix,
                staged,
                sent,
                record_rejects,
                None,
            );
            if !others_synced {
                group.base.set_prefix(&prefix, base_routes(staged));
            } else {
                // Attribute values and path ids must match — `learned_at`
                // may differ for local routes, whose timestamp is the
                // staging time.
                debug_assert!(
                    {
                        let view = |routes: &mut dyn Iterator<Item = &Route>| {
                            routes
                                .map(|r| (r.path_id, Arc::clone(&r.attrs)))
                                .collect::<BTreeMap<_, _>>()
                        };
                        view(&mut group.base.paths(&prefix)) == view(&mut base_routes(staged))
                    },
                    "staged exports diverge from an already-synced group base"
                );
            }
        }
        self.export.end(scratch);
    }

    /// Every prefix with a local route or a learned path: the walk set
    /// of a full-table export.
    fn known_prefixes(&self) -> BTreeSet<Prefix> {
        let mut prefixes: BTreeSet<Prefix> = self.local_routes.keys().copied().collect();
        for state in self.learned.iter().filter_map(|id| self.peers.get(id)) {
            prefixes.extend(state.adj_in.prefixes().copied());
        }
        prefixes
    }

    /// Flush `id`'s staged MRAI batch (see [`Wire::flush`]).
    pub(super) fn flush_mrai(&mut self, id: PeerId, now: SimTime, out: &mut Vec<Output>) {
        let Engine {
            peers, mut wire, ..
        } = self.engine(now, out);
        if let Some(state) = peers.get_mut(&id) {
            wire.flush(state);
        }
    }

    /// Send the full table to a newly established peer, or to a refreshing
    /// one the caller has [unsynced](Export::unsync). The peer is marked
    /// synced — joined to its group's shared view — only after the walk,
    /// so every prefix diffs against an empty view and everything staged
    /// is announced. If another
    /// member of the group is already synced the shared base is
    /// authoritative and untouched; otherwise the base was cleared on
    /// unsync and is rebuilt prefix by prefix here.
    pub(super) fn full_table_to(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        self.resync_member(peer, &AdjRibOut::new(), true, now, out);
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        state.sent.synced = true;
        // Initial sync is not rate-limited: flush anything the per-prefix
        // exports staged so the full table precedes the End-of-RIB marker.
        self.flush_mrai(peer, now, out);
        let end_of_rib = UpdateMessage::withdraw(Vec::new());
        out.push(Output::Send(peer, BgpMessage::Update(end_of_rib)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::Community;
    use crate::policy::{Action, Match};
    use peering_netsim::Asn;
    use std::net::Ipv4Addr;

    #[test]
    fn streamed_group_key_hashes_the_formatted_fingerprint() {
        let cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        // The Gao-Rexford export to a peer or provider: routes tagged as
        // learned from a peer or a provider stay put.
        let no_transit = Policy::accept_all().rule(
            Match::AnyOf(vec![
                Match::HasCommunity(Community::new(65000, 2)),
                Match::HasCommunity(Community::new(65000, 3)),
            ]),
            vec![Action::Reject],
        );
        let peers = [
            PeerConfig::new(PeerId(1), Asn(65001)),
            PeerConfig::new(PeerId(2), Asn(65002)).export(no_transit),
            PeerConfig::new(PeerId(3), Asn(65003)).all_paths(),
            PeerConfig::new(PeerId(4), Asn(65000)).rr_client(),
        ];
        let mut keys = BTreeSet::new();
        for peer in &peers {
            let fp = GroupFingerprint::of(&cfg, peer);
            let formatted = Fnv1a::legacy().write(format!("{fp:?}").as_bytes()).finish();
            assert_eq!(fp.hash(), formatted, "{fp:?}");
            keys.insert(formatted);
        }
        assert_eq!(keys.len(), peers.len(), "each fingerprint has its own key");
    }
}
