//! The BGP speaker: a complete software router.
//!
//! A [`Speaker`] owns any number of peer sessions, per-peer Adj-RIB-In /
//! Adj-RIB-Out tables, a Loc-RIB, import/export policies, and optional
//! route-flap damping. Three operating modes cover everything in the
//! paper:
//!
//! * [`SpeakerMode::Normal`] — a conventional router (an AS in the
//!   simulated Internet, an emulated PoP router, a client router).
//! * [`SpeakerMode::RouteServer`] — RFC 7947 transparency: no self-ASN
//!   prepend, untouched next hop and MED. Used by the IXP route server.
//! * Per-peer [`AdvertiseMode::AllPaths`] — exports every path (with
//!   ADD-PATH ids derived from the learning peer) rather than only the
//!   best one. This is the BIRD-style multiplexing PEERING proposes for
//!   scaling client sessions at large IXPs: one session carries every
//!   upstream's routes, distinguishable by path id.
//!
//! The `impl Speaker` is split along its seams, and each private
//! submodule owns the state it is responsible for: `config` the knobs,
//! `session` what drives a peer's FSM and what a session coming or going
//! means, `import` the UPDATE-to-Adj-RIB-In path, `export` (with its
//! children `stage`, `diff` and `mrai`) everything a peer has been sent.
//! This file keeps the tables, local origination, the decision process
//! that connects import to export, and the cross-module invariants.

mod config;
mod export;
mod import;
mod session;

pub use config::{
    AdvertiseMode, ExportGroupKey, ExportGrouping, MaxPrefixConfig, PeerConfig, SpeakerConfig,
    SpeakerMode,
};

use crate::attrs::{Community, PathAttributes};
use crate::damping::DampingState;
use crate::decision::best_route;
use crate::fsm::{ConnectRetryConfig, Session, SessionConfig};
use crate::message::{BgpMessage, Nlri};
use crate::provenance::{ProvenanceEvent, ProvenanceLog};
use crate::rib::{AdjRibIn, AttrInterner, LocRib, PeerId, Route};
use export::{Export, Member};
use peering_netsim::{Asn, Prefix, SimRng, SimTime, TraceId};
use peering_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Events a speaker surfaces to its owner.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeakerEvent {
    /// A session reached Established.
    PeerUp(PeerId),
    /// A session went down.
    PeerDown(PeerId, String),
    /// The best route for a prefix changed (None = no longer reachable).
    BestChanged {
        /// Affected prefix.
        prefix: Prefix,
        /// The new best route, if any.
        new: Option<Route>,
    },
    /// Damping suppressed a flapping route from a peer.
    Suppressed(PeerId, Prefix),
    /// A route was rejected on import (policy or loop).
    ImportRejected(PeerId, Prefix),
}

/// A speaker's outputs: messages to deliver and events for the owner.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send a message to a peer.
    Send(PeerId, BgpMessage),
    /// Surface an event.
    Event(SpeakerEvent),
}

/// [`Speaker::add_peer`] refused an id that is already configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerExists(pub PeerId);

impl fmt::Display for PeerExists {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer {:?} is already configured", self.0)
    }
}

impl std::error::Error for PeerExists {}

/// Graceful-restart bookkeeping: which Adj-RIB-In entries survive from
/// before the session loss, and when retention gives up.
struct StaleState {
    /// When the restart timer flushes whatever is still stale.
    deadline: SimTime,
    /// `(prefix, path_id)` entries retained from the old session.
    keys: BTreeSet<(Prefix, u32)>,
}

struct PeerState {
    cfg: PeerConfig,
    // The three timer holders — the session's timers, the stale deadline
    // and the MRAI flush — fold into `peer_deadline`; whoever writes one
    // calls `retime` before handing the peer back.
    session: Session,
    /// Present while the peer is in a graceful-restart window.
    stale: Option<StaleState>,
    /// What this peer has been sent; only `export` can look inside.
    sent: Member,
    /// This peer's entry in [`Speaker::timers`]: its `peer_deadline` as
    /// of the last `retime`; `SimTime::MAX` when it has none.
    armed: SimTime,
    adj_in: AdjRibIn,
    damping: DampingState,
    /// Suppressed (damped) prefixes learned from this peer.
    suppressed: BTreeSet<Prefix>,
    /// The max-prefix warning threshold already fired this session.
    max_prefix_warned: bool,
}

impl PeerState {
    /// Drop what `nlri` names from the Adj-RIB-In — one path when it
    /// carries an ADD-PATH id, every path of the prefix otherwise — and
    /// with it the matching graceful-restart stale keys, so the sweep at
    /// End-of-RIB never revisits it. True if a route was removed.
    fn remove_learned(&mut self, nlri: &Nlri) -> bool {
        let removed = match nlri.path_id {
            Some(id) => self.adj_in.remove(&nlri.prefix, id).is_some(),
            None => !self.adj_in.remove_prefix(&nlri.prefix).is_empty(),
        };
        if let Some(st) = &mut self.stale {
            match nlri.path_id {
                Some(id) => {
                    st.keys.remove(&(nlri.prefix, id));
                }
                None => st.keys.retain(|(p, _)| p != &nlri.prefix),
            }
        }
        removed
    }
}

/// Boxed, so a speaker's first peer does not allocate a B-tree leaf of
/// eleven inline `PeerState`s: k peers cost about k states.
type Peers = BTreeMap<PeerId, Box<PeerState>>;

/// Every peer with a timer armed, ordered by `(deadline, peer)`.
type Timers = BTreeSet<(SimTime, PeerId)>;

/// When `state` next needs a tick: the earliest of its session timers,
/// its graceful-restart stale deadline and its MRAI flush.
fn peer_deadline(state: &PeerState) -> SimTime {
    let mut due = state.session.next_deadline();
    if let Some(st) = &state.stale {
        due = due.min(st.deadline);
    }
    due.min(state.sent.mrai_deadline())
}

/// Move `state`'s entry in `timers` to its current [`peer_deadline`].
fn retime(timers: &mut Timers, state: &mut PeerState) {
    let due = peer_deadline(state);
    if due == state.armed {
        return;
    }
    if state.armed != SimTime::MAX {
        timers.remove(&(state.armed, state.cfg.id));
    }
    if due != SimTime::MAX {
        timers.insert((due, state.cfg.id));
    }
    state.armed = due;
}

/// Keep `state`'s entry in `learned` in step with its Adj-RIB-In, which
/// was empty before the change iff `was_empty`.
fn relist(learned: &mut BTreeSet<PeerId>, state: &PeerState, was_empty: bool) {
    match (was_empty, state.adj_in.is_empty()) {
        (true, false) => {
            learned.insert(state.cfg.id);
        }
        (false, true) => {
            learned.remove(&state.cfg.id);
        }
        _ => {}
    }
}

/// A complete BGP router.
pub struct Speaker {
    cfg: SpeakerConfig,
    peers: Peers,
    /// The peers' timer deadlines, so the earliest is a lookup.
    timers: Timers,
    /// Exactly the peers whose Adj-RIB-In is non-empty, so a full-table
    /// walk skips the peers that taught us nothing.
    learned: BTreeSet<PeerId>,
    /// The export peer-groups and the engine that serves them.
    export: Export,
    loc_rib: LocRib,
    local_routes: BTreeMap<Prefix, Arc<PathAttributes>>,
    interner: AttrInterner,
    /// Count of UPDATE messages emitted.
    pub updates_sent: u64,
    /// Count of UPDATE messages processed.
    pub updates_received: u64,
    /// Telemetry sink (disabled unless attached; see
    /// [`set_telemetry`](Self::set_telemetry)).
    telemetry: Telemetry,
    /// Provenance sink (disabled unless attached; see
    /// [`set_provenance`](Self::set_provenance)).
    provenance: ProvenanceLog,
    /// Next per-origin sequence number for minted [`TraceId`]s. Minting is
    /// unconditional and deterministic so attaching a provenance log never
    /// changes the ids (or anything else) a run produces.
    origin_seq: u32,
    /// Trace id of the live origination for each locally originated prefix.
    local_traces: BTreeMap<Prefix, TraceId>,
    /// Sim-time each peer's session was last started, for convergence
    /// measurement (cleared once Established is observed).
    session_started: BTreeMap<PeerId, SimTime>,
}

impl Speaker {
    /// Create a speaker with no peers.
    pub fn new(cfg: SpeakerConfig) -> Self {
        let interner = if cfg.intern_attrs {
            AttrInterner::new()
        } else {
            AttrInterner::disabled()
        };
        Speaker {
            cfg,
            peers: BTreeMap::new(),
            timers: Timers::new(),
            learned: BTreeSet::new(),
            export: Export::default(),
            loc_rib: LocRib::new(),
            local_routes: BTreeMap::new(),
            interner,
            updates_sent: 0,
            updates_received: 0,
            telemetry: Telemetry::disabled(),
            provenance: ProvenanceLog::disabled(),
            origin_seq: 0,
            local_traces: BTreeMap::new(),
            session_started: BTreeMap::new(),
        }
    }

    /// Attach a telemetry handle. All metrics land under `bgp.*`; the
    /// default handle is disabled, so un-instrumented use is free.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attach a provenance log. Recording is observational only: trace
    /// ids are minted whether or not a log is attached, so behaviour is
    /// bit-identical either way.
    pub fn set_provenance(&mut self, provenance: ProvenanceLog) {
        self.provenance = provenance;
    }

    /// Refresh the Loc-RIB size gauge after a decision run.
    fn note_rib_gauges(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge_set("bgp.rib.loc_rib_routes", self.loc_rib.len() as i64);
        }
    }

    /// Our ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// The speaker configuration.
    pub fn config(&self) -> &SpeakerConfig {
        &self.cfg
    }

    /// The Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Peer ids currently configured.
    pub fn peer_ids(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peers.keys().copied()
    }

    /// Number of configured peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The configured ASN of a peer.
    pub fn peer_asn(&self, peer: PeerId) -> Option<Asn> {
        self.peers.get(&peer).map(|p| p.cfg.asn)
    }

    /// The Adj-RIB-In for a peer.
    pub fn adj_rib_in(&self, peer: PeerId) -> Option<&AdjRibIn> {
        self.peers.get(&peer).map(|p| &p.adj_in)
    }

    /// Whether the session with a peer is established.
    pub fn peer_established(&self, peer: PeerId) -> bool {
        self.peers
            .get(&peer)
            .map(|p| p.session.is_established())
            .unwrap_or(false)
    }

    /// Register a peer. The session starts in Idle; call
    /// [`start_peer`](Self::start_peer) to bring it up. An id that is
    /// already configured is refused: to reconfigure a peer,
    /// [`remove_peer`](Self::remove_peer) it first, so what it taught us
    /// is withdrawn like any other loss.
    pub fn add_peer(&mut self, cfg: PeerConfig) -> Result<(), PeerExists> {
        if self.peers.contains_key(&cfg.id) {
            return Err(PeerExists(cfg.id));
        }
        let add_path = cfg.advertise == AdvertiseMode::AllPaths;
        let mut scfg = SessionConfig::new(self.cfg.asn, self.cfg.router_id)
            .expect_peer(cfg.asn)
            .add_path(add_path, true);
        scfg.hold_time = self.cfg.hold_time;
        if cfg.passive {
            scfg = scfg.passive();
        }
        if let Some(retry) = self.cfg.connect_retry.clone() {
            // Fork the jitter stream per peer so concurrent retries from
            // one speaker do not synchronise.
            let seed = SimRng::new(retry.seed)
                .fork(&format!("connect-retry/{}", cfg.id.0))
                .seed();
            scfg = scfg.with_connect_retry(ConnectRetryConfig { seed, ..retry });
        }
        if let Some(rt) = cfg.graceful_restart {
            scfg = scfg.graceful_restart(rt.as_micros().div_euclid(1_000_000).min(4095) as u16);
        }
        let mut state = Box::new(PeerState {
            session: Session::new(scfg),
            adj_in: AdjRibIn::new(),
            sent: self.export.join(&self.cfg, &cfg),
            damping: DampingState::new(),
            suppressed: BTreeSet::new(),
            stale: None,
            armed: SimTime::MAX,
            max_prefix_warned: false,
            cfg,
        });
        retime(&mut self.timers, &mut state);
        self.peers.insert(state.cfg.id, state);
        Ok(())
    }

    /// Remove a peer entirely, rerunning decisions for its routes.
    pub fn remove_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        // Take the session down like any other loss (Cease, `PeerDown`,
        // FSM accounting), then drop the configuration.
        let mut out = self.stop_peer(peer, now);
        // Graceful restart kept the paths as stale; a removed peer's go now.
        let affected = self.session_lost(peer, None);
        self.reconsider_with(&affected, now, None, &mut out);
        let key = self.export_group_of(peer);
        if let (Some(key), Some(state)) = (key, self.peers.remove(&peer)) {
            self.timers.remove(&(state.armed, peer));
            self.export.leave(&self.peers, peer, key);
        }
        out
    }

    /// Debug builds re-check cross-structure consistency after every
    /// externally driven mutation.
    fn debug_check(&self, after: &str) {
        debug_assert_eq!(
            self.check_invariants(),
            Ok(()),
            "speaker invariant violated after {after}"
        );
    }

    /// Originate a prefix with default attributes.
    pub fn originate(&mut self, prefix: Prefix, now: SimTime) -> Vec<Output> {
        self.originate_with(prefix, Vec::new(), now)
    }

    /// Originate a prefix carrying the given communities.
    pub fn originate_with(
        &mut self,
        prefix: Prefix,
        communities: Vec<Community>,
        now: SimTime,
    ) -> Vec<Output> {
        let mut attrs = PathAttributes::originate(self.cfg.router_id);
        for c in communities {
            attrs.add_community(c);
        }
        let attrs = self.interner.intern(attrs);
        self.local_routes.insert(prefix, attrs);
        let trace = self.mint_origination(prefix, false, now);
        self.local_traces.insert(prefix, trace);
        let mut out = Vec::new();
        self.reconsider_with(&[prefix], now, Some(trace), &mut out);
        out
    }

    /// Withdraw a locally originated prefix.
    pub fn withdraw_origin(&mut self, prefix: Prefix, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        if self.local_routes.remove(&prefix).is_some() {
            self.local_traces.remove(&prefix);
            let trace = self.mint_origination(prefix, true, now);
            self.reconsider_with(&[prefix], now, Some(trace), &mut out);
        }
        out
    }

    /// Mint the next deterministic trace id for a local routing change and
    /// record the change under it.
    fn mint_origination(&mut self, prefix: Prefix, withdraw: bool, now: SimTime) -> TraceId {
        let trace = TraceId::new(self.cfg.asn.0, self.origin_seq);
        self.origin_seq = self.origin_seq.wrapping_add(1);
        let event = ProvenanceEvent::Originated {
            prefix,
            trace,
            withdraw,
        };
        self.provenance.record(now, self.cfg.asn, event);
        trace
    }

    /// Locally originated prefixes.
    pub fn originated(&self) -> impl Iterator<Item = &Prefix> {
        self.local_routes.keys()
    }

    /// Re-run the decision process for `prefixes` and propagate changes,
    /// threading the provenance id of the routing change that triggered
    /// the re-decision, if one did (it tags propagated withdrawals, which
    /// carry no route of their own). `prefixes` are distinct and in the
    /// order their changes are emitted.
    fn reconsider_with(
        &mut self,
        prefixes: &[Prefix],
        now: SimTime,
        cause: Option<TraceId>,
        out: &mut Vec<Output>,
    ) {
        if prefixes.is_empty() {
            return self.note_rib_gauges();
        }
        self.telemetry.counter_inc("bgp.decision.runs");
        self.telemetry
            .counter_add("bgp.decision.prefixes", prefixes.len() as u64);
        let mut scratch = self.export.begin(&self.peers);
        // A best path that did not move leaves every BestOnly export as it
        // is — unless a provenance log is attached, which is owed each
        // member's reject verdicts again on every re-export. AllPaths
        // groups export the losing paths too, so they never skip.
        let observed = self.provenance.is_enabled();
        for &prefix in prefixes {
            let local = local_route(&self.local_routes, &self.local_traces, &prefix, now);
            let new_best = best_route(
                candidates(&self.peers, &prefix).chain(local.as_ref()),
                &self.cfg.decision,
            );
            // `moved` is what the owner hears about; `same` is stricter:
            // not even the bookkeeping an Adj-RIB-Out shows (`learned_at`,
            // `trace`) differs, so the Loc-RIB entry and every BestOnly
            // export of it already are what redoing them would produce.
            let (moved, same) = match (self.loc_rib.get(&prefix), new_best) {
                (None, None) => (false, true),
                (Some(a), Some(b)) => {
                    let moved = !(Arc::ptr_eq(&a.attrs, &b.attrs)
                        && a.peer == b.peer
                        && a.path_id == b.path_id);
                    let same = !moved
                        && a.source == b.source
                        && a.igp_cost == b.igp_cost
                        && a.learned_at == b.learned_at
                        && a.trace == b.trace;
                    (moved, same)
                }
                _ => (true, false),
            };
            if !same {
                match new_best {
                    Some(r) => {
                        self.loc_rib.set_best(r.clone());
                    }
                    None => {
                        self.loc_rib.remove(&prefix);
                    }
                }
            }
            if moved {
                out.push(Output::Event(SpeakerEvent::BestChanged {
                    prefix,
                    new: new_best.cloned(),
                }));
            }
            self.export_prefix(&mut scratch, prefix, !same || observed, now, cause, out);
        }
        self.export.end(scratch);
        self.note_rib_gauges();
    }

    /// Check cross-structure consistency: every per-peer session, RIB and
    /// damping table, the export side, and the Loc-RIB must agree with
    /// each other. Cheap
    /// enough for `debug_assert!` after every message and tick; returns a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, state) in &self.peers {
            if state.cfg.id != *id {
                return Err(format!(
                    "peer {id:?} keyed under wrong id {:?}",
                    state.cfg.id
                ));
            }
            state
                .session
                .check_invariants()
                .map_err(|e| format!("peer {id:?} session: {e}"))?;
            state
                .adj_in
                .check_invariants()
                .map_err(|e| format!("peer {id:?} adj-rib-in: {e}"))?;
            if !state.session.is_established() && !state.adj_in.is_empty() && state.stale.is_none()
            {
                return Err(format!(
                    "peer {id:?} holds {} adj-rib-in routes while not established",
                    state.adj_in.len()
                ));
            }
            if state.stale.is_some() && state.cfg.graceful_restart.is_none() {
                return Err(format!(
                    "peer {id:?} is in a graceful-restart window but never negotiated one"
                ));
            }
            if self.cfg.damping.is_none() && !state.suppressed.is_empty() {
                return Err(format!(
                    "peer {id:?} has suppressed prefixes but damping is disabled"
                ));
            }
            let due = peer_deadline(state);
            if state.armed != due {
                return Err(format!(
                    "peer {id:?} is armed at {:?} but due at {due:?}",
                    state.armed
                ));
            }
            if due != SimTime::MAX && !self.timers.contains(&(due, *id)) {
                return Err(format!(
                    "peer {id:?} due at {due:?} is not in the timer index"
                ));
            }
        }
        let armed = self
            .peers
            .values()
            .filter(|p| p.armed != SimTime::MAX)
            .count();
        if armed != self.timers.len() {
            return Err(format!(
                "the timer index holds {} entries for {armed} armed peers",
                self.timers.len()
            ));
        }
        let nonempty = self.peers.values().filter(|p| !p.adj_in.is_empty());
        if !nonempty.map(|p| p.cfg.id).eq(self.learned.iter().copied()) {
            return Err(format!(
                "the learned set {:?} is not the peers with adj-rib-in routes",
                self.learned
            ));
        }
        // The reference the index replaces: a scan of every peer.
        let scan = self.peers.values().map(|p| peer_deadline(p)).min();
        if self.next_deadline() != scan.unwrap_or(SimTime::MAX) {
            return Err(format!(
                "next_deadline {:?} differs from the scan's {scan:?}",
                self.next_deadline()
            ));
        }
        self.export.check(&self.cfg, &self.peers)?;
        self.loc_rib.check_invariants()?;
        // Every Loc-RIB best must trace back to a live candidate: either a
        // locally originated route or a path still present in the learning
        // peer's Adj-RIB-In.
        for best in self.loc_rib.iter() {
            let prefix = best.prefix;
            if best.peer == PeerId::LOCAL {
                if !self.local_routes.contains_key(&prefix) {
                    return Err(format!(
                        "loc-rib best for {prefix} claims local origin but no local route exists"
                    ));
                }
            } else {
                let backing = self
                    .peers
                    .get(&best.peer)
                    .and_then(|p| p.adj_in.get(&prefix, best.path_id));
                if backing.is_none() {
                    return Err(format!(
                        "loc-rib best for {prefix} references missing adj-rib-in path \
                         (peer {:?}, path id {})",
                        best.peer, best.path_id
                    ));
                }
            }
        }
        Ok(())
    }

    /// Interner statistics `(distinct, hits, misses)`.
    pub fn interner_stats(&self) -> (usize, u64, u64) {
        (
            self.interner.len(),
            self.interner.hits,
            self.interner.misses,
        )
    }

    /// Drop interned attributes no longer referenced by any RIB.
    pub fn gc(&mut self) -> usize {
        self.interner.gc()
    }
}

/// Candidate routes for a prefix: every unsuppressed Adj-RIB-In path, in
/// peer-id order.
fn candidates<'a>(peers: &'a Peers, prefix: &'a Prefix) -> impl Iterator<Item = &'a Route> {
    peers
        .values()
        .filter(move |state| !state.suppressed.contains(prefix))
        .flat_map(move |state| state.adj_in.paths(prefix))
}

/// The locally originated route for a prefix, if any, stamped `now`.
fn local_route(
    local_routes: &BTreeMap<Prefix, Arc<PathAttributes>>,
    local_traces: &BTreeMap<Prefix, TraceId>,
    prefix: &Prefix,
    now: SimTime,
) -> Option<Route> {
    let attrs = local_routes.get(prefix)?;
    let trace = local_traces.get(prefix).copied();
    Some(Route::local(*prefix, Arc::clone(attrs), now).with_trace(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::damping::DampingConfig;
    use crate::message::{NotifCode, UpdateMessage};
    use crate::policy::{Action, Match, Policy};
    use crate::rib::RouteSource;
    use peering_netsim::SimDuration;
    use std::net::Ipv4Addr;

    /// Deliver all queued outputs between two speakers until quiescent.
    fn settle(a: &mut Speaker, b: &mut Speaker, a_peer: PeerId, b_peer: PeerId, now: SimTime) {
        // a_peer: b's id in a; b_peer: a's id in b.
        let mut to_b: Vec<BgpMessage> = Vec::new();
        let mut to_a: Vec<BgpMessage> = Vec::new();
        let drain = |outs: Vec<Output>, target: PeerId, sink: &mut Vec<BgpMessage>| {
            for o in outs {
                if let Output::Send(p, m) = o {
                    assert_eq!(p, target, "single-peer harness");
                    sink.push(m);
                }
            }
        };
        drain(a.start_peer(a_peer, now), a_peer, &mut to_b);
        drain(b.start_peer(b_peer, now), b_peer, &mut to_a);
        // Fire any due ConnectRetry timers (reconnecting sessions sit in
        // Connect, where `start` is a no-op).
        drain(a.tick(now), a_peer, &mut to_b);
        drain(b.tick(now), b_peer, &mut to_a);
        for _ in 0..64 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut next_to_a = Vec::new();
            let mut next_to_b = Vec::new();
            for m in to_b.drain(..) {
                drain(b.on_message(b_peer, m, now), b_peer, &mut next_to_a);
            }
            for m in to_a.drain(..) {
                drain(a.on_message(a_peer, m, now), a_peer, &mut next_to_b);
            }
            to_a = next_to_a;
            to_b = next_to_b;
        }
        assert!(to_a.is_empty() && to_b.is_empty(), "did not converge");
    }

    fn speaker(asn: u32) -> Speaker {
        Speaker::new(SpeakerConfig::new(
            Asn(asn),
            Ipv4Addr::new(10, 0, 0, asn as u8),
        ))
    }

    #[test]
    fn originated_route_propagates() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let best = b.loc_rib().get(&p).expect("b learned the route");
        assert_eq!(best.attrs.as_path.to_string(), "1");
        assert_eq!(best.source, RouteSource::Ebgp);
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
    }

    #[test]
    fn telemetry_tracks_session_and_updates() {
        use peering_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.set_telemetry(telemetry.clone());
        b.set_telemetry(telemetry.clone());
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let snap = telemetry.snapshot();
        // Both sessions reached Established, and the UPDATE counters
        // mirror the speakers' own totals.
        assert_eq!(snap.counter("bgp.session.established"), 2);
        assert_eq!(snap.counter("bgp.fsm.to_established"), 2);
        assert_eq!(
            snap.counter("bgp.speaker.updates_out"),
            a.updates_sent + b.updates_sent
        );
        assert_eq!(
            snap.counter("bgp.speaker.updates_in"),
            a.updates_received + b.updates_received
        );
        assert!(snap.counter("bgp.decision.runs") > 0);
        assert_eq!(snap.gauge("bgp.rib.loc_rib_routes"), Some(1));
        let conv = snap
            .histogram("bgp.session.convergence_us")
            .expect("convergence histogram");
        assert_eq!(conv.count, 2);
    }

    #[test]
    fn fault_driven_session_loss_counts_as_fsm_transition() {
        use peering_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.set_telemetry(telemetry.clone());
        b.set_telemetry(telemetry.clone());
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let before = telemetry.snapshot();
        // A transport reset and a corrupt frame are session losses like
        // any other: Established -> Idle, one transition each.
        a.reset_peer(PeerId(0), SimTime::from_secs(1));
        assert_eq!(
            telemetry.snapshot().counter("bgp.fsm.to_idle"),
            before.counter("bgp.fsm.to_idle") + 1
        );
        b.on_corrupt_message(PeerId(0), SimTime::from_secs(1));
        let after = telemetry.snapshot();
        assert_eq!(
            after.counter("bgp.fsm.to_idle"),
            before.counter("bgp.fsm.to_idle") + 2
        );
        assert_eq!(
            after.counter("bgp.fsm.transitions"),
            before.counter("bgp.fsm.transitions") + 2
        );
    }

    #[test]
    fn announce_after_established_also_propagates() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let p = Prefix::v4(10, 20, 0, 0, 16);
        let outs = a.originate(p, SimTime::from_secs(1));
        let mut delivered = false;
        for o in outs {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
                delivered = true;
            }
        }
        assert!(delivered);
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn withdraw_removes_route_downstream() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        for o in a.withdraw_origin(p, SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(2));
            }
        }
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
    }

    #[test]
    fn ebgp_export_prepends_and_sets_next_hop() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        let mut c = speaker(3);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        b.add_peer(PeerConfig::new(PeerId(1), Asn(3))).unwrap();
        c.add_peer(PeerConfig::new(PeerId(0), Asn(2)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // Now connect b<->c; b should pass the route along with its ASN.
        let mut to_c: Vec<BgpMessage> = Vec::new();
        let mut to_b: Vec<BgpMessage> = Vec::new();
        for o in b.start_peer(PeerId(1), SimTime::ZERO) {
            if let Output::Send(_, m) = o {
                to_c.push(m);
            }
        }
        for o in c.start_peer(PeerId(0), SimTime::ZERO) {
            if let Output::Send(_, m) = o {
                to_b.push(m);
            }
        }
        for _ in 0..64 {
            if to_b.is_empty() && to_c.is_empty() {
                break;
            }
            let mut nb = Vec::new();
            let mut nc = Vec::new();
            for m in to_c.drain(..) {
                for o in c.on_message(PeerId(0), m, SimTime::ZERO) {
                    if let Output::Send(_, m) = o {
                        nb.push(m);
                    }
                }
            }
            for m in to_b.drain(..) {
                for o in b.on_message(PeerId(1), m, SimTime::ZERO) {
                    if let Output::Send(p, m) = o {
                        assert_eq!(p, PeerId(1));
                        nc.push(m);
                    }
                }
            }
            to_b = nb;
            to_c = nc;
        }
        let best = c.loc_rib().get(&p).expect("c learned the route");
        assert_eq!(best.attrs.as_path.to_string(), "2 1");
        assert_eq!(best.attrs.next_hop, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn loop_detection_rejects_own_asn() {
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        // Fake an established session then inject a poisoned update.
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let poisoned = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(1), Asn(2), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            ..Default::default()
        });
        let p = Prefix::v4(10, 66, 0, 0, 16);
        let outs = b.on_message(
            PeerId(0),
            BgpMessage::Update(UpdateMessage::announce(poisoned, vec![Nlri::plain(p)])),
            SimTime::from_secs(1),
        );
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::ImportRejected(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
    }

    #[test]
    fn import_policy_rejection_is_implicit_withdraw() {
        use crate::policy::{Action, Match};
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        // b rejects announcements carrying community 1:666 on import.
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .import(Policy::accept_all().rule(
                    Match::HasCommunity(Community::new(1, 666)),
                    vec![Action::Reject],
                )),
        )
        .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        // Re-announce with the bad community: b must drop the route.
        for o in a.withdraw_origin(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
            }
        }
        for o in a.originate_with(p, vec![Community::new(1, 666)], SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(2));
            }
        }
        assert!(b.loc_rib().get(&p).is_none());
    }

    #[test]
    fn no_export_community_stops_at_ebgp() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        b.add_peer(PeerConfig::new(PeerId(1), Asn(3))).unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate_with(p, vec![Community::NO_EXPORT], SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some(), "b itself uses the route");
        // b must not have queued it for AS3 even once the session is up.
        assert!(b.adj_rib_out(PeerId(1)).unwrap().is_empty());
    }

    #[test]
    fn best_path_switches_on_shorter_path() {
        let mut c = speaker(3);
        c.add_peer(PeerConfig::new(PeerId(10), Asn(1)).passive())
            .unwrap();
        c.add_peer(PeerConfig::new(PeerId(20), Asn(2)).passive())
            .unwrap();
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(3))).unwrap();
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(3))).unwrap();
        settle(&mut a, &mut c, PeerId(0), PeerId(10), SimTime::ZERO);
        settle(&mut b, &mut c, PeerId(0), PeerId(20), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        // AS1 announces with a long path; AS2 with a short one.
        let long = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(1), Asn(9), Asn(8), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            ..Default::default()
        });
        c.on_message(
            PeerId(10),
            BgpMessage::Update(UpdateMessage::announce(long, vec![Nlri::plain(p)])),
            SimTime::from_secs(1),
        );
        assert_eq!(c.loc_rib().get(&p).unwrap().attrs.as_path.hop_count(), 4);
        let short = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(2), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            ..Default::default()
        });
        let outs = c.on_message(
            PeerId(20),
            BgpMessage::Update(UpdateMessage::announce(short, vec![Nlri::plain(p)])),
            SimTime::from_secs(2),
        );
        assert_eq!(c.loc_rib().get(&p).unwrap().peer, PeerId(20));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::BestChanged { .. }))));
    }

    #[test]
    fn peer_down_clears_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let outs = b.stop_peer(PeerId(0), SimTime::from_secs(5));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
        assert!(!b.peer_established(PeerId(0)));
    }

    #[test]
    fn route_server_mode_is_transparent() {
        let mut rs = Speaker::new(
            SpeakerConfig::new(Asn(100), Ipv4Addr::new(80, 249, 208, 255)).route_server(),
        );
        rs.add_peer(PeerConfig::new(PeerId(1), Asn(1)).passive())
            .unwrap();
        rs.add_peer(PeerConfig::new(PeerId(2), Asn(2)).passive())
            .unwrap();
        let mut m1 = speaker(1);
        m1.add_peer(PeerConfig::new(PeerId(0), Asn(100))).unwrap();
        let mut m2 = speaker(2);
        m2.add_peer(PeerConfig::new(PeerId(0), Asn(100))).unwrap();
        settle(&mut m1, &mut rs, PeerId(0), PeerId(1), SimTime::ZERO);
        settle(&mut m2, &mut rs, PeerId(0), PeerId(2), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        for o in m1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in rs.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(to, msg) = o2 {
                        assert_eq!(to, PeerId(2), "split horizon: only the other member");
                        m2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        let best = m2.loc_rib().get(&p).expect("member 2 learned via RS");
        // The RS did NOT prepend AS100 and did NOT rewrite the next hop.
        assert_eq!(best.attrs.as_path.to_string(), "1");
        assert!(!best.attrs.as_path.contains(Asn(100)));
        assert_eq!(best.attrs.next_hop, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn all_paths_peer_receives_every_route_with_path_ids() {
        // Server hears the same prefix from two upstreams, exports ALL
        // paths to an AllPaths (mux) client.
        let mut server = Speaker::new(
            SpeakerConfig::new(Asn(47065), Ipv4Addr::new(100, 64, 0, 1)).route_server(),
        );
        server
            .add_peer(PeerConfig::new(PeerId(1), Asn(1)).passive())
            .unwrap();
        server
            .add_peer(PeerConfig::new(PeerId(2), Asn(2)).passive())
            .unwrap();
        server
            .add_peer(PeerConfig::new(PeerId(9), Asn(65001)).all_paths().passive())
            .unwrap();
        let mut u1 = speaker(1);
        u1.add_peer(PeerConfig::new(PeerId(0), Asn(47065))).unwrap();
        let mut u2 = speaker(2);
        u2.add_peer(PeerConfig::new(PeerId(0), Asn(47065))).unwrap();
        let mut client = Speaker::new(SpeakerConfig::new(Asn(65001), Ipv4Addr::new(100, 64, 0, 9)));
        client
            .add_peer(PeerConfig::new(PeerId(0), Asn(47065)))
            .unwrap();
        settle(&mut u1, &mut server, PeerId(0), PeerId(1), SimTime::ZERO);
        settle(&mut u2, &mut server, PeerId(0), PeerId(2), SimTime::ZERO);
        settle(
            &mut client,
            &mut server,
            PeerId(0),
            PeerId(9),
            SimTime::ZERO,
        );
        let p = Prefix::v4(10, 10, 0, 0, 16);
        let mut to_server: Vec<BgpMessage> = Vec::new();
        for o in u1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                to_server.push(m);
            }
        }
        for m in to_server.drain(..) {
            for o in server.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                if let Output::Send(PeerId(9), msg) = o {
                    client.on_message(PeerId(0), msg, SimTime::from_secs(1));
                }
            }
        }
        for o in u2.originate(p, SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                for o2 in server.on_message(PeerId(2), m, SimTime::from_secs(2)) {
                    if let Output::Send(PeerId(9), msg) = o2 {
                        client.on_message(PeerId(0), msg, SimTime::from_secs(2));
                    }
                }
            }
        }
        // The client holds BOTH paths, distinguished by path id.
        let rib = client.adj_rib_in(PeerId(0)).unwrap();
        assert_eq!(rib.paths(&p).count(), 2);
        let ids: Vec<u32> = rib.paths(&p).map(|r| r.path_id).collect();
        assert_eq!(ids, vec![2, 3]); // learning-peer ids 1 and 2, plus 1
        let firsts: BTreeSet<String> = rib.paths(&p).map(|r| r.attrs.as_path.to_string()).collect();
        assert!(firsts.contains("1") && firsts.contains("2"));
    }

    #[test]
    fn damping_suppresses_flapping_route() {
        // Hold times long enough that the session outlives the damping
        // decay window without keepalive exchanges in this harness.
        let week = SimDuration::from_secs(7 * 24 * 3600);
        let mut acfg = SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1));
        acfg.hold_time = week;
        let mut a = Speaker::new(acfg);
        let mut bcfg = SpeakerConfig::new(Asn(2), Ipv4Addr::new(10, 0, 0, 2))
            .with_damping(DampingConfig::default());
        bcfg.hold_time = week;
        let mut b = Speaker::new(bcfg);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        let mut now = SimTime::ZERO;
        let mut suppressed_seen = false;
        for _ in 0..4 {
            now += SimDuration::from_secs(10);
            for o in a.originate(p, now) {
                if let Output::Send(_, m) = o {
                    for o2 in b.on_message(PeerId(0), m, now) {
                        if matches!(o2, Output::Event(SpeakerEvent::Suppressed(_, _))) {
                            suppressed_seen = true;
                        }
                    }
                }
            }
            now += SimDuration::from_secs(10);
            for o in a.withdraw_origin(p, now) {
                if let Output::Send(_, m) = o {
                    for o2 in b.on_message(PeerId(0), m, now) {
                        if matches!(o2, Output::Event(SpeakerEvent::Suppressed(_, _))) {
                            suppressed_seen = true;
                        }
                    }
                }
            }
        }
        assert!(suppressed_seen, "flapping must trigger suppression");
        // Announce once more: route installs to adj-in but is suppressed
        // from the decision process.
        now += SimDuration::from_secs(10);
        for o in a.originate(p, now) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, now);
            }
        }
        assert!(b.loc_rib().get(&p).is_none(), "suppressed from Loc-RIB");
        // After the penalty decays, a tick releases the route.
        let much_later = now + SimDuration::from_secs(3 * 3600);
        b.tick(much_later);
        assert!(
            b.loc_rib().get(&p).is_some(),
            "released after damping decay"
        );
    }

    #[test]
    fn table_memory_grows_with_routes_and_shares_attrs() {
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let empty = b.table_memory();
        for i in 0..100u32 {
            let p = Prefix::v4(10, (i >> 8) as u8, (i & 0xff) as u8, 0, 24);
            for o in a.originate(p, SimTime::from_secs(1)) {
                if let Output::Send(_, m) = o {
                    b.on_message(PeerId(0), m, SimTime::from_secs(1));
                }
            }
        }
        let full = b.table_memory();
        assert!(full > empty, "memory must grow: {empty} -> {full}");
        // All 100 routes share one attribute set via the interner.
        let (distinct, hits, _misses) = b.interner_stats();
        assert!(hits >= 99, "hits={hits}");
        assert!(distinct <= 4, "distinct={distinct}");
    }

    #[test]
    fn route_refresh_resends_table() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let outs = a.on_message(PeerId(0), BgpMessage::RouteRefresh, SimTime::from_secs(1));
        // Adj-RIB-Out is unchanged so the diff suppresses re-sending; the
        // refresh still produces the End-of-RIB marker.
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if u.is_end_of_rib())));
    }

    #[test]
    fn remove_peer_withdraws_its_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        b.remove_peer(PeerId(0), SimTime::from_secs(1));
        assert!(b.loc_rib().get(&p).is_none());
        assert_eq!(b.peer_count(), 0);
    }

    #[test]
    fn re_adding_an_established_peer_is_refused() {
        // Replacing the PeerState used to drop the Adj-RIB-In under the
        // Loc-RIB's best path, with no PeerDown and no withdrawal.
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let again = b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        assert_eq!(again, Err(PeerExists(PeerId(0))));
        assert_eq!(b.check_invariants(), Ok(()));
        assert!(b.peer_established(PeerId(0)));
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
        assert!(b.loc_rib().get(&p).is_some());
        // The supported way to reconfigure: remove (a loss), then add.
        b.remove_peer(PeerId(0), SimTime::from_secs(1));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        assert!(b.loc_rib().get(&p).is_none());
        assert_eq!(b.check_invariants(), Ok(()));
    }

    /// Establish a session between two multi-peer speakers by shuttling
    /// messages directly (no single-peer assertion like `settle`).
    fn establish_pair(
        a: &mut Speaker,
        a_peer: PeerId,
        b: &mut Speaker,
        b_peer: PeerId,
        now: SimTime,
    ) {
        let filter = |outs: Vec<Output>, want: PeerId| -> Vec<BgpMessage> {
            outs.into_iter()
                .filter_map(|o| match o {
                    Output::Send(p, m) if p == want => Some(m),
                    _ => None,
                })
                .collect()
        };
        let mut to_b = filter(a.start_peer(a_peer, now), a_peer);
        let mut to_a = filter(b.start_peer(b_peer, now), b_peer);
        for _ in 0..32 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut na = Vec::new();
            let mut nb = Vec::new();
            for m in to_b.drain(..) {
                na.extend(filter(b.on_message(b_peer, m, now), b_peer));
            }
            for m in to_a.drain(..) {
                nb.extend(filter(a.on_message(a_peer, m, now), a_peer));
            }
            to_a = na;
            to_b = nb;
        }
        assert!(a.peer_established(a_peer) && b.peer_established(b_peer));
    }

    /// Hub-and-spoke iBGP: two spokes connected only to a hub router in
    /// the same AS.
    fn ibgp_hub_and_spokes(reflect: bool) -> (Speaker, Speaker, Speaker) {
        let asn = Asn(64620);
        let mut hub = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 1)));
        let mk_client_cfg = |id: u32, reflect: bool| {
            let cfg = PeerConfig::new(PeerId(id), asn).passive();
            if reflect {
                cfg.rr_client()
            } else {
                cfg
            }
        };
        hub.add_peer(mk_client_cfg(1, reflect)).unwrap();
        hub.add_peer(mk_client_cfg(2, reflect)).unwrap();
        let mut s1 = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 2)));
        s1.add_peer(PeerConfig::new(PeerId(0), asn)).unwrap();
        let mut s2 = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 3)));
        s2.add_peer(PeerConfig::new(PeerId(0), asn)).unwrap();
        establish_pair(&mut s1, PeerId(0), &mut hub, PeerId(1), SimTime::ZERO);
        establish_pair(&mut s2, PeerId(0), &mut hub, PeerId(2), SimTime::ZERO);
        (hub, s1, s2)
    }

    #[test]
    fn without_route_reflection_ibgp_does_not_transit_the_hub() {
        let (mut hub, mut s1, mut s2) = ibgp_hub_and_spokes(false);
        let p = Prefix::v4(10, 80, 0, 0, 16);
        for o in s1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in hub.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(PeerId(2), msg) = o2 {
                        s2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        assert!(hub.loc_rib().get(&p).is_some(), "hub itself learns it");
        assert!(
            s2.loc_rib().get(&p).is_none(),
            "classic iBGP split horizon: s2 must NOT learn it via the hub"
        );
    }

    #[test]
    fn route_reflection_lets_spokes_see_each_other() {
        let (mut hub, mut s1, mut s2) = ibgp_hub_and_spokes(true);
        let p = Prefix::v4(10, 81, 0, 0, 16);
        for o in s1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in hub.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(PeerId(2), msg) = o2 {
                        s2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        let r = s2.loc_rib().get(&p).expect("reflected to the other client");
        // iBGP preserves the path: no ASN was prepended inside the AS.
        assert_eq!(r.attrs.as_path.hop_count(), 0);
        assert_eq!(r.source, RouteSource::Ibgp);
        // The spokes hold ONE copy each — the Figure 2 discussion's
        // point about route reflectors and table copies.
        assert_eq!(s2.loc_rib().len(), 1);
    }

    #[test]
    fn invariants_hold_through_session_lifecycle() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        assert_eq!(a.check_invariants(), Ok(()));
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(a.check_invariants(), Ok(()));
        assert_eq!(b.check_invariants(), Ok(()));
        for o in a.withdraw_origin(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
            }
        }
        b.stop_peer(PeerId(0), SimTime::from_secs(2));
        assert_eq!(b.check_invariants(), Ok(()));
        // Corrupt the Loc-RIB directly: a best route pointing at a peer
        // path that does not exist must be reported.
        let phantom = Route {
            prefix: p,
            attrs: Arc::new(PathAttributes::originate(Ipv4Addr::new(9, 9, 9, 9))),
            peer: PeerId(77),
            path_id: 3,
            source: RouteSource::Ebgp,
            igp_cost: 0,
            learned_at: SimTime::ZERO,
            trace: None,
        };
        b.loc_rib.set_best(phantom);
        let err = b.check_invariants().unwrap_err();
        assert!(err.contains("missing adj-rib-in path"), "{err}");
    }

    /// A pair where `b` retains `a`'s routes across restarts and both
    /// ends reconnect automatically.
    fn resilient_pair() -> (Speaker, Speaker) {
        let mut a = Speaker::new(
            SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1))
                .with_connect_retry(crate::fsm::ConnectRetryConfig::new(11)),
        );
        let mut b = Speaker::new(
            SpeakerConfig::new(Asn(2), Ipv4Addr::new(10, 0, 0, 2))
                .with_connect_retry(crate::fsm::ConnectRetryConfig::new(22)),
        );
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .graceful_restart(SimDuration::from_secs(120)),
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn graceful_restart_retains_stale_paths_until_end_of_rib() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());

        // Transport loss at t=5s: no forwarding gap — the route stays in
        // b's Loc-RIB even though the session is down.
        let t1 = SimTime::from_secs(5);
        let outs = b.reset_peer(PeerId(0), t1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(!b.peer_established(PeerId(0)));
        assert!(
            b.loc_rib().get(&p).is_some(),
            "stale path keeps forwarding through the restart window"
        );

        // The far end also saw the loss and retries; re-establish and
        // resync at t=20s.
        a.reset_peer(PeerId(0), t1);
        let t2 = SimTime::from_secs(20);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), t2);
        assert!(b.peer_established(PeerId(0)));
        // The route was re-announced and the End-of-RIB swept nothing.
        assert!(b.loc_rib().get(&p).is_some());
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn end_of_rib_sweeps_paths_not_reannounced() {
        let (mut a, mut b) = resilient_pair();
        let p1 = Prefix::v4(10, 10, 0, 0, 16);
        let p2 = Prefix::v4(10, 20, 0, 0, 16);
        a.originate(p1, SimTime::ZERO);
        a.originate(p2, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        b.reset_peer(PeerId(0), t1);
        a.reset_peer(PeerId(0), t1);
        // While down, the far end loses one origination: after resync the
        // stale copy of p2 must be swept by the End-of-RIB.
        a.withdraw_origin(p2, SimTime::from_secs(6));
        assert!(b.loc_rib().get(&p2).is_some(), "still stale before resync");
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(20));
        assert!(b.loc_rib().get(&p1).is_some());
        assert!(
            b.loc_rib().get(&p2).is_none(),
            "End-of-RIB sweeps what was not re-announced"
        );
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn restart_timer_expiry_flushes_stale_paths() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        b.reset_peer(PeerId(0), t1);
        assert!(b.loc_rib().get(&p).is_some());
        // The peer never comes back: at the 120 s restart deadline the
        // stale paths are flushed.
        let outs = b.tick(SimTime::from_secs(126));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(SpeakerEvent::BestChanged { new: None, .. })
        )));
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn speaker_restart_loses_learned_state_but_keeps_originations() {
        let (mut a, mut b) = resilient_pair();
        let pa = Prefix::v4(10, 10, 0, 0, 16);
        let pb = Prefix::v4(10, 30, 0, 0, 16);
        a.originate(pa, SimTime::ZERO);
        b.originate(pb, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        let outs = b.restart(t1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(!b.peer_established(PeerId(0)));
        assert!(b.loc_rib().get(&pa).is_none(), "learned state is gone");
        assert!(b.loc_rib().get(&pb).is_some(), "origination survives");
        assert_eq!(b.check_invariants(), Ok(()));

        // The far end noticed (transport died with the process), both
        // sides reconverge.
        a.reset_peer(PeerId(0), t1);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(30));
        assert!(b.loc_rib().get(&pa).is_some());
        assert!(a.loc_rib().get(&pb).is_some());
    }

    #[test]
    fn recoverable_corruption_is_treated_as_withdraw_not_reset() {
        // RFC 7606: a malformed attribute on an otherwise-parsable UPDATE
        // must NOT be answered with a NOTIFICATION — the session stays
        // Established and the affected routes are withdrawn.
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let t1 = SimTime::from_secs(5);
        // The re-announcement arrives with attributes mangled in a
        // treat-as-withdraw-recoverable way.
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            ..Default::default()
        });
        let mangled = UpdateMessage::announce(attrs, vec![Nlri::plain(p)]);
        let outs = b.on_malformed_update(PeerId(0), mangled, t1);
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, Output::Send(_, BgpMessage::Notification(_)))),
            "recoverable corruption must not trigger a NOTIFICATION"
        );
        assert!(
            b.peer_established(PeerId(0)),
            "treat-as-withdraw keeps the session up"
        );
        // The announced route was handled as withdrawn.
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
        // The peer can simply re-announce — no session recycling needed.
        let t2 = SimTime::from_secs(6);
        let mut msgs: Vec<BgpMessage> = Vec::new();
        msgs.extend(
            a.withdraw_origin(p, t1)
                .into_iter()
                .filter_map(|o| match o {
                    Output::Send(_, m) => Some(m),
                    _ => None,
                }),
        );
        msgs.extend(a.originate(p, t2).into_iter().filter_map(|o| match o {
            Output::Send(_, m) => Some(m),
            _ => None,
        }));
        for m in msgs {
            b.on_message(PeerId(0), m, t2);
        }
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn unrecoverable_corruption_still_notifies_and_drops() {
        // Framing-level corruption has no recoverable interpretation:
        // the blanket NOTIFICATION-and-drop path remains.
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        let outs = b.on_corrupt_message(PeerId(0), t1);
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Send(_, BgpMessage::Notification(_)))),
            "unrecoverable corruption must be answered with a NOTIFICATION"
        );
        assert!(!b.peer_established(PeerId(0)));
        // GR keeps the path while the session recycles.
        assert!(b.loc_rib().get(&p).is_some());
        a.reset_peer(PeerId(0), t1);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(20));
        assert!(b.peer_established(PeerId(0)));
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn max_prefix_limit_ceases_session_and_flushes_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .with_max_prefix(MaxPrefixConfig::new(4).warn_at(3)),
        )
        .unwrap();
        for i in 0..3u8 {
            a.originate(Prefix::v4(10, i, 0, 0, 16), SimTime::ZERO);
        }
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.peer_established(PeerId(0)), "at the warn threshold");
        assert_eq!(b.loc_rib().len(), 3);
        // Two more prefixes push the count past the hard limit.
        let t1 = SimTime::from_secs(5);
        let mut pending: Vec<BgpMessage> = Vec::new();
        for pfx in [Prefix::v4(10, 10, 0, 0, 16), Prefix::v4(10, 11, 0, 0, 16)] {
            pending.extend(a.originate(pfx, t1).into_iter().filter_map(|o| match o {
                Output::Send(_, m) => Some(m),
                _ => None,
            }));
        }
        let mut ceased = Vec::new();
        for m in pending {
            ceased.extend(b.on_message(PeerId(0), m, t1));
        }
        assert!(
            ceased.iter().any(|o| matches!(
                o,
                Output::Send(_, BgpMessage::Notification(n)) if n.code == NotifCode::Cease && n.subcode == 1
            )),
            "hard limit must be answered with Cease subcode 1"
        );
        assert!(!b.peer_established(PeerId(0)));
        assert!(b.loc_rib().is_empty(), "the flooder's routes are flushed");
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn set_peer_import_refilters_adj_rib_in() {
        let (mut a, mut b) = resilient_pair();
        let p1 = Prefix::v4(10, 10, 0, 0, 16);
        let p2 = Prefix::v4(10, 20, 0, 0, 16);
        a.originate(p1, SimTime::ZERO);
        a.originate(p2, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);
        // Quarantine: reject everything the peer offers.
        let t1 = SimTime::from_secs(5);
        let outs = b.set_peer_import(PeerId(0), Policy::reject_all(), t1);
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(SpeakerEvent::BestChanged { new: None, .. })
        )));
        assert!(b.loc_rib().is_empty());
        assert!(
            b.peer_established(PeerId(0)),
            "quarantine keeps the session"
        );
        // Lift the quarantine: restore the policy and ask for a refresh.
        let t2 = SimTime::from_secs(10);
        b.set_peer_import(PeerId(0), Policy::accept_all(), t2);
        let refresh = b.request_refresh(PeerId(0));
        assert_eq!(
            refresh,
            vec![Output::Send(PeerId(0), BgpMessage::RouteRefresh)]
        );
        let mut pending: Vec<BgpMessage> = vec![BgpMessage::RouteRefresh];
        for _ in 0..8 {
            if pending.is_empty() {
                break;
            }
            let mut back: Vec<BgpMessage> = Vec::new();
            for m in pending.drain(..) {
                back.extend(
                    a.on_message(PeerId(0), m, t2)
                        .into_iter()
                        .filter_map(|o| match o {
                            Output::Send(_, m) => Some(m),
                            _ => None,
                        }),
                );
            }
            for m in back {
                b.on_message(PeerId(0), m, t2);
            }
        }
        assert_eq!(b.loc_rib().len(), 2, "refresh restores the routes");
        assert_eq!(b.check_invariants(), Ok(()));
    }

    /// A listener on `b` (speaker `asn`, peer id `id` in `b`) brought up
    /// at `now`: what it holds afterwards is the full table `b` sent it.
    fn listener(b: &mut Speaker, id: u32, asn: u32, now: SimTime) -> Speaker {
        b.add_peer(PeerConfig::new(PeerId(id), Asn(asn)).passive())
            .unwrap();
        let mut l = speaker(asn);
        l.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        establish_pair(&mut l, PeerId(0), b, PeerId(id), now);
        l
    }

    #[test]
    fn full_table_sends_stale_paths_until_the_sweep() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        b.reset_peer(PeerId(0), SimTime::from_secs(5));
        assert!(!b.peer_established(PeerId(0)));
        // Inside the restart window the stale path still forwards, so a
        // session coming up now is sent it.
        let c = listener(&mut b, 1, 3, SimTime::from_secs(6));
        assert!(
            c.loc_rib().get(&p).is_some(),
            "stale path in the full table"
        );
        // The restart deadline sweeps it; a later session gets nothing.
        b.tick(SimTime::from_secs(126));
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        let d = listener(&mut b, 2, 4, SimTime::from_secs(127));
        assert!(d.loc_rib().is_empty(), "swept path left the full table");
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn full_table_after_quarantining_the_only_feeder_is_local_routes() {
        let (mut a, mut b) = resilient_pair();
        let learned = Prefix::v4(10, 10, 0, 0, 16);
        let local = Prefix::v4(10, 30, 0, 0, 16);
        a.originate(learned, SimTime::ZERO);
        b.originate(local, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);
        b.set_peer_import(PeerId(0), Policy::reject_all(), SimTime::from_secs(5));
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        let c = listener(&mut b, 1, 3, SimTime::from_secs(6));
        let got: Vec<Prefix> = c.loc_rib().iter().map(|r| r.prefix).collect();
        assert_eq!(got, vec![local]);
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn hold_timer_expiry_clears_peer_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // No keepalives flow; push time past the hold deadline.
        let outs = b.tick(SimTime::from_secs(300));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
    }

    /// Under MRAI packing, `WithdrawSent` must be recorded when the
    /// packed UPDATE actually hits the wire (at the flush), not when the
    /// delta is staged — and never for a staged withdraw that a later
    /// announce supersedes before the flush.
    #[test]
    fn mrai_records_withdraw_sent_at_flush_only() {
        let mrai = SimDuration::from_secs(10);
        let mut a =
            Speaker::new(SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1)).with_mrai(mrai));
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);

        let log = ProvenanceLog::new();
        a.set_provenance(log.clone());
        let withdraw_sent = |log: &ProvenanceLog| {
            log.records()
                .into_iter()
                .filter(|r| matches!(r.event, ProvenanceEvent::WithdrawSent { .. }))
                .collect::<Vec<_>>()
        };

        // Staging records nothing: the withdrawal has not been sent.
        // (All times stay well inside the 90 s hold timer.)
        let t1 = SimTime::from_secs(1);
        let outs = a.withdraw_origin(p, t1);
        assert!(
            !outs.iter().any(|o| matches!(o, Output::Send(_, _))),
            "packed withdraw must stage, not send"
        );
        assert!(withdraw_sent(&log).is_empty());

        // Flushing records it, stamped with the flush time.
        let t2 = t1 + mrai;
        let outs = a.tick(t2);
        assert!(outs.iter().any(
            |o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if !u.withdrawn.is_empty())
        ));
        let sent = withdraw_sent(&log);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].time, t2);
        assert!(matches!(
            sent[0].event,
            ProvenanceEvent::WithdrawSent { prefix, .. } if prefix == p
        ));

        // A withdraw superseded by a re-announce before the deadline
        // never hits the wire, so it is never recorded as sent.
        let t3 = SimTime::from_secs(20);
        a.originate(p, t3);
        a.tick(t3 + mrai);
        let t4 = SimTime::from_secs(40);
        a.withdraw_origin(p, t4);
        a.originate(p, t4 + SimDuration::from_secs(1));
        let outs = a.tick(t4 + mrai + SimDuration::from_secs(1));
        assert!(
            outs.iter().any(
                |o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if !u.announced.is_empty())
            ),
            "the superseding announce flushes"
        );
        assert_eq!(
            withdraw_sent(&log).len(),
            1,
            "no WithdrawSent for the superseded staged withdraw"
        );
    }

    /// The UPDATEs in `outs`, by the peer they go to.
    fn updates_to(outs: &[Output]) -> Vec<PeerId> {
        let update = |o: &Output| match o {
            Output::Send(peer, BgpMessage::Update(_)) => Some(*peer),
            _ => None,
        };
        outs.iter().filter_map(update).collect()
    }

    /// [`feeder_and_listener`] pacing its exports at 30 s, the feeder held
    /// to two prefixes, with one export staged toward both peers at 1 s.
    fn paced_with_a_staged_export() -> Speaker {
        let cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        let mut s = establish_feeder_and_listener(
            Speaker::new(cfg.with_mrai(SimDuration::from_secs(30))),
            PeerConfig::new(PeerId(0), Asn(100)).with_max_prefix(MaxPrefixConfig::new(2)),
            PeerConfig::new(PeerId(1), Asn(200)),
        );
        let staged = s.originate(Prefix::v4(10, 9, 0, 0, 16), SimTime::from_secs(1));
        assert_eq!(updates_to(&staged), vec![], "paced exports stage");
        assert_eq!(s.next_deadline(), SimTime::from_secs(30), "keepalive first");
        s
    }

    #[test]
    fn max_prefix_cease_drops_the_deltas_staged_for_the_ceased_peer() {
        let mut s = paced_with_a_staged_export();
        let flood: Vec<Prefix> = (1..=3).map(|i| Prefix::v4(10, i, 0, 0, 16)).collect();
        let outs = s.on_message(
            PeerId(0),
            shared_attrs_update(&flood),
            SimTime::from_secs(2),
        );
        assert!(!s.peer_established(PeerId(0)), "the flooder is ceased");
        assert_eq!(updates_to(&outs), vec![]);
        // Past the MRAI deadline the listener gets its batch; the staged
        // export toward the ceased session died with it.
        let flushed = s.tick(SimTime::from_secs(32));
        assert_eq!(updates_to(&flushed), vec![PeerId(1)]);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn restart_drops_every_staged_delta() {
        let mut s = paced_with_a_staged_export();
        s.restart(SimTime::from_secs(2));
        assert!(!s.peer_established(PeerId(0)) && !s.peer_established(PeerId(1)));
        assert_eq!(updates_to(&s.tick(SimTime::from_secs(32))), vec![]);
        assert_eq!(s.next_deadline(), SimTime::MAX, "no timer left armed");
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn remove_peer_takes_the_session_down_like_any_other_loss() {
        let mut s = feeder_and_listener(Policy::accept_all());
        let telemetry = Telemetry::new();
        s.set_telemetry(telemetry.clone());
        let p = Prefix::v4(10, 1, 0, 0, 16);
        s.on_message(PeerId(0), shared_attrs_update(&[p]), SimTime::from_secs(1));
        let outs = s.remove_peer(PeerId(0), SimTime::from_secs(2));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(PeerId(0), _)))));
        assert_eq!(updates_to(&outs), vec![PeerId(1)], "the route is withdrawn");
        let counters = telemetry.snapshot();
        assert_eq!(counters.counter("bgp.fsm.to_idle"), 1);
        assert_eq!(counters.counter("bgp.session.down"), 1);
        assert_eq!(s.peer_count(), 1);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn next_deadline_follows_the_timer_index_across_a_thousand_peers() {
        // Peer i comes up at i ms (keepalives due 30 s later). Only the
        // listener is exported to, so only it arms MRAI; only the GR peer
        // keeps stale paths.
        let (listener, gr) = (PeerId(500), PeerId(7));
        let cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        let mut s = Speaker::new(cfg.with_mrai(SimDuration::from_secs(5)));
        let peer_cfg = |id: u32| {
            let cfg = PeerConfig::new(PeerId(id), Asn(100 + id));
            match PeerId(id) {
                p if p == listener => cfg,
                p if p == gr => cfg
                    .export(Policy::reject_all())
                    .graceful_restart(SimDuration::from_secs(3)),
                _ => cfg.export(Policy::reject_all()),
            }
        };
        for id in 0..1000 {
            let (now, asn) = (SimTime::from_millis(u64::from(id)), Asn(100 + id));
            s.add_peer(peer_cfg(id)).unwrap();
            s.start_peer(PeerId(id), now);
            let open = crate::message::OpenMessage::new(asn, 90, Ipv4Addr::new(10, 1, 0, 1));
            s.on_message(PeerId(id), BgpMessage::Open(open), now);
            s.on_message(PeerId(id), BgpMessage::Keepalive, now);
        }
        let step = |s: &Speaker, at: &str, due: SimTime| {
            assert_eq!(s.next_deadline(), due, "{at}");
            assert_eq!(s.check_invariants(), Ok(()), "{at}");
        };
        step(&s, "peer 0's keepalive", SimTime::from_secs(30));
        s.originate(Prefix::v4(10, 9, 0, 0, 16), SimTime::from_secs(1));
        step(&s, "the listener's MRAI", SimTime::from_secs(6));
        s.reset_peer(gr, SimTime::from_secs(2));
        step(&s, "the GR peer's stale paths", SimTime::from_secs(5));
        s.remove_peer(gr, SimTime::from_secs(3));
        step(&s, "the earliest removed", SimTime::from_secs(6));
        assert_eq!(s.add_peer(peer_cfg(500)), Err(PeerExists(listener)));
        s.add_peer(peer_cfg(7)).unwrap();
        step(&s, "a refused and an idle add", SimTime::from_secs(6));
        assert_eq!(updates_to(&s.tick(SimTime::from_secs(6))), vec![listener]);
        step(&s, "MRAI flushed", SimTime::from_secs(30));
        s.restart(SimTime::from_secs(7));
        step(&s, "every session idle", SimTime::MAX);
    }

    /// A speaker (AS 65000) with one established feeder (peer 0, AS 100)
    /// and one established listener (peer 1, AS 200) exporting under
    /// `export`; the far ends are played by hand.
    fn feeder_and_listener(export: Policy) -> Speaker {
        establish_feeder_and_listener(
            speaker(65000),
            PeerConfig::new(PeerId(0), Asn(100)),
            PeerConfig::new(PeerId(1), Asn(200)).export(export),
        )
    }

    fn establish_feeder_and_listener(
        mut s: Speaker,
        feeder: PeerConfig,
        listener: PeerConfig,
    ) -> Speaker {
        for peer in [feeder, listener] {
            let (id, asn) = (peer.id.0, peer.asn.0);
            s.add_peer(peer).unwrap();
            s.start_peer(PeerId(id), SimTime::ZERO);
            let open = crate::message::OpenMessage::new(Asn(asn), 90, Ipv4Addr::new(10, 1, 0, 1));
            s.on_message(PeerId(id), BgpMessage::Open(open), SimTime::ZERO);
            s.on_message(PeerId(id), BgpMessage::Keepalive, SimTime::ZERO);
            assert!(s.peer_established(PeerId(id)));
        }
        s
    }

    /// One UPDATE from the feeder: `prefixes` sharing one attribute set.
    fn shared_attrs_update(prefixes: &[Prefix]) -> BgpMessage {
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&[Asn(100), Asn(101)]),
            ..Default::default()
        };
        let nlris = prefixes.iter().copied().map(Nlri::plain).collect();
        BgpMessage::Update(UpdateMessage::announce(Arc::new(attrs), nlris))
    }

    #[test]
    fn prefix_reading_export_policy_is_decided_per_prefix() {
        // Two prefixes arrive in one UPDATE and share one interned
        // attribute set; an export policy that reads the prefix must
        // still give each its own verdict (and its own rewrite) rather
        // than the staged outcome memoized for the other.
        let (kept, dropped) = (Prefix::v4(10, 1, 0, 0, 16), Prefix::v4(10, 2, 0, 0, 16));
        let reads_prefix = Policy::accept_all()
            .rule(Match::PrefixExact(vec![dropped]), vec![Action::Reject])
            .rule(
                Match::PrefixIn(vec![Prefix::v4(10, 1, 0, 0, 16)]),
                vec![Action::Prepend(Asn(65000), 2)],
            );
        assert!(!reads_prefix.is_prefix_free());
        for order in [[kept, dropped], [dropped, kept]] {
            let mut s = feeder_and_listener(reads_prefix.clone());
            let outs = s.on_message(
                PeerId(0),
                shared_attrs_update(&order),
                SimTime::from_secs(1),
            );
            let sent: Vec<(Prefix, usize)> = outs
                .iter()
                .filter_map(|o| match o {
                    Output::Send(PeerId(1), BgpMessage::Update(u)) => {
                        let hops = u.attrs.as_ref()?.as_path.hop_count() as usize;
                        Some((u.announced[0].prefix, hops))
                    }
                    _ => None,
                })
                .collect();
            // The kept prefix goes out prepended twice on top of the
            // eBGP self-prepend; the dropped one does not go out at all.
            assert_eq!(sent, vec![(kept, 5)], "order {order:?}");
            let out = s.adj_rib_out(PeerId(1)).unwrap();
            assert!(out.get(&kept, 0).is_some() && out.get(&dropped, 0).is_none());
        }
    }

    #[test]
    fn prefix_free_export_policy_shares_one_staged_outcome() {
        // The counterpart: under a prefix-free policy the two prefixes
        // leave with the very same exported allocation, and the interner
        // statistics read as if each had been looked up on its own.
        let (a, b) = (Prefix::v4(10, 1, 0, 0, 16), Prefix::v4(10, 2, 0, 0, 16));
        let tag = Policy::accept_all().rule(Match::Any, vec![Action::SetMed(7)]);
        assert!(tag.is_prefix_free());
        let mut s = feeder_and_listener(tag);
        let before = s.interner_stats();
        s.on_message(
            PeerId(0),
            shared_attrs_update(&[a, b]),
            SimTime::from_secs(1),
        );
        let out = s.adj_rib_out(PeerId(1)).unwrap();
        let (ra, rb) = (out.get(&a, 0).unwrap(), out.get(&b, 0).unwrap());
        assert!(Arc::ptr_eq(&ra.attrs, &rb.attrs));
        assert_eq!(ra.attrs.med, Some(7));
        // Two imports and two listener-side exports; the feeder's own
        // group sees a split-horizon source but still stages it (2 more).
        // One allocation each for the imported and the exported set, and
        // a third for what goes back toward the feeder's group.
        let after = s.interner_stats();
        let lookups = (after.1 + after.2) - (before.1 + before.2);
        assert_eq!(lookups, 6);
        assert_eq!(after.2 - before.2, 3);
    }
}
