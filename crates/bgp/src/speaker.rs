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
use crate::message::{BgpMessage, Nlri, UpdateMessage};
use crate::policy::Policy;
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

/// One thing that happens to a speaker: a message, a timer, a fault or a
/// reconfiguration. [`Speaker::apply`] is the one way in.
#[derive(Debug, Clone)]
pub enum Input {
    /// A message from a peer.
    Message(PeerId, BgpMessage),
    /// Serve every due timer: session, graceful-restart and MRAI
    /// deadlines, and damping releases (see [`Speaker::timers_due`]).
    Tick,
    /// Start (or restart) the session with a peer; a no-op while the peer
    /// is disabled (see [`PeerConfig::enabled`]).
    StartPeer(PeerId),
    /// Administratively stop the session with a peer.
    StopPeer(PeerId),
    /// Flip a peer's administrative state. Disabling stops the session
    /// (Cease) and pins it down: retries never arm and starts no-op, even
    /// after a daemon restart. Enabling starts the session.
    SetPeerEnabled(PeerId, bool),
    /// Tear down the transport under a session (chaos: TCP reset, link
    /// cut). With retry configured it reconnects by itself; with graceful
    /// restart the peer's paths go stale rather than vanishing.
    ResetPeer(PeerId),
    /// An unparseable message from a peer: NOTIFICATION out, session down.
    CorruptMessage(PeerId),
    /// An UPDATE malformed in a way RFC 7606 calls recoverable: the
    /// session stays up and the announced routes are treated as withdrawn.
    MalformedUpdate(PeerId, UpdateMessage),
    /// Ask an established peer to re-send its table (ROUTE-REFRESH, RFC
    /// 2918), as lifting a quarantine needs.
    RequestRefresh(PeerId),
    /// Cold restart after a crash: every session drops to Idle and all
    /// learned state goes; local originations (configuration) survive.
    Restart,
    /// Originate a prefix carrying the given communities.
    Originate(Prefix, Vec<Community>),
    /// Withdraw a locally originated prefix.
    WithdrawOrigin(Prefix),
    /// Deconfigure a peer: its session goes down like any other loss.
    RemovePeer(PeerId),
    /// Swap a peer's import policy and re-filter its Adj-RIB-In, withdrawing
    /// what the new policy rejects: the quarantine lever.
    SetPeerImport(PeerId, Policy),
    /// Swap a peer's export policy: the peer moves to the group matching it
    /// and is sent exactly the routes whose verdict changed.
    SetPeerExport(PeerId, Policy),
    /// Re-resolve a peer's export group (quarantine moves a tenant to a
    /// solo group, parole moves it back). A move to an identical
    /// fingerprint sends nothing; otherwise only the diff against what the
    /// peer was sent goes out.
    SetPeerExportGrouping(PeerId, ExportGrouping),
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

    /// Register a peer. The session starts in Idle; [`Input::StartPeer`]
    /// brings it up. An id that is already configured is refused: to
    /// reconfigure a peer, [`Input::RemovePeer`] it first, so what it
    /// taught us is withdrawn like any other loss.
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

    /// Apply one input at `now`, appending what it produces to `out`.
    /// Debug builds re-check every cross-structure invariant afterwards.
    pub fn apply(&mut self, input: Input, now: SimTime, out: &mut Vec<Output>) {
        match input {
            Input::Message(from, msg) => {
                self.drive_session(from, now, out, |s| s.on_message(msg, now))
            }
            Input::Tick => self.tick_timers(now, out),
            Input::StartPeer(peer) => self.start_session(peer, now, out),
            Input::StopPeer(peer) => self.drive_session(peer, now, out, |s| s.stop(now)),
            Input::SetPeerEnabled(peer, enabled) => self.set_enabled(peer, enabled, now, out),
            Input::ResetPeer(peer) => self.reset_transport(peer, now, out),
            Input::CorruptMessage(from) => {
                self.drive_session(from, now, out, |s| s.on_corrupt(now))
            }
            Input::MalformedUpdate(from, update) => self.malformed_update(from, update, now, out),
            Input::RequestRefresh(peer) => {
                if self.peer_established(peer) {
                    out.push(Output::Send(peer, BgpMessage::RouteRefresh));
                }
            }
            Input::Restart => self.restart_cold(now, out),
            Input::Originate(prefix, communities) => self.originate(prefix, communities, now, out),
            Input::WithdrawOrigin(prefix) => self.withdraw_origin(prefix, now, out),
            Input::RemovePeer(peer) => self.remove_peer(peer, now, out),
            Input::SetPeerImport(peer, policy) => self.set_import(peer, policy, now, out),
            Input::SetPeerExport(peer, policy) => {
                self.reseat_peer_group(peer, now, out, |cfg| cfg.export = policy)
            }
            Input::SetPeerExportGrouping(peer, grouping) => {
                self.reseat_peer_group(peer, now, out, |cfg| cfg.grouping = grouping)
            }
        }
        self.debug_check();
    }

    /// [`Input::Message`] through [`apply`](Self::apply), into a new vector.
    /// This and the next two forwards remain for the router benchmark.
    pub fn on_message(&mut self, from: PeerId, msg: BgpMessage, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.apply(Input::Message(from, msg), now, &mut out);
        out
    }

    /// [`Input::Tick`] through [`apply`](Self::apply), into a new vector.
    pub fn tick(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.apply(Input::Tick, now, &mut out);
        out
    }

    /// [`Input::StartPeer`] through [`apply`](Self::apply), into a new vector.
    pub fn start_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.apply(Input::StartPeer(peer), now, &mut out);
        out
    }

    fn remove_peer(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        // Take the session down like any other loss (Cease, `PeerDown`,
        // FSM accounting), then drop the configuration.
        self.drive_session(peer, now, out, |s| s.stop(now));
        // Graceful restart kept the paths as stale; a removed peer's go now.
        let affected = self.session_lost(peer, None);
        self.reconsider_with(&affected, now, None, out);
        let key = self.export_group_of(peer);
        if let (Some(key), Some(state)) = (key, self.peers.remove(&peer)) {
            self.timers.remove(&(state.armed, peer));
            // Set by a start, cleared at Established: a peer removed
            // mid-handshake still has one.
            self.session_started.remove(&peer);
            self.export.leave(&self.peers, peer, key);
        }
    }

    /// Debug builds re-check cross-structure consistency after every input.
    fn debug_check(&self) {
        debug_assert_eq!(
            self.check_invariants(),
            Ok(()),
            "speaker invariant violated"
        );
    }

    fn originate(
        &mut self,
        prefix: Prefix,
        communities: Vec<Community>,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let mut attrs = PathAttributes::originate(self.cfg.router_id);
        for c in communities {
            attrs.add_community(c);
        }
        let attrs = self.interner.intern(attrs);
        self.local_routes.insert(prefix, attrs);
        let trace = self.mint_origination(prefix, false, now);
        self.local_traces.insert(prefix, trace);
        self.reconsider_with(&[prefix], now, Some(trace), out);
    }

    fn withdraw_origin(&mut self, prefix: Prefix, now: SimTime, out: &mut Vec<Output>) {
        if self.local_routes.remove(&prefix).is_some() {
            self.local_traces.remove(&prefix);
            let trace = self.mint_origination(prefix, true, now);
            self.reconsider_with(&[prefix], now, Some(trace), out);
        }
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
        if let Some(peer) = self
            .session_started
            .keys()
            .find(|p| !self.peers.contains_key(p))
        {
            return Err(format!(
                "session start time kept for unconfigured peer {peer:?}"
            ));
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
    use crate::fsm::FsmState;
    use crate::message::NotifCode;
    use crate::policy::{Action, Match};
    use crate::rib::RouteSource;
    use peering_netsim::SimDuration;
    use std::net::Ipv4Addr;

    /// Apply `input` to `a` at `now`, then carry messages both ways on the
    /// session between `a`'s peer `a_peer` and `b`'s peer `b_peer` until it
    /// is quiet; what either sends any other peer is dropped. Returns
    /// everything `b` output.
    fn relay(
        a: &mut Speaker,
        a_peer: PeerId,
        input: Input,
        b: &mut Speaker,
        b_peer: PeerId,
        now: SimTime,
    ) -> Vec<Output> {
        let sent_on = |outs: &[Output], peer: PeerId| -> Vec<BgpMessage> {
            let on = |o: &Output| match o {
                Output::Send(p, m) if *p == peer => Some(m.clone()),
                _ => None,
            };
            outs.iter().filter_map(on).collect()
        };
        let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
        a.apply(input, now, &mut a_out);
        let (mut a_read, mut b_read) = (0, 0);
        for _ in 0..64 {
            let to_b = sent_on(&a_out[a_read..], a_peer);
            let to_a = sent_on(&b_out[b_read..], b_peer);
            (a_read, b_read) = (a_out.len(), b_out.len());
            if to_a.is_empty() && to_b.is_empty() {
                return b_out;
            }
            for m in to_b {
                b.apply(Input::Message(b_peer, m), now, &mut b_out);
            }
            for m in to_a {
                a.apply(Input::Message(a_peer, m), now, &mut a_out);
            }
        }
        panic!("the session did not go quiet");
    }

    /// Bring up the session between `a`'s peer `a_peer` and the passive
    /// `b`'s peer `b_peer` at `now`. The tick fires a due ConnectRetry
    /// timer: a reconnecting session sits in Connect, where a start is a
    /// no-op.
    fn settle(a: &mut Speaker, b: &mut Speaker, a_peer: PeerId, b_peer: PeerId, now: SimTime) {
        b.apply(Input::StartPeer(b_peer), now, &mut Vec::new());
        relay(a, a_peer, Input::StartPeer(a_peer), b, b_peer, now);
        relay(a, a_peer, Input::Tick, b, b_peer, now);
        assert!(a.peer_established(a_peer) && b.peer_established(b_peer));
    }

    fn speaker(asn: u32) -> Speaker {
        Speaker::new(SpeakerConfig::new(
            Asn(asn),
            Ipv4Addr::new(10, 0, 0, asn as u8),
        ))
    }

    fn originate(p: Prefix) -> Input {
        Input::Originate(p, Vec::new())
    }

    #[test]
    fn originated_route_propagates() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
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
        let t = SimTime::from_secs(1);
        a.apply(Input::ResetPeer(PeerId(0)), t, &mut Vec::new());
        assert_eq!(
            telemetry.snapshot().counter("bgp.fsm.to_idle"),
            before.counter("bgp.fsm.to_idle") + 1
        );
        b.apply(Input::CorruptMessage(PeerId(0)), t, &mut Vec::new());
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
        let t = SimTime::from_secs(1);
        let outs = relay(&mut a, PeerId(0), originate(p), &mut b, PeerId(0), t);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::BestChanged { .. }))));
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let t = SimTime::from_secs(2);
        relay(
            &mut a,
            PeerId(0),
            Input::WithdrawOrigin(p),
            &mut b,
            PeerId(0),
            t,
        );
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // Now connect b<->c; b should pass the route along with its ASN.
        settle(&mut b, &mut c, PeerId(1), PeerId(0), SimTime::ZERO);
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
        let update = UpdateMessage::announce(poisoned, vec![Nlri::plain(p)]);
        let mut outs = Vec::new();
        let input = Input::Message(PeerId(0), BgpMessage::Update(update));
        b.apply(input, SimTime::from_secs(1), &mut outs);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::ImportRejected(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
    }

    #[test]
    fn import_policy_rejection_is_implicit_withdraw() {
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        // Re-announce with the bad community: b must drop the route.
        let t = SimTime::from_secs(1);
        relay(
            &mut a,
            PeerId(0),
            Input::WithdrawOrigin(p),
            &mut b,
            PeerId(0),
            t,
        );
        let tagged = Input::Originate(p, vec![Community::new(1, 666)]);
        relay(&mut a, PeerId(0), tagged, &mut b, PeerId(0), t);
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
        let no_export = Input::Originate(p, vec![Community::NO_EXPORT]);
        a.apply(no_export, SimTime::ZERO, &mut Vec::new());
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
        let announce = |from: u32, path: &[u32], hop: u8| {
            let attrs = Arc::new(PathAttributes {
                as_path: AsPath::from_asns(&path.iter().copied().map(Asn).collect::<Vec<_>>()),
                next_hop: Ipv4Addr::new(10, 0, 0, hop),
                ..Default::default()
            });
            let update = UpdateMessage::announce(attrs, vec![Nlri::plain(p)]);
            Input::Message(PeerId(from), BgpMessage::Update(update))
        };
        // AS1 announces with a long path; AS2 with a short one.
        let long = announce(10, &[1, 9, 8, 7], 1);
        c.apply(long, SimTime::from_secs(1), &mut Vec::new());
        assert_eq!(c.loc_rib().get(&p).unwrap().attrs.as_path.hop_count(), 4);
        let mut outs = Vec::new();
        c.apply(announce(20, &[2, 7], 2), SimTime::from_secs(2), &mut outs);
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let mut outs = Vec::new();
        b.apply(Input::StopPeer(PeerId(0)), SimTime::from_secs(5), &mut outs);
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
        let t = SimTime::from_secs(1);
        for o in relay(&mut m1, PeerId(0), originate(p), &mut rs, PeerId(1), t) {
            if let Output::Send(to, msg) = o {
                assert_eq!(to, PeerId(2), "split horizon: only the other member");
                m2.apply(Input::Message(PeerId(0), msg), t, &mut Vec::new());
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
        for (u, at, t) in [(&mut u1, PeerId(1), 1), (&mut u2, PeerId(2), 2)] {
            let t = SimTime::from_secs(t);
            for o in relay(u, PeerId(0), originate(p), &mut server, at, t) {
                if let Output::Send(PeerId(9), msg) = o {
                    client.apply(Input::Message(PeerId(0), msg), t, &mut Vec::new());
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
        for flap in 0..8 {
            now += SimDuration::from_secs(10);
            let input = if flap % 2 == 0 {
                originate(p)
            } else {
                Input::WithdrawOrigin(p)
            };
            let outs = relay(&mut a, PeerId(0), input, &mut b, PeerId(0), now);
            suppressed_seen |= outs
                .iter()
                .any(|o| matches!(o, Output::Event(SpeakerEvent::Suppressed(_, _))));
        }
        assert!(suppressed_seen, "flapping must trigger suppression");
        // Announce once more: route installs to adj-in but is suppressed
        // from the decision process.
        now += SimDuration::from_secs(10);
        relay(&mut a, PeerId(0), originate(p), &mut b, PeerId(0), now);
        assert!(b.loc_rib().get(&p).is_none(), "suppressed from Loc-RIB");
        // After the penalty decays, a tick releases the route.
        let much_later = now + SimDuration::from_secs(3 * 3600);
        b.apply(Input::Tick, much_later, &mut Vec::new());
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
            let t = SimTime::from_secs(1);
            relay(&mut a, PeerId(0), originate(p), &mut b, PeerId(0), t);
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let mut outs = Vec::new();
        let refresh = Input::Message(PeerId(0), BgpMessage::RouteRefresh);
        a.apply(refresh, SimTime::from_secs(1), &mut outs);
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        b.apply(
            Input::RemovePeer(PeerId(0)),
            SimTime::from_secs(1),
            &mut Vec::new(),
        );
        assert!(b.loc_rib().get(&p).is_none());
        assert_eq!(b.peer_count(), 0);
    }

    #[test]
    fn removing_a_peer_mid_handshake_forgets_when_it_started() {
        let mut s = speaker(1);
        s.add_peer(PeerConfig::new(PeerId(0), Asn(2))).unwrap();
        s.apply(Input::StartPeer(PeerId(0)), SimTime::ZERO, &mut Vec::new());
        assert_eq!(s.peers[&PeerId(0)].session.state(), FsmState::OpenSent);
        s.apply(
            Input::RemovePeer(PeerId(0)),
            SimTime::from_secs(1),
            &mut Vec::new(),
        );
        // Checked here too: release builds skip `apply`'s own check.
        assert!(s.session_started.is_empty());
        assert_eq!(s.check_invariants(), Ok(()));
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let again = b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        assert_eq!(again, Err(PeerExists(PeerId(0))));
        assert_eq!(b.check_invariants(), Ok(()));
        assert!(b.peer_established(PeerId(0)));
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
        assert!(b.loc_rib().get(&p).is_some());
        // The supported way to reconfigure: remove (a loss), then add.
        b.apply(
            Input::RemovePeer(PeerId(0)),
            SimTime::from_secs(1),
            &mut Vec::new(),
        );
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive())
            .unwrap();
        assert!(b.loc_rib().get(&p).is_none());
        assert_eq!(b.check_invariants(), Ok(()));
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
        settle(&mut s1, &mut hub, PeerId(0), PeerId(1), SimTime::ZERO);
        settle(&mut s2, &mut hub, PeerId(0), PeerId(2), SimTime::ZERO);
        (hub, s1, s2)
    }

    /// `s1` originates `p`; what the hub sends on toward `s2` reaches it.
    fn announce_through_the_hub(hub: &mut Speaker, s1: &mut Speaker, s2: &mut Speaker, p: Prefix) {
        let t = SimTime::from_secs(1);
        for o in relay(s1, PeerId(0), originate(p), hub, PeerId(1), t) {
            if let Output::Send(PeerId(2), msg) = o {
                s2.apply(Input::Message(PeerId(0), msg), t, &mut Vec::new());
            }
        }
    }

    #[test]
    fn without_route_reflection_ibgp_does_not_transit_the_hub() {
        let (mut hub, mut s1, mut s2) = ibgp_hub_and_spokes(false);
        let p = Prefix::v4(10, 80, 0, 0, 16);
        announce_through_the_hub(&mut hub, &mut s1, &mut s2, p);
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
        announce_through_the_hub(&mut hub, &mut s1, &mut s2, p);
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(a.check_invariants(), Ok(()));
        assert_eq!(b.check_invariants(), Ok(()));
        let t = SimTime::from_secs(1);
        relay(
            &mut a,
            PeerId(0),
            Input::WithdrawOrigin(p),
            &mut b,
            PeerId(0),
            t,
        );
        b.apply(
            Input::StopPeer(PeerId(0)),
            SimTime::from_secs(2),
            &mut Vec::new(),
        );
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());

        // Transport loss at t=5s: no forwarding gap — the route stays in
        // b's Loc-RIB even though the session is down.
        let t1 = SimTime::from_secs(5);
        let mut outs = Vec::new();
        b.apply(Input::ResetPeer(PeerId(0)), t1, &mut outs);
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
        a.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
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
        a.apply(originate(p1), SimTime::ZERO, &mut Vec::new());
        a.apply(originate(p2), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        b.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
        a.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
        // While down, the far end loses one origination: after resync the
        // stale copy of p2 must be swept by the End-of-RIB.
        let t2 = SimTime::from_secs(6);
        a.apply(Input::WithdrawOrigin(p2), t2, &mut Vec::new());
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        b.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
        assert!(b.loc_rib().get(&p).is_some());
        // The peer never comes back: at the 120 s restart deadline the
        // stale paths are flushed.
        let mut outs = Vec::new();
        b.apply(Input::Tick, SimTime::from_secs(126), &mut outs);
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
        a.apply(originate(pa), SimTime::ZERO, &mut Vec::new());
        b.apply(originate(pb), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        let mut outs = Vec::new();
        b.apply(Input::Restart, t1, &mut outs);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(!b.peer_established(PeerId(0)));
        assert!(b.loc_rib().get(&pa).is_none(), "learned state is gone");
        assert!(b.loc_rib().get(&pb).is_some(), "origination survives");
        assert_eq!(b.check_invariants(), Ok(()));

        // The far end noticed (transport died with the process), both
        // sides reconverge.
        a.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
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
        let mut outs = Vec::new();
        b.apply(Input::MalformedUpdate(PeerId(0), mangled), t1, &mut outs);
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
        relay(
            &mut a,
            PeerId(0),
            Input::WithdrawOrigin(p),
            &mut b,
            PeerId(0),
            t2,
        );
        relay(&mut a, PeerId(0), originate(p), &mut b, PeerId(0), t2);
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn unrecoverable_corruption_still_notifies_and_drops() {
        // Framing-level corruption has no recoverable interpretation:
        // the blanket NOTIFICATION-and-drop path remains.
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        let mut outs = Vec::new();
        b.apply(Input::CorruptMessage(PeerId(0)), t1, &mut outs);
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Send(_, BgpMessage::Notification(_)))),
            "unrecoverable corruption must be answered with a NOTIFICATION"
        );
        assert!(!b.peer_established(PeerId(0)));
        // GR keeps the path while the session recycles.
        assert!(b.loc_rib().get(&p).is_some());
        a.apply(Input::ResetPeer(PeerId(0)), t1, &mut Vec::new());
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
            a.apply(
                originate(Prefix::v4(10, i, 0, 0, 16)),
                SimTime::ZERO,
                &mut Vec::new(),
            );
        }
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.peer_established(PeerId(0)), "at the warn threshold");
        assert_eq!(b.loc_rib().len(), 3);
        // Two more prefixes push the count past the hard limit.
        let t1 = SimTime::from_secs(5);
        let mut ceased = Vec::new();
        for pfx in [Prefix::v4(10, 10, 0, 0, 16), Prefix::v4(10, 11, 0, 0, 16)] {
            ceased.extend(relay(
                &mut a,
                PeerId(0),
                originate(pfx),
                &mut b,
                PeerId(0),
                t1,
            ));
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
        a.apply(originate(p1), SimTime::ZERO, &mut Vec::new());
        a.apply(originate(p2), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);
        // Quarantine: reject everything the peer offers.
        let t1 = SimTime::from_secs(5);
        let mut outs = Vec::new();
        b.apply(
            Input::SetPeerImport(PeerId(0), Policy::reject_all()),
            t1,
            &mut outs,
        );
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
        let accept = Input::SetPeerImport(PeerId(0), Policy::accept_all());
        b.apply(accept, t2, &mut Vec::new());
        let mut refresh = Vec::new();
        b.apply(Input::RequestRefresh(PeerId(0)), t2, &mut refresh);
        assert_eq!(
            refresh,
            vec![Output::Send(PeerId(0), BgpMessage::RouteRefresh)]
        );
        let refresh = Input::Message(PeerId(0), BgpMessage::RouteRefresh);
        relay(&mut a, PeerId(0), refresh, &mut b, PeerId(0), t2);
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
        settle(&mut l, b, PeerId(0), PeerId(id), now);
        l
    }

    #[test]
    fn full_table_sends_stale_paths_until_the_sweep() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        b.apply(
            Input::ResetPeer(PeerId(0)),
            SimTime::from_secs(5),
            &mut Vec::new(),
        );
        assert!(!b.peer_established(PeerId(0)));
        // Inside the restart window the stale path still forwards, so a
        // session coming up now is sent it.
        let c = listener(&mut b, 1, 3, SimTime::from_secs(6));
        assert!(
            c.loc_rib().get(&p).is_some(),
            "stale path in the full table"
        );
        // The restart deadline sweeps it; a later session gets nothing.
        b.apply(Input::Tick, SimTime::from_secs(126), &mut Vec::new());
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
        a.apply(originate(learned), SimTime::ZERO, &mut Vec::new());
        b.apply(originate(local), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);
        let quarantine = Input::SetPeerImport(PeerId(0), Policy::reject_all());
        b.apply(quarantine, SimTime::from_secs(5), &mut Vec::new());
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // No keepalives flow; push time past the hold deadline.
        let mut outs = Vec::new();
        b.apply(Input::Tick, SimTime::from_secs(300), &mut outs);
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
        a.apply(originate(p), SimTime::ZERO, &mut Vec::new());
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
        let mut outs = Vec::new();
        a.apply(Input::WithdrawOrigin(p), t1, &mut outs);
        assert!(
            !outs.iter().any(|o| matches!(o, Output::Send(_, _))),
            "packed withdraw must stage, not send"
        );
        assert!(withdraw_sent(&log).is_empty());

        // Flushing records it, stamped with the flush time.
        let t2 = t1 + mrai;
        let mut outs = Vec::new();
        a.apply(Input::Tick, t2, &mut outs);
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
        a.apply(originate(p), t3, &mut Vec::new());
        a.apply(Input::Tick, t3 + mrai, &mut Vec::new());
        let t4 = SimTime::from_secs(40);
        a.apply(Input::WithdrawOrigin(p), t4, &mut Vec::new());
        a.apply(
            originate(p),
            t4 + SimDuration::from_secs(1),
            &mut Vec::new(),
        );
        let mut outs = Vec::new();
        a.apply(
            Input::Tick,
            t4 + mrai + SimDuration::from_secs(1),
            &mut outs,
        );
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
        let mut staged = Vec::new();
        s.apply(
            originate(Prefix::v4(10, 9, 0, 0, 16)),
            SimTime::from_secs(1),
            &mut staged,
        );
        assert_eq!(updates_to(&staged), vec![], "paced exports stage");
        assert_eq!(s.next_deadline(), SimTime::from_secs(30), "keepalive first");
        s
    }

    #[test]
    fn max_prefix_cease_drops_the_deltas_staged_for_the_ceased_peer() {
        let mut s = paced_with_a_staged_export();
        let flood: Vec<Prefix> = (1..=3).map(|i| Prefix::v4(10, i, 0, 0, 16)).collect();
        let mut outs = Vec::new();
        let flood = Input::Message(PeerId(0), shared_attrs_update(&flood));
        s.apply(flood, SimTime::from_secs(2), &mut outs);
        assert!(!s.peer_established(PeerId(0)), "the flooder is ceased");
        assert_eq!(updates_to(&outs), vec![]);
        // Past the MRAI deadline the listener gets its batch; the staged
        // export toward the ceased session died with it.
        let mut flushed = Vec::new();
        s.apply(Input::Tick, SimTime::from_secs(32), &mut flushed);
        assert_eq!(updates_to(&flushed), vec![PeerId(1)]);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn restart_drops_every_staged_delta() {
        let mut s = paced_with_a_staged_export();
        s.apply(Input::Restart, SimTime::from_secs(2), &mut Vec::new());
        assert!(!s.peer_established(PeerId(0)) && !s.peer_established(PeerId(1)));
        let mut outs = Vec::new();
        s.apply(Input::Tick, SimTime::from_secs(32), &mut outs);
        assert_eq!(updates_to(&outs), vec![]);
        assert_eq!(s.next_deadline(), SimTime::MAX, "no timer left armed");
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn remove_peer_takes_the_session_down_like_any_other_loss() {
        let mut s = feeder_and_listener(Policy::accept_all());
        let telemetry = Telemetry::new();
        s.set_telemetry(telemetry.clone());
        let p = Prefix::v4(10, 1, 0, 0, 16);
        let update = Input::Message(PeerId(0), shared_attrs_update(&[p]));
        s.apply(update, SimTime::from_secs(1), &mut Vec::new());
        let mut outs = Vec::new();
        s.apply(
            Input::RemovePeer(PeerId(0)),
            SimTime::from_secs(2),
            &mut outs,
        );
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
            let open = crate::message::OpenMessage::new(asn, 90, Ipv4Addr::new(10, 1, 0, 1));
            for input in [
                Input::StartPeer(PeerId(id)),
                Input::Message(PeerId(id), BgpMessage::Open(open)),
                Input::Message(PeerId(id), BgpMessage::Keepalive),
            ] {
                s.apply(input, now, &mut Vec::new());
            }
        }
        let step = |s: &Speaker, at: &str, due: SimTime| {
            assert_eq!(s.next_deadline(), due, "{at}");
            assert_eq!(s.check_invariants(), Ok(()), "{at}");
        };
        step(&s, "peer 0's keepalive", SimTime::from_secs(30));
        let p = Prefix::v4(10, 9, 0, 0, 16);
        s.apply(originate(p), SimTime::from_secs(1), &mut Vec::new());
        step(&s, "the listener's MRAI", SimTime::from_secs(6));
        s.apply(Input::ResetPeer(gr), SimTime::from_secs(2), &mut Vec::new());
        step(&s, "the GR peer's stale paths", SimTime::from_secs(5));
        s.apply(
            Input::RemovePeer(gr),
            SimTime::from_secs(3),
            &mut Vec::new(),
        );
        step(&s, "the earliest removed", SimTime::from_secs(6));
        assert_eq!(s.add_peer(peer_cfg(500)), Err(PeerExists(listener)));
        s.add_peer(peer_cfg(7)).unwrap();
        step(&s, "a refused and an idle add", SimTime::from_secs(6));
        let mut flushed = Vec::new();
        s.apply(Input::Tick, SimTime::from_secs(6), &mut flushed);
        assert_eq!(updates_to(&flushed), vec![listener]);
        step(&s, "MRAI flushed", SimTime::from_secs(30));
        s.apply(Input::Restart, SimTime::from_secs(7), &mut Vec::new());
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
            let (id, asn) = (peer.id, peer.asn);
            s.add_peer(peer).unwrap();
            let open = crate::message::OpenMessage::new(asn, 90, Ipv4Addr::new(10, 1, 0, 1));
            for input in [
                Input::StartPeer(id),
                Input::Message(id, BgpMessage::Open(open)),
                Input::Message(id, BgpMessage::Keepalive),
            ] {
                s.apply(input, SimTime::ZERO, &mut Vec::new());
            }
            assert!(s.peer_established(id));
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
            let mut outs = Vec::new();
            let update = Input::Message(PeerId(0), shared_attrs_update(&order));
            s.apply(update, SimTime::from_secs(1), &mut outs);
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
        let update = Input::Message(PeerId(0), shared_attrs_update(&[a, b]));
        s.apply(update, SimTime::from_secs(1), &mut Vec::new());
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
