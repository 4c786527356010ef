//! The session side of the Speaker: everything that drives a peer's FSM
//! (messages, timers, administrative and fault entry points) and what a
//! session coming up or going away means for the tables.

use super::{relist, retime, Output, Speaker, SpeakerEvent, StaleState};
use crate::damping::DampingState;
use crate::fsm::{FsmState, Session, SessionEvent};
use crate::message::{BgpMessage, UpdateMessage};
use crate::rib::{LocRib, PeerId};
use peering_netsim::{Prefix, SimTime};

impl Speaker {
    /// Record an FSM state change on `peer`'s session between two
    /// externally observable points.
    fn note_fsm_transition(&self, before: FsmState, after: FsmState) {
        if before == after || !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter_inc("bgp.fsm.transitions");
        let to = match after {
            FsmState::Idle => "bgp.fsm.to_idle",
            FsmState::Connect => "bgp.fsm.to_connect",
            FsmState::OpenSent => "bgp.fsm.to_open_sent",
            FsmState::OpenConfirm => "bgp.fsm.to_open_confirm",
            FsmState::Established => "bgp.fsm.to_established",
        };
        self.telemetry.counter_inc(to);
    }

    pub(super) fn start_session(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        if !self.peers.get(&peer).is_some_and(|s| s.cfg.enabled) {
            return;
        }
        self.session_started.insert(peer, now);
        self.drive_session(peer, now, out, |s| (s.start(now), Vec::new()));
    }

    /// The one way a session is driven: run `drive` on `peer`'s session,
    /// queue the messages it wants sent, apply the events it surfaced
    /// (table sync, RIB flush, UPDATE processing) and record the FSM
    /// transition. Every entry point that can move a session — messages,
    /// timers, administrative stop, transport faults — comes through
    /// here, so none can forget a step. Unknown peers are ignored.
    pub(super) fn drive_session(
        &mut self,
        peer: PeerId,
        now: SimTime,
        out: &mut Vec<Output>,
        drive: impl FnOnce(&mut Session) -> (Vec<BgpMessage>, Vec<SessionEvent>),
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let before = state.session.state();
        let (msgs, events) = drive(&mut state.session);
        if out.is_empty() {
            // The common result is a message or two and no events: size
            // for exactly that rather than the amortized minimum.
            out.reserve_exact(msgs.len());
        }
        out.extend(msgs.into_iter().map(|m| Output::Send(peer, m)));
        for ev in events {
            self.handle_session_event(peer, ev, now, out);
        }
        if let Some(state) = self.peers.get_mut(&peer) {
            retime(&mut self.timers, state);
            let after = state.session.state();
            self.note_fsm_transition(before, after);
        }
    }

    pub(super) fn set_enabled(
        &mut self,
        peer: PeerId,
        enabled: bool,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        if state.cfg.enabled == enabled {
            return;
        }
        state.cfg.enabled = enabled;
        if enabled {
            self.start_session(peer, now, out);
        } else {
            self.drive_session(peer, now, out, |s| s.stop(now));
        }
    }

    pub(super) fn tick_timers(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for id in ids {
            self.drive_session(id, now, out, |s| s.tick(now));
            let Some(state) = self.peers.get_mut(&id) else {
                continue;
            };
            // Damping release check: re-decide prefixes whose suppression
            // has decayed away.
            let mut released = Vec::new();
            if let Some(dcfg) = self.cfg.damping {
                let candidates: Vec<Prefix> = state.suppressed.iter().copied().collect();
                for p in candidates {
                    if !state.damping.is_suppressed(&p, now, &dcfg) {
                        state.suppressed.remove(&p);
                        released.push(p);
                    }
                }
            }
            let stale_expired = state.stale.as_ref().is_some_and(|st| now >= st.deadline);
            if !released.is_empty() {
                self.reconsider_with(&released, now, None, out);
            }
            // Graceful-restart timer: the peer never came back (or never
            // finished re-syncing) in time, so flush its stale paths.
            if stale_expired {
                self.finish_graceful_restart(id, now, out);
            }
            // MRAI timer: flush the staged batch once the interval is up
            // (read last: the re-decisions above may have armed it).
            let mrai_due = self.peers.get(&id).map(|p| p.sent.mrai_deadline());
            if mrai_due.is_some_and(|due| now >= due) {
                self.flush_mrai(id, now, out);
            }
            // The stale sweep above clears a deadline without retiming.
            if let Some(state) = self.peers.get_mut(&id) {
                retime(&mut self.timers, state);
            }
        }
    }

    /// The earliest time any peer's session, graceful-restart or MRAI
    /// timer needs service: the first entry of the timer index.
    pub fn next_deadline(&self) -> SimTime {
        self.timers.first().map_or(SimTime::MAX, |&(due, _)| due)
    }

    /// Whether [`Input::Tick`](super::Input::Tick) at `now` could do
    /// anything: false only when it would be a no-op, so a host may skip
    /// the input. True once
    /// [`next_deadline`](Self::next_deadline) is due, and for as long as
    /// any prefix is damped: the release check rewrites each damped
    /// prefix's decayed penalty on every tick, so skipping one would move
    /// the floats off the path an every-tick host takes. Without damping
    /// nothing is ever suppressed, so this is one lookup.
    pub fn timers_due(&self, now: SimTime) -> bool {
        self.next_deadline() <= now
            || (self.cfg.damping.is_some() && self.peers.values().any(|p| !p.suppressed.is_empty()))
    }

    /// The session with `peer` is gone. The one place per-session state is
    /// dropped: what the peer was sent or had staged (the export side),
    /// its damping suppressions and max-prefix warning, and what it taught
    /// us — kept as stale until `stale_until` under graceful restart (RFC
    /// 4724: still forwarding along it), flushed otherwise. Returns the
    /// prefixes that lost a path.
    pub(super) fn session_lost(
        &mut self,
        peer: PeerId,
        stale_until: Option<SimTime>,
    ) -> Vec<Prefix> {
        self.export.forget(&mut self.peers, peer);
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        state.suppressed.clear();
        state.max_prefix_warned = false;
        let Some(deadline) = stale_until else {
            state.stale = None;
            self.learned.remove(&peer);
            return state.adj_in.clear();
        };
        // A second loss inside the window keeps the original deadline so
        // staleness stays bounded.
        let deadline = state.stale.as_ref().map_or(deadline, |st| st.deadline);
        let keys = state.adj_in.iter().map(|r| (r.prefix, r.path_id)).collect();
        state.stale = Some(StaleState { deadline, keys });
        Vec::new()
    }

    fn handle_session_event(
        &mut self,
        peer: PeerId,
        ev: SessionEvent,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        match ev {
            SessionEvent::Established(_) => {
                if let Some(started) = self.session_started.remove(&peer) {
                    self.telemetry
                        .observe_duration("bgp.session.convergence_us", now.since(started));
                }
                self.telemetry.counter_inc("bgp.session.established");
                out.push(Output::Event(SpeakerEvent::PeerUp(peer)));
                self.full_table_to(peer, now, out);
            }
            SessionEvent::Down { reason } => {
                self.telemetry.counter_inc("bgp.session.down");
                let restart_time = self.peers.get(&peer).and_then(|s| s.cfg.graceful_restart);
                let affected = self.session_lost(peer, restart_time.map(|t| now + t));
                out.push(Output::Event(SpeakerEvent::PeerDown(peer, reason)));
                if restart_time.is_none() {
                    self.reconsider_with(&affected, now, None, out);
                }
            }
            SessionEvent::Update(update) => {
                self.updates_received += 1;
                self.telemetry.counter_inc("bgp.speaker.updates_in");
                self.process_update(peer, update, now, out);
            }
            SessionEvent::RefreshRequested => {
                // RFC 2918: re-advertise the whole Adj-RIB-Out. Forget
                // what was already sent so the diffing export resends it.
                self.export.unsync(&mut self.peers, peer);
                self.full_table_to(peer, now, out);
            }
        }
    }

    /// End the graceful-restart window for a peer: sweep every retained
    /// path the peer did not re-announce and re-decide those prefixes.
    pub(super) fn finish_graceful_restart(
        &mut self,
        peer: PeerId,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let Some(stale) = state.stale.take() else {
            return;
        };
        // The keys are ordered by prefix, so `affected` comes out sorted.
        let was_empty = state.adj_in.is_empty();
        let mut affected = Vec::new();
        for (prefix, path_id) in stale.keys {
            if state.adj_in.remove(&prefix, path_id).is_some() {
                affected.push(prefix);
            }
        }
        relist(&mut self.learned, state, was_empty);
        affected.dedup();
        self.reconsider_with(&affected, now, None, out);
    }

    pub(super) fn reset_transport(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        // A disabled session has no connection to lose, and must not arm
        // a reconnect.
        if self.peers.get(&peer).is_some_and(|s| s.cfg.enabled) {
            self.drive_session(peer, now, out, |s| (Vec::new(), s.drop_connection(now)));
        }
    }

    pub(super) fn malformed_update(
        &mut self,
        from: PeerId,
        update: UpdateMessage,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        if self.peer_established(from) {
            self.telemetry.counter_inc("bgp.session.treat_as_withdraw");
        }
        self.drive_session(from, now, out, |s| s.on_malformed_update(update, now));
    }

    pub(super) fn restart_cold(&mut self, now: SimTime, out: &mut Vec<Output>) {
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        for id in ids {
            // The Loc-RIB goes wholesale below, so which prefixes lost a
            // path does not matter.
            self.session_lost(id, None);
            let Some(state) = self.peers.get_mut(&id) else {
                continue;
            };
            if state.session.is_established() {
                let reason = "local restart".to_string();
                out.push(Output::Event(SpeakerEvent::PeerDown(id, reason)));
            }
            state.session = Session::new(state.session.config().clone());
            state.damping = DampingState::new();
            retime(&mut self.timers, state);
        }
        self.loc_rib = LocRib::new();
        let locals: Vec<Prefix> = self.local_routes.keys().copied().collect();
        self.reconsider_with(&locals, now, None, out);
    }
}
