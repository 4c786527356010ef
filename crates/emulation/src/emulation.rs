//! The emulation core: containers, links, BGP sessions, and the event
//! loop that moves messages between hosted daemons.

use crate::container::{Container, ResourceModel};
use peering_bgp::{
    BgpMessage, Input, Output, PeerConfig, PeerId, ProvenanceLog, Speaker, SpeakerEvent,
};
use peering_netsim::{
    FaultAction, FaultPlan, LinkParams, MsgNet, NodeId, SimDuration, SimRng, SimTime,
};
use peering_telemetry::Telemetry;

/// Handle for a session whose far end lives outside the emulation
/// (e.g. the PEERING server a PoP peers with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExternalHandle(pub usize);

/// Where the far end of a session lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEnd {
    /// Another container inside the emulation.
    Internal {
        /// Container index.
        container: usize,
        /// The peer id the far end knows us by.
        peer: PeerId,
    },
    /// Outside the emulation; messages queue on the handle.
    External(ExternalHandle),
}

/// What travels on the emulated wire: a BGP message addressed to a peer
/// slot on the destination node, or a self-scheduled clock tick that
/// drives timers and fault injection.
enum Payload {
    /// A BGP message; deliver to `to_peer` on the destination node.
    Bgp {
        to_peer: PeerId,
        msg: BgpMessage,
    },
    Tick,
}

/// Simulated time between two ticks of [`Emulation::run_with_faults`]:
/// how often due faults are applied and daemons' due timers (hold,
/// keepalive, ConnectRetry, graceful restart, idle hold, MRAI, damping
/// release) are serviced; a daemon with nothing due is not ticked. A
/// timer thus fires up to a second late, identically in every run of a
/// seed.
pub const TICK_EVERY: SimDuration = SimDuration::from_secs(1);

/// The emulated network.
pub struct Emulation {
    containers: Vec<Container>,
    net: MsgNet<Payload>,
    sessions: std::collections::BTreeMap<(usize, PeerId), SessionEnd>,
    external_out: Vec<Vec<BgpMessage>>,
    external_home: Vec<(usize, PeerId)>,
    /// `(from, to)` container pairs whose next delivered message arrives
    /// corrupted (the receiver cannot parse it).
    corrupt_next: std::collections::BTreeSet<(usize, usize)>,
    /// `(from, to)` container pairs whose next delivered UPDATE arrives
    /// with attributes corrupted in an RFC 7606-recoverable way: the
    /// receiver treats the announced routes as withdrawn but keeps the
    /// session up. Non-UPDATE deliveries pass through untouched.
    corrupt_attrs_next: std::collections::BTreeSet<(usize, usize)>,
    /// Tail-drop total already folded into the `netsim.queue.tail_drops`
    /// counter, so repeated [`export_net_stats`](Self::export_net_stats)
    /// calls add only the delta.
    tail_drops_exported: std::cell::Cell<u64>,
    /// Daemons taken down by [`FaultAction::MuxCrash`], keyed by
    /// container, waiting for a restart.
    crashed: std::collections::BTreeMap<usize, Speaker>,
    /// Resource model used for memory accounting.
    pub resources: ResourceModel,
    /// The session log `(time, container, event)`: every
    /// [`SpeakerEvent::PeerUp`] and [`SpeakerEvent::PeerDown`] a hosted
    /// daemon raised, and nothing else — it grows with session flaps,
    /// never with route changes.
    pub events: Vec<(SimTime, usize, SpeakerEvent)>,
    /// Telemetry sink; disabled unless attached with
    /// [`set_telemetry`](Self::set_telemetry).
    telemetry: Telemetry,
    /// Provenance record stream; disabled unless attached with
    /// [`set_provenance`](Self::set_provenance).
    provenance: ProvenanceLog,
}

impl Emulation {
    /// An empty emulation with a deterministic transport.
    pub fn new(rng: SimRng) -> Self {
        Emulation {
            containers: Vec::new(),
            net: MsgNet::new(rng),
            sessions: std::collections::BTreeMap::new(),
            external_out: Vec::new(),
            external_home: Vec::new(),
            corrupt_next: std::collections::BTreeSet::new(),
            corrupt_attrs_next: std::collections::BTreeSet::new(),
            tail_drops_exported: std::cell::Cell::new(0),
            crashed: std::collections::BTreeMap::new(),
            resources: ResourceModel::default(),
            events: Vec::new(),
            telemetry: Telemetry::disabled(),
            provenance: ProvenanceLog::disabled(),
        }
    }

    /// The one daemon lookup: a container's daemon and whether it is
    /// running. A daemon that [`crash_daemon`](Self::crash_daemon) took
    /// down is still found — stashed in `crashed`, with its configuration
    /// and no transport — so callers decide what may reach it.
    fn daemon_slot(&mut self, idx: usize) -> Option<(&mut Speaker, bool)> {
        match self.containers[idx].daemon.as_mut() {
            Some(d) => Some((d, true)),
            None => self.crashed.get_mut(&idx).map(|d| (d, false)),
        }
    }

    /// Run `f` on every hosted daemon, running or crashed.
    fn each_daemon(&mut self, mut f: impl FnMut(&mut Speaker)) {
        for idx in 0..self.containers.len() {
            if let Some((d, _)) = self.daemon_slot(idx) {
                f(d);
            }
        }
    }

    /// Attach a telemetry handle to the emulation and every hosted daemon
    /// (including any currently crashed ones, whose stashed state comes
    /// back on restart). Containers added later inherit the handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.each_daemon(|d| d.set_telemetry(telemetry.clone()));
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (disabled by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attach a provenance log to the emulation and every hosted daemon
    /// (including any currently crashed ones). Containers added later
    /// inherit the handle, so one shared log sees the whole run.
    pub fn set_provenance(&mut self, provenance: ProvenanceLog) {
        self.each_daemon(|d| d.set_provenance(provenance.clone()));
        self.provenance = provenance;
    }

    /// The attached provenance log (disabled by default).
    pub fn provenance(&self) -> &ProvenanceLog {
        &self.provenance
    }

    /// Export transport-level statistics into the telemetry registry as
    /// gauges (idempotent: the underlying totals are cumulative, so this
    /// can be called at any point — typically once, after a run).
    pub fn export_net_stats(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = &self.telemetry;
        t.gauge_set("netsim.transport.delivered", self.net.delivered as i64);
        t.gauge_set(
            "netsim.transport.timers_fired",
            self.net.timers_fired as i64,
        );
        t.gauge_set("netsim.transport.drops", self.net.drops as i64);
        t.gauge_set("netsim.transport.no_route", self.net.no_route as i64);
        t.gauge_set(
            "netsim.transport.queue_high_water",
            self.net.queue_high_water as i64,
        );
        for ((from, to), stats) in self.net.link_stats() {
            let base = format!("netsim.link.{}-{}", from.0, to.0);
            t.gauge_set(&format!("{base}.tx_packets"), stats.tx_packets as i64);
            t.gauge_set(&format!("{base}.dropped"), stats.dropped as i64);
            t.gauge_set(&format!("{base}.tx_bytes"), stats.tx_bytes as i64);
            if stats.tail_drops > 0 || stats.queue_peak > 0 {
                t.gauge_set(&format!("{base}.tail_drops"), stats.tail_drops as i64);
                t.gauge_set(&format!("{base}.queue_peak"), stats.queue_peak as i64);
            }
        }
        // Tail drops are a counter (snapshot validation checks counters),
        // so export the delta since the previous call; `counter_add`
        // creates the key even on a zero delta.
        let total = self.net.tail_drops();
        let prev = self.tail_drops_exported.replace(total);
        t.counter_add("netsim.queue.tail_drops", total.saturating_sub(prev));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// True if nothing is in flight: no message and no pending tick. A
    /// run that stopped at its step limit leaves this false.
    pub fn idle(&self) -> bool {
        self.net.idle()
    }

    /// Add a container, returning its index.
    pub fn add_container(&mut self, c: Container) -> usize {
        let idx = self.containers.len();
        self.containers.push(c);
        let (telemetry, provenance) = (self.telemetry.clone(), self.provenance.clone());
        if let Some((d, _)) = self.daemon_slot(idx) {
            if telemetry.is_enabled() {
                d.set_telemetry(telemetry);
            }
            if provenance.is_enabled() {
                d.set_provenance(provenance);
            }
        }
        idx
    }

    /// Number of containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Borrow a container.
    pub fn container(&self, idx: usize) -> &Container {
        &self.containers[idx]
    }

    /// Borrow a container's daemon.
    pub fn daemon(&self, idx: usize) -> Option<&Speaker> {
        self.containers[idx].daemon.as_ref()
    }

    /// Mutably borrow a container's daemon.
    pub fn daemon_mut(&mut self, idx: usize) -> Option<&mut Speaker> {
        self.containers[idx].daemon.as_mut()
    }

    /// Create a veth-style link between two containers.
    pub fn link(&mut self, a: usize, b: usize, params: LinkParams) {
        self.net
            .add_link(NodeId(a as u32), NodeId(b as u32), params);
    }

    /// Take a link up/down (fault injection).
    pub fn set_link_up(&mut self, a: usize, b: usize, up: bool) {
        self.net.set_link_up(NodeId(a as u32), NodeId(b as u32), up);
    }

    /// Install `cfg` on container `idx`'s daemon and record where the
    /// session's far end lives. Panics if the container has no daemon or
    /// its daemon already has a peer with `cfg`'s id.
    fn add_session(&mut self, idx: usize, cfg: PeerConfig, end: SessionEnd) {
        self.sessions.insert((idx, cfg.id), end);
        let (daemon, _) = self.daemon_slot(idx).expect("container has a daemon");
        daemon.add_peer(cfg).expect("peer id is free on the daemon");
    }

    /// Configure a BGP session between two router containers that share a
    /// link. `a_cfg` is installed on `a` (its view of `b`) and vice versa.
    ///
    /// Panics if either container has no daemon, or either daemon already
    /// has a peer with the id its config names.
    pub fn connect_bgp(&mut self, a: usize, a_cfg: PeerConfig, b: usize, b_cfg: PeerConfig) {
        let (a_peer, b_peer) = (a_cfg.id, b_cfg.id);
        let end = |container, peer| SessionEnd::Internal { container, peer };
        self.add_session(a, a_cfg, end(b, b_peer));
        self.add_session(b, b_cfg, end(a, a_peer));
    }

    /// Configure a session from `container` to an external party.
    /// Messages the daemon emits on this session queue on the returned
    /// handle; inject replies with [`inject_external`](Self::inject_external).
    /// Panics as [`connect_bgp`](Self::connect_bgp) does.
    pub fn add_external_session(&mut self, container: usize, cfg: PeerConfig) -> ExternalHandle {
        let h = ExternalHandle(self.external_out.len());
        self.external_out.push(Vec::new());
        self.external_home.push((container, cfg.id));
        self.add_session(container, cfg, SessionEnd::External(h));
        h
    }

    fn route_outputs(&mut self, from: usize, outputs: Vec<Output>) {
        let now = self.net.now();
        for out in outputs {
            match out {
                Output::Event(ev @ (SpeakerEvent::PeerUp(_) | SpeakerEvent::PeerDown(..))) => {
                    self.events.push((now, from, ev));
                }
                // Per-route events are the daemons' telemetry and
                // provenance to report; logging them here would grow the
                // host with every route change for ever.
                Output::Event(_) => {}
                Output::Send(peer, msg) => {
                    match self.sessions.get(&(from, peer)) {
                        Some(SessionEnd::Internal {
                            container,
                            peer: to_peer,
                        }) => {
                            let size = msg.approx_size();
                            self.net.send(
                                NodeId(from as u32),
                                NodeId(*container as u32),
                                size,
                                Payload::Bgp {
                                    to_peer: *to_peer,
                                    msg,
                                },
                            );
                        }
                        Some(SessionEnd::External(h)) => {
                            self.external_out[h.0].push(msg);
                        }
                        None => {
                            // Session removed mid-flight; drop.
                        }
                    }
                }
            }
        }
    }

    /// The one control entry: apply `input` to container `idx`'s daemon
    /// at the current simulated time and route what it produces (messages
    /// onto the emulated wire, session events into
    /// [`events`](Self::events)), e.g.
    /// `emu.control(i, Input::Originate(prefix, vec![]))`.
    ///
    /// Configuration reaches a daemon whether it is running or crashed:
    /// a crashed daemon keeps its configuration for the restart, so the
    /// input still applies to it, but it has no transport, so its outputs
    /// are dropped. A container without a daemon is skipped.
    pub fn control(&mut self, idx: usize, input: Input) {
        let now = self.net.now();
        let Some((daemon, running)) = self.daemon_slot(idx) else {
            return;
        };
        let mut outputs = Vec::new();
        daemon.apply(input, now, &mut outputs);
        if running {
            self.route_outputs(idx, outputs);
        }
    }

    /// [`control`](Self::control) for what arrives over the transport —
    /// deliveries, timers, connection starts and resets: these reach a
    /// running daemon only, never one stashed by a crash.
    fn on_running(&mut self, idx: usize, input: Input) {
        if self.containers[idx].daemon.is_some() {
            self.control(idx, input);
        }
    }

    /// Start every configured session on a container.
    pub fn start_container(&mut self, idx: usize) {
        let daemon = self.containers[idx].daemon.as_ref();
        let peers: Vec<PeerId> = daemon.into_iter().flat_map(|d| d.peer_ids()).collect();
        for peer in peers {
            self.on_running(idx, Input::StartPeer(peer));
        }
    }

    /// Start every session on every container.
    pub fn start_all(&mut self) {
        for idx in 0..self.containers.len() {
            self.start_container(idx);
        }
    }

    /// Inject a message arriving from outside on an external session; a
    /// crashed daemon's transport is gone, so the message is dropped.
    pub fn inject_external(&mut self, h: ExternalHandle, msg: BgpMessage) {
        let (container, peer) = self.external_home[h.0];
        self.on_running(container, Input::Message(peer, msg));
    }

    /// Drain messages the emulation wants to send out on a handle.
    pub fn drain_external(&mut self, h: ExternalHandle) -> Vec<BgpMessage> {
        std::mem::take(&mut self.external_out[h.0])
    }

    /// Deliver one BGP message to a container's daemon, honoring any
    /// pending corruption marker for the `(from, to)` pair.
    fn deliver_bgp(&mut self, from: usize, to: usize, to_peer: PeerId, msg: BgpMessage) {
        let corrupted = self.corrupt_next.remove(&(from, to));
        if corrupted {
            self.telemetry
                .counter_inc("emulation.net.corrupt_deliveries");
        }
        // Attribute corruption only makes sense on an UPDATE; the marker
        // stays armed until one actually passes (a KEEPALIVE in between
        // must not consume it).
        let corrupt_attrs = !corrupted
            && matches!(&msg, BgpMessage::Update(_))
            && self.corrupt_attrs_next.remove(&(from, to));
        if corrupt_attrs {
            self.telemetry
                .counter_inc("emulation.net.corrupt_attr_deliveries");
        }
        let input = match msg {
            _ if corrupted => Input::CorruptMessage(to_peer),
            BgpMessage::Update(update) if corrupt_attrs => Input::MalformedUpdate(to_peer, update),
            msg => Input::Message(to_peer, msg),
        };
        self.on_running(to, input);
    }

    /// The one delivery loop: pop and dispatch in-flight deliveries until
    /// idle or `limit`, returning how many were processed. A tick applies
    /// `plan`'s due faults, ticks the running daemons whose timers are due,
    /// and re-arms itself [`TICK_EVERY`] later while `until` lies ahead or
    /// `plan` has actions left. It fires whether or not any daemon is
    /// due, so event order and delivery counts do not depend on the
    /// daemons' timers.
    fn drain(&mut self, plan: &mut FaultPlan, until: SimTime, limit: usize) -> usize {
        let mut steps = 0;
        while steps < limit {
            let Some((now, delivery)) = self.net.next() else {
                break;
            };
            steps += 1;
            match delivery.msg {
                Payload::Tick => {
                    for action in plan.due(now) {
                        self.apply_fault(action);
                    }
                    for idx in 0..self.containers.len() {
                        if self.daemon(idx).is_some_and(|d| d.timers_due(now)) {
                            self.control(idx, Input::Tick);
                        }
                    }
                    if now < until || !plan.exhausted() {
                        self.net.set_timer(NodeId(0), TICK_EVERY, Payload::Tick);
                    }
                }
                Payload::Bgp { to_peer, msg } => {
                    self.deliver_bgp(
                        delivery.from.0 as usize,
                        delivery.to.0 as usize,
                        to_peer,
                        msg,
                    );
                }
            }
        }
        steps
    }

    /// Run until no messages are in flight (bounded by `limit` steps).
    /// Returns the number of deliveries processed.
    pub fn run_until_quiet(&mut self, limit: usize) -> usize {
        // No plan and a horizon already behind: a tick left over from a
        // `run_with_faults` that hit its limit still services due timers,
        // but nothing re-arms it.
        self.drain(&mut FaultPlan::new(), SimTime::ZERO, limit)
    }

    /// Apply one fault action at the current simulated time. Link-level
    /// actions mutate the transport directly; session- and daemon-level
    /// actions are routed to the hosted speakers.
    pub fn apply_fault(&mut self, action: FaultAction) {
        self.telemetry.counter_inc("emulation.faults.applied");
        if self.telemetry.is_enabled() {
            self.telemetry.event(
                self.net.now(),
                "emulation.faults.action",
                &[("action", format!("{action:?}").into())],
            );
        }
        match action {
            FaultAction::LinkDown(a, b) => self.net.set_link_up(a, b, false),
            FaultAction::LinkUp(a, b) => self.net.set_link_up(a, b, true),
            FaultAction::SetLoss(a, b, p) => {
                for (x, y) in [(a, b), (b, a)] {
                    if let Some(l) = self.net.link_mut(x, y) {
                        l.params.loss = p.clamp(0.0, 1.0);
                    }
                }
            }
            FaultAction::DelaySpike(a, b, extra) => {
                for (x, y) in [(a, b), (b, a)] {
                    if let Some(l) = self.net.link_mut(x, y) {
                        l.params.delay += extra;
                    }
                }
            }
            // At the emulation layer a black hole and a partition act the
            // same way: nothing enters or leaves the node.
            FaultAction::BlackholeNode(n) | FaultAction::PartitionAs(n) => {
                self.net.set_node_links_up(n, false)
            }
            FaultAction::RestoreNode(n) | FaultAction::HealAs(n) => {
                self.net.set_node_links_up(n, true)
            }
            FaultAction::SessionReset(a, b) => {
                self.reset_sessions_between(a.0 as usize, b.0 as usize)
            }
            FaultAction::CorruptMessage(a, b) => {
                self.corrupt_next.insert((a.0 as usize, b.0 as usize));
            }
            FaultAction::CorruptAttributes(a, b) => {
                self.corrupt_attrs_next.insert((a.0 as usize, b.0 as usize));
            }
            FaultAction::MuxCrash(n) => self.crash_daemon(n.0 as usize),
            FaultAction::MuxRestart(n) => self.restart_daemon(n.0 as usize),
        }
    }

    /// Reset, without any message on the wire (TCP reset), the near end
    /// `(container, peer)` of every internal session for which
    /// `hit(container, far_container)` holds.
    fn reset_ends(&mut self, hit: impl Fn(usize, usize) -> bool) {
        let ends: Vec<(usize, PeerId)> = self
            .sessions
            .iter()
            .filter_map(|(&(c, pid), end)| match end {
                SessionEnd::Internal { container, .. } if hit(c, *container) => Some((c, pid)),
                _ => None,
            })
            .collect();
        for (c, pid) in ends {
            self.on_running(c, Input::ResetPeer(pid));
        }
    }

    /// Tear down every BGP session riding the `a`<->`b` adjacency, on
    /// both ends.
    pub fn reset_sessions_between(&mut self, a: usize, b: usize) {
        self.reset_ends(|c, far| (c == a && far == b) || (c == b && far == a));
    }

    /// Crash the daemon on a container: its volatile state leaves the
    /// emulation (stashed for a later restart) and every far end sees its
    /// transport die.
    pub fn crash_daemon(&mut self, idx: usize) {
        let Some(daemon) = self.containers[idx].daemon.take() else {
            return;
        };
        self.telemetry.counter_inc("emulation.daemon.crashes");
        self.crashed.insert(idx, daemon);
        self.reset_ends(|c, far| far == idx && c != idx);
    }

    /// Restart a crashed daemon: configuration and local originations
    /// survived, learned state did not. Sessions restart immediately.
    pub fn restart_daemon(&mut self, idx: usize) {
        let Some(daemon) = self.crashed.remove(&idx) else {
            return;
        };
        self.telemetry.counter_inc("emulation.daemon.restarts");
        self.containers[idx].daemon = Some(daemon);
        self.on_running(idx, Input::Restart);
        self.start_container(idx);
    }

    /// Drive the emulation under a scripted fault plan.
    ///
    /// A tick fires every [`TICK_EVERY`] of simulated time: due faults are
    /// applied, then each running daemon whose timers are due
    /// ([`Speaker::timers_due`]: hold/keepalive expiry, ConnectRetry
    /// reconnects, graceful-restart sweeps, MRAI flushes, damping
    /// releases) is ticked; the rest would have done nothing. The tick chain
    /// stops once `until` is reached and the plan is exhausted; remaining
    /// in-flight messages then drain. Returns deliveries processed,
    /// bounded by `limit`.
    pub fn run_with_faults(&mut self, plan: &mut FaultPlan, until: SimTime, limit: usize) -> usize {
        self.net
            .set_timer(NodeId(0), SimDuration::ZERO, Payload::Tick);
        self.drain(plan, until, limit)
    }

    /// Total estimated memory of the emulation.
    pub fn total_memory(&self) -> usize {
        self.containers
            .iter()
            .map(|c| c.memory(&self.resources))
            .sum()
    }

    /// Per-container memory estimates.
    pub fn memory_by_container(&self) -> Vec<(String, usize)> {
        self.containers
            .iter()
            .map(|c| (c.name.clone(), c.memory(&self.resources)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::flat_mesh;
    use peering_bgp::{Asn, Prefix, SpeakerConfig};
    use std::net::Ipv4Addr;

    /// Two routers, `a` (AS65001, connects) and `b` (AS65002, listens),
    /// in the chaos-ready configuration: sessions reconnect by themselves
    /// and peers' paths are retained across restarts.
    fn pair() -> (Emulation, usize, usize) {
        (flat_mesh("pair", 2, &[(0, 1)], 7), 0, 1)
    }

    #[test]
    fn session_establishes_and_routes_flow() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(1000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        let p = Prefix::v4(10, 50, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(1000);
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
        // PeerUp events were logged for both ends.
        let ups = emu
            .events
            .iter()
            .filter(|(_, _, e)| matches!(e, SpeakerEvent::PeerUp(_)))
            .count();
        assert_eq!(ups, 2);
    }

    #[test]
    fn chain_propagation_across_three_routers() {
        let mut emu = flat_mesh("chain", 3, &[(0, 1), (1, 2)], 2);
        let (a, c) = (0, 2);
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 60, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(10_000);
        let at_c = emu.daemon(c).unwrap().loc_rib().get(&p).expect("c learned");
        assert_eq!(at_c.attrs.as_path.to_string(), "65002 65001");
    }

    #[test]
    fn external_session_bridges_out() {
        let (mut emu, a, _b) = pair();
        let h = emu.add_external_session(a, PeerConfig::new(PeerId(9), Asn(47065)));
        emu.start_all();
        emu.run_until_quiet(1000);
        // The daemon sent an OPEN out the external session.
        let out = emu.drain_external(h);
        assert!(out.iter().any(|m| matches!(m, BgpMessage::Open(_))));
        // Build an external speaker, feed it, and bridge replies back.
        let mut ext = Speaker::new(SpeakerConfig::new(Asn(47065), Ipv4Addr::new(100, 64, 0, 1)));
        ext.add_peer(PeerConfig::new(PeerId(0), Asn(65001)).passive())
            .unwrap();
        // Apply `inputs` to `ext`, then carry what it sends in and what
        // the emulation sends back out until both ends are quiet.
        let bridge = |emu: &mut Emulation, ext: &mut Speaker, mut inputs: Vec<Input>| {
            for _ in 0..16 {
                let mut replies = Vec::new();
                for input in inputs.drain(..) {
                    ext.apply(input, SimTime::ZERO, &mut replies);
                }
                for o in replies {
                    if let Output::Send(_, m) = o {
                        emu.inject_external(h, m);
                    }
                }
                emu.run_until_quiet(1000);
                let inbound = emu.drain_external(h).into_iter();
                inputs.extend(inbound.map(|m| Input::Message(PeerId(0), m)));
            }
        };
        let mut inputs = vec![Input::StartPeer(PeerId(0))];
        inputs.extend(out.into_iter().map(|m| Input::Message(PeerId(0), m)));
        bridge(&mut emu, &mut ext, inputs);
        assert!(ext.peer_established(PeerId(0)));
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(9)));
        // Routes originated externally reach the emulation.
        let p = Prefix::v4(203, 0, 113, 0, 24);
        bridge(&mut emu, &mut ext, vec![Input::Originate(p, vec![])]);
        assert!(emu.daemon(a).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn telemetry_observes_emulated_session() {
        let (mut emu, a, _b) = pair();
        let telemetry = Telemetry::new();
        emu.set_telemetry(telemetry.clone());
        emu.start_all();
        emu.run_until_quiet(1000);
        emu.control(a, Input::Originate(Prefix::v4(10, 50, 0, 0, 16), vec![]));
        emu.run_until_quiet(1000);
        emu.export_net_stats();
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("bgp.session.established"), 2);
        assert!(snap.counter("bgp.speaker.updates_out") > 0);
        assert!(snap.gauge("netsim.transport.delivered").unwrap_or(0) > 0);
        assert!(snap
            .gauges
            .keys()
            .any(|k| k.starts_with("netsim.link.") && k.ends_with(".tx_packets")));
        assert_eq!(snap.validate(&["bgp.session.established"]), Ok(()));
    }

    #[test]
    fn link_down_blocks_messages() {
        let (mut emu, a, b) = pair();
        emu.set_link_up(a, b, false);
        emu.start_all();
        emu.run_until_quiet(1000);
        assert!(!emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(!emu.daemon(b).unwrap().peer_established(PeerId(0)));
    }

    #[test]
    fn memory_accounting_sums_containers() {
        let (mut emu, a, _b) = pair();
        let before = emu.total_memory();
        for i in 0..100u32 {
            emu.control(
                a,
                Input::Originate(Prefix::v4(10, 70, i as u8, 0, 24), vec![]),
            );
        }
        let after = emu.total_memory();
        assert!(after > before);
        let by = emu.memory_by_container();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].0, "r0");
    }

    #[test]
    fn run_until_quiet_respects_limit() {
        let (mut emu, _a, _b) = pair();
        emu.start_all();
        let steps = emu.run_until_quiet(1);
        assert_eq!(steps, 1);
    }

    #[test]
    fn session_reset_fault_recovers_via_retry() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 50, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(10_000);
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());

        let mut plan = FaultPlan::new().at(
            SimTime::from_secs(10),
            FaultAction::SessionReset(NodeId(a as u32), NodeId(b as u32)),
        );
        emu.run_with_faults(&mut plan, SimTime::from_secs(60), 100_000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(
            emu.daemon(b).unwrap().loc_rib().get(&p).is_some(),
            "route survives the reset"
        );
        // Both ends logged the loss.
        let downs = emu
            .events
            .iter()
            .filter(|(_, _, e)| matches!(e, SpeakerEvent::PeerDown(_, _)))
            .count();
        assert!(downs >= 2, "downs={downs}");
    }

    #[test]
    fn corrupt_message_fault_notifies_and_recovers() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 51, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(10_000);

        // Corrupt the next a->b message, then originate so one flows.
        let mut plan = FaultPlan::new()
            .at(
                SimTime::from_secs(5),
                FaultAction::CorruptMessage(NodeId(a as u32), NodeId(b as u32)),
            )
            .at(
                SimTime::from_secs(6),
                FaultAction::SessionReset(NodeId(a as u32), NodeId(b as u32)),
            );
        emu.control(a, Input::Originate(Prefix::v4(10, 52, 0, 0, 16), vec![]));
        emu.run_with_faults(&mut plan, SimTime::from_secs(90), 100_000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn mux_crash_and_restart_relearns_routes() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let pa = Prefix::v4(10, 53, 0, 0, 16);
        let pb = Prefix::v4(10, 54, 0, 0, 16);
        emu.control(a, Input::Originate(pa, vec![]));
        emu.control(b, Input::Originate(pb, vec![]));
        emu.run_until_quiet(10_000);
        assert!(emu.daemon(a).unwrap().loc_rib().get(&pb).is_some());

        let mut plan = FaultPlan::new()
            .at(
                SimTime::from_secs(10),
                FaultAction::MuxCrash(NodeId(b as u32)),
            )
            .at(
                SimTime::from_secs(20),
                FaultAction::MuxRestart(NodeId(b as u32)),
            );
        emu.run_with_faults(&mut plan, SimTime::from_secs(120), 200_000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        // b relearned a's route after losing everything; a still has b's
        // (origination persisted across the crash).
        assert!(emu.daemon(b).unwrap().loc_rib().get(&pa).is_some());
        assert!(emu.daemon(a).unwrap().loc_rib().get(&pb).is_some());
    }

    #[test]
    fn crashed_daemon_takes_configuration_but_no_messages() {
        let (mut emu, a, b) = pair();
        let h = emu.add_external_session(b, PeerConfig::new(PeerId(9), Asn(47065)));
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 57, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(10_000);
        emu.crash_daemon(b);
        emu.run_until_quiet(10_000);
        emu.drain_external(h);

        // Its transport is gone: an external message is dropped, and a
        // reconfiguration's outputs go nowhere...
        emu.inject_external(h, BgpMessage::Keepalive);
        emu.control(
            b,
            Input::SetPeerImport(PeerId(0), peering_bgp::Policy::reject_all()),
        );
        assert_eq!(emu.run_until_quiet(10_000), 0);
        assert!(emu.drain_external(h).is_empty());

        // ...but the reconfiguration itself is there after the restart.
        emu.restart_daemon(b);
        emu.run_with_faults(
            &mut FaultPlan::new(),
            emu.now() + SimDuration::from_secs(60),
            100_000,
        );
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(
            emu.daemon(b).unwrap().loc_rib().get(&p).is_none(),
            "import policy set while crashed rejects a's route"
        );
    }

    #[test]
    fn session_log_does_not_grow_with_route_changes() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0)];
        let mut emu = flat_mesh("ring-4", 4, &edges, 1);
        emu.start_all();
        emu.run_until_quiet(usize::MAX);
        let before = emu.events.len();
        assert_eq!(before, 8, "one PeerUp per session end");
        let p = Prefix::v4(10, 58, 0, 0, 16);
        for _ in 0..200 {
            emu.control(0, Input::Originate(p, vec![]));
            emu.run_until_quiet(usize::MAX);
            emu.control(0, Input::WithdrawOrigin(p));
            emu.run_until_quiet(usize::MAX);
        }
        assert_eq!(emu.events.len(), before);
    }

    #[test]
    fn partition_and_heal_reconverges() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 55, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_until_quiet(10_000);

        // Partition b long enough for its hold timer (90 s) to expire,
        // then heal; retry brings the session back.
        let mut plan = FaultPlan::new()
            .at(
                SimTime::from_secs(10),
                FaultAction::PartitionAs(NodeId(b as u32)),
            )
            .at(
                SimTime::from_secs(150),
                FaultAction::HealAs(NodeId(b as u32)),
            );
        emu.run_with_faults(&mut plan, SimTime::from_secs(400), 500_000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn delay_spike_slows_but_does_not_break() {
        let (mut emu, a, b) = pair();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let mut plan = FaultPlan::new().at(
            SimTime::from_secs(5),
            FaultAction::DelaySpike(
                NodeId(a as u32),
                NodeId(b as u32),
                SimDuration::from_millis(500),
            ),
        );
        let p = Prefix::v4(10, 56, 0, 0, 16);
        emu.control(a, Input::Originate(p, vec![]));
        emu.run_with_faults(&mut plan, SimTime::from_secs(60), 100_000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }
}
