//! The emulation core: containers, links, BGP sessions, and the event
//! loop that moves messages between hosted daemons.

use crate::container::{Container, ResourceModel};
use peering_bgp::{BgpMessage, Output, PeerConfig, PeerId, ProvenanceLog, Speaker, SpeakerEvent};
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
    /// Log of speaker events `(time, container, event)`.
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

    /// Attach a telemetry handle to the emulation and every hosted daemon
    /// (including any currently crashed ones, whose stashed state comes
    /// back on restart). Containers added later inherit the handle.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for c in &mut self.containers {
            if let Some(d) = c.daemon.as_mut() {
                d.set_telemetry(telemetry.clone());
            }
        }
        for d in self.crashed.values_mut() {
            d.set_telemetry(telemetry.clone());
        }
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
        for c in &mut self.containers {
            if let Some(d) = c.daemon.as_mut() {
                d.set_provenance(provenance.clone());
            }
        }
        for d in self.crashed.values_mut() {
            d.set_provenance(provenance.clone());
        }
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

    /// Add a container, returning its index.
    pub fn add_container(&mut self, mut c: Container) -> usize {
        if self.telemetry.is_enabled() {
            if let Some(d) = c.daemon.as_mut() {
                d.set_telemetry(self.telemetry.clone());
            }
        }
        if self.provenance.is_enabled() {
            if let Some(d) = c.daemon.as_mut() {
                d.set_provenance(self.provenance.clone());
            }
        }
        self.containers.push(c);
        self.containers.len() - 1
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

    /// Configure a BGP session between two router containers that share a
    /// link. `a_cfg` is installed on `a` (its view of `b`) and vice versa.
    ///
    /// Panics if either container has no daemon.
    pub fn connect_bgp(&mut self, a: usize, a_cfg: PeerConfig, b: usize, b_cfg: PeerConfig) {
        let a_peer = a_cfg.id;
        let b_peer = b_cfg.id;
        self.containers[a]
            .daemon
            .as_mut()
            .expect("container a has a daemon")
            .add_peer(a_cfg);
        self.containers[b]
            .daemon
            .as_mut()
            .expect("container b has a daemon")
            .add_peer(b_cfg);
        self.sessions.insert(
            (a, a_peer),
            SessionEnd::Internal {
                container: b,
                peer: b_peer,
            },
        );
        self.sessions.insert(
            (b, b_peer),
            SessionEnd::Internal {
                container: a,
                peer: a_peer,
            },
        );
    }

    /// Configure a session from `container` to an external party.
    /// Messages the daemon emits on this session queue on the returned
    /// handle; inject replies with [`inject_external`](Self::inject_external).
    pub fn add_external_session(&mut self, container: usize, cfg: PeerConfig) -> ExternalHandle {
        let peer = cfg.id;
        self.containers[container]
            .daemon
            .as_mut()
            .expect("container has a daemon")
            .add_peer(cfg);
        let h = ExternalHandle(self.external_out.len());
        self.external_out.push(Vec::new());
        self.external_home.push((container, peer));
        self.sessions
            .insert((container, peer), SessionEnd::External(h));
        h
    }

    fn route_outputs(&mut self, from: usize, outputs: Vec<Output>) {
        let now = self.net.now();
        for out in outputs {
            match out {
                Output::Event(ev) => self.events.push((now, from, ev)),
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

    /// Start every configured session on a container.
    pub fn start_container(&mut self, idx: usize) {
        let now = self.net.now();
        let Some(daemon) = self.containers[idx].daemon.as_mut() else {
            return;
        };
        let peers: Vec<PeerId> = daemon.peer_ids().collect();
        let mut outputs = Vec::new();
        for p in peers {
            outputs.extend(daemon.start_peer(p, now));
        }
        self.route_outputs(idx, outputs);
    }

    /// Start every session on every container.
    pub fn start_all(&mut self) {
        for idx in 0..self.containers.len() {
            self.start_container(idx);
        }
    }

    /// Originate a prefix from a container's daemon.
    pub fn originate(&mut self, idx: usize, prefix: peering_netsim::Prefix) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .originate(prefix, now);
        self.route_outputs(idx, outputs);
    }

    /// Administratively stop one BGP session on a container, routing the
    /// resulting messages (Cease toward the peer, withdrawals toward
    /// everyone else) through the emulated network.
    pub fn stop_peer(&mut self, idx: usize, peer: PeerId) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .stop_peer(peer, now);
        self.route_outputs(idx, outputs);
    }

    /// Withdraw a locally originated prefix from a container's daemon.
    pub fn withdraw(&mut self, idx: usize, prefix: peering_netsim::Prefix) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .withdraw_origin(prefix, now);
        self.route_outputs(idx, outputs);
    }

    /// Swap the import policy a container's daemon applies on `peer` and
    /// re-filter what that peer already advertised, routing any resulting
    /// withdrawals through the network. The containment engine uses this
    /// to quarantine (and later reinstate) a client session.
    pub fn set_peer_import(&mut self, idx: usize, peer: PeerId, policy: peering_bgp::Policy) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .set_peer_import(peer, policy, now);
        self.route_outputs(idx, outputs);
    }

    /// Re-resolve the export peer-group a container's daemon places
    /// `peer` in, routing any resync deltas through the network. The
    /// containment engine uses this to split a quarantined client out of
    /// its shared export group (and to rejoin it on parole) without
    /// touching the group-mates' copy-on-write Adj-RIB-Out.
    pub fn set_peer_export_grouping(
        &mut self,
        idx: usize,
        peer: PeerId,
        grouping: peering_bgp::ExportGrouping,
    ) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .set_peer_export_grouping(peer, grouping, now);
        self.route_outputs(idx, outputs);
    }

    /// Flip the administrative state of `peer` on a container's daemon.
    /// Disabling tears the session down and pins it down — daemon
    /// restarts and retry timers will not resurrect it — which is what
    /// lets a migration plan's `SessionDown` survive a chaos
    /// crash/restart fault mid-plan. Enabling starts the session.
    pub fn set_peer_enabled(&mut self, idx: usize, peer: PeerId, enabled: bool) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .set_peer_enabled(peer, enabled, now);
        self.route_outputs(idx, outputs);
    }

    /// Swap the export policy a container's daemon applies toward
    /// `peer`, routing the resync delta (exactly the routes whose
    /// export verdict changed) through the network.
    pub fn set_peer_export(&mut self, idx: usize, peer: PeerId, policy: peering_bgp::Policy) {
        let now = self.net.now();
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .set_peer_export(peer, policy, now);
        self.route_outputs(idx, outputs);
    }

    /// Ask `peer` to re-advertise its table (RFC 2918 ROUTE-REFRESH),
    /// routing the request through the network.
    pub fn request_refresh(&mut self, idx: usize, peer: PeerId) {
        let outputs = self.containers[idx]
            .daemon
            .as_mut()
            .expect("daemon")
            .request_refresh(peer);
        self.route_outputs(idx, outputs);
    }

    /// Inject a message arriving from outside on an external session.
    pub fn inject_external(&mut self, h: ExternalHandle, msg: BgpMessage) {
        let (container, peer) = self.external_home[h.0];
        let now = self.net.now();
        let outputs = self.containers[container]
            .daemon
            .as_mut()
            .expect("daemon")
            .on_message(peer, msg, now);
        self.route_outputs(container, outputs);
    }

    /// Drain messages the emulation wants to send out on a handle.
    pub fn drain_external(&mut self, h: ExternalHandle) -> Vec<BgpMessage> {
        std::mem::take(&mut self.external_out[h.0])
    }

    /// Deliver one BGP message to a container's daemon, honoring any
    /// pending corruption marker for the `(from, to)` pair.
    fn deliver_bgp(&mut self, from: usize, to: usize, to_peer: PeerId, msg: BgpMessage) {
        let now = self.net.now();
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
        let Some(daemon) = self.containers[to].daemon.as_mut() else {
            return;
        };
        let outputs = if corrupted {
            daemon.on_corrupt_message(to_peer, now)
        } else if corrupt_attrs {
            let BgpMessage::Update(update) = msg else {
                unreachable!("corrupt_attrs implies an UPDATE payload");
            };
            daemon.on_malformed_update(to_peer, update, now)
        } else {
            daemon.on_message(to_peer, msg, now)
        };
        self.route_outputs(to, outputs);
    }

    /// Process one in-flight delivery. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((_now, delivery)) = self.net.next() else {
            return false;
        };
        match delivery.msg {
            Payload::Tick => self.tick_all(),
            Payload::Bgp { to_peer, msg } => {
                self.deliver_bgp(
                    delivery.from.0 as usize,
                    delivery.to.0 as usize,
                    to_peer,
                    msg,
                );
            }
        }
        true
    }

    /// Run until no messages are in flight (bounded by `limit` steps).
    /// Returns the number of deliveries processed.
    pub fn run_until_quiet(&mut self, limit: usize) -> usize {
        let mut steps = 0;
        while steps < limit && self.step() {
            steps += 1;
        }
        steps
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

    /// Tear down every BGP session riding the `a`<->`b` adjacency, on
    /// both ends, without any message on the wire (TCP reset).
    pub fn reset_sessions_between(&mut self, a: usize, b: usize) {
        let now = self.net.now();
        let ends: Vec<(usize, PeerId)> = self
            .sessions
            .iter()
            .filter_map(|((c, pid), end)| match end {
                SessionEnd::Internal { container, .. }
                    if (*c == a && *container == b) || (*c == b && *container == a) =>
                {
                    Some((*c, *pid))
                }
                _ => None,
            })
            .collect();
        for (c, pid) in ends {
            let Some(daemon) = self.containers[c].daemon.as_mut() else {
                continue;
            };
            let outputs = daemon.reset_peer(pid, now);
            self.route_outputs(c, outputs);
        }
    }

    /// Crash the daemon on a container: its volatile state leaves the
    /// emulation (stashed for a later restart) and every far end sees its
    /// transport die.
    pub fn crash_daemon(&mut self, idx: usize) {
        let now = self.net.now();
        let Some(daemon) = self.containers[idx].daemon.take() else {
            return;
        };
        self.telemetry.counter_inc("emulation.daemon.crashes");
        self.crashed.insert(idx, daemon);
        let far: Vec<(usize, PeerId)> = self
            .sessions
            .iter()
            .filter_map(|((c, pid), end)| match end {
                SessionEnd::Internal { container, .. } if *container == idx && *c != idx => {
                    Some((*c, *pid))
                }
                _ => None,
            })
            .collect();
        for (c, pid) in far {
            let Some(d) = self.containers[c].daemon.as_mut() else {
                continue;
            };
            let outputs = d.reset_peer(pid, now);
            self.route_outputs(c, outputs);
        }
    }

    /// Restart a crashed daemon: configuration and local originations
    /// survived, learned state did not. Sessions restart immediately.
    pub fn restart_daemon(&mut self, idx: usize) {
        let now = self.net.now();
        let Some(mut daemon) = self.crashed.remove(&idx) else {
            return;
        };
        self.telemetry.counter_inc("emulation.daemon.restarts");
        let outputs = daemon.restart(now);
        self.containers[idx].daemon = Some(daemon);
        self.route_outputs(idx, outputs);
        self.start_container(idx);
    }

    /// Drive the emulation under a scripted fault plan.
    ///
    /// A tick fires every `tick_every` of simulated time: due faults are
    /// applied, then every daemon's timers run (hold/keepalive expiry,
    /// ConnectRetry reconnects, graceful-restart sweeps). The tick chain
    /// stops once `until` is reached and the plan is exhausted; remaining
    /// in-flight messages then drain. Returns deliveries processed,
    /// bounded by `limit`.
    pub fn run_with_faults(
        &mut self,
        plan: &mut FaultPlan,
        until: SimTime,
        tick_every: SimDuration,
        limit: usize,
    ) -> usize {
        assert!(!tick_every.is_zero(), "tick_every must be positive");
        let mut steps = 0;
        self.net
            .set_timer(NodeId(0), SimDuration::ZERO, Payload::Tick);
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
                    self.tick_all();
                    if now < until || !plan.exhausted() {
                        self.net.set_timer(NodeId(0), tick_every, Payload::Tick);
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

    /// Drive every daemon's timers at the current time.
    pub fn tick_all(&mut self) {
        let now = self.net.now();
        for idx in 0..self.containers.len() {
            let Some(daemon) = self.containers[idx].daemon.as_mut() else {
                continue;
            };
            let outputs = daemon.tick(now);
            self.route_outputs(idx, outputs);
        }
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
    use peering_bgp::{Asn, Prefix, SpeakerConfig};
    use std::net::Ipv4Addr;

    fn router(name: &str, asn: u32) -> Container {
        Container::router(
            name,
            Speaker::new(SpeakerConfig::new(
                Asn(asn),
                Ipv4Addr::new(10, 0, 0, (asn % 250) as u8 + 1),
            )),
        )
    }

    fn two_router_emulation() -> (Emulation, usize, usize) {
        let mut emu = Emulation::new(SimRng::new(1));
        let a = emu.add_container(router("a", 65001));
        let b = emu.add_container(router("b", 65002));
        emu.link(a, b, LinkParams::default());
        emu.connect_bgp(
            a,
            PeerConfig::new(PeerId(0), Asn(65002)),
            b,
            PeerConfig::new(PeerId(0), Asn(65001)).passive(),
        );
        (emu, a, b)
    }

    #[test]
    fn session_establishes_and_routes_flow() {
        let (mut emu, a, b) = two_router_emulation();
        emu.start_all();
        emu.run_until_quiet(1000);
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        let p = Prefix::v4(10, 50, 0, 0, 16);
        emu.originate(a, p);
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
        let mut emu = Emulation::new(SimRng::new(2));
        let a = emu.add_container(router("a", 65001));
        let b = emu.add_container(router("b", 65002));
        let c = emu.add_container(router("c", 65003));
        emu.link(a, b, LinkParams::default());
        emu.link(b, c, LinkParams::default());
        emu.connect_bgp(
            a,
            PeerConfig::new(PeerId(0), Asn(65002)),
            b,
            PeerConfig::new(PeerId(0), Asn(65001)).passive(),
        );
        emu.connect_bgp(
            b,
            PeerConfig::new(PeerId(1), Asn(65003)),
            c,
            PeerConfig::new(PeerId(0), Asn(65002)).passive(),
        );
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 60, 0, 0, 16);
        emu.originate(a, p);
        emu.run_until_quiet(10_000);
        let at_c = emu.daemon(c).unwrap().loc_rib().get(&p).expect("c learned");
        assert_eq!(at_c.attrs.as_path.to_string(), "65002 65001");
    }

    #[test]
    fn external_session_bridges_out() {
        let (mut emu, a, _b) = two_router_emulation();
        let h = emu.add_external_session(a, PeerConfig::new(PeerId(9), Asn(47065)));
        emu.start_all();
        emu.run_until_quiet(1000);
        // The daemon sent an OPEN out the external session.
        let out = emu.drain_external(h);
        assert!(out.iter().any(|m| matches!(m, BgpMessage::Open(_))));
        // Build an external speaker, feed it, and bridge replies back.
        let mut ext = Speaker::new(SpeakerConfig::new(Asn(47065), Ipv4Addr::new(100, 64, 0, 1)));
        ext.add_peer(PeerConfig::new(PeerId(0), Asn(65001)).passive());
        ext.start_peer(PeerId(0), SimTime::ZERO);
        let mut inbound = out;
        for _ in 0..16 {
            if inbound.is_empty() {
                break;
            }
            let mut replies = Vec::new();
            for m in inbound.drain(..) {
                for o in ext.on_message(PeerId(0), m, SimTime::ZERO) {
                    if let Output::Send(_, msg) = o {
                        replies.push(msg);
                    }
                }
            }
            for m in replies {
                emu.inject_external(h, m);
            }
            emu.run_until_quiet(1000);
            inbound = emu.drain_external(h);
        }
        assert!(ext.peer_established(PeerId(0)));
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(9)));
        // Routes originated externally reach the emulation.
        let p = Prefix::v4(203, 0, 113, 0, 24);
        let mut outs = Vec::new();
        for o in ext.originate(p, SimTime::ZERO) {
            if let Output::Send(_, m) = o {
                outs.push(m);
            }
        }
        for m in outs {
            emu.inject_external(h, m);
        }
        emu.run_until_quiet(1000);
        assert!(emu.daemon(a).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn telemetry_observes_emulated_session() {
        let (mut emu, a, _b) = two_router_emulation();
        let telemetry = Telemetry::new();
        emu.set_telemetry(telemetry.clone());
        emu.start_all();
        emu.run_until_quiet(1000);
        emu.originate(a, Prefix::v4(10, 50, 0, 0, 16));
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
        let (mut emu, a, b) = two_router_emulation();
        emu.set_link_up(a, b, false);
        emu.start_all();
        emu.run_until_quiet(1000);
        assert!(!emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(!emu.daemon(b).unwrap().peer_established(PeerId(0)));
    }

    #[test]
    fn memory_accounting_sums_containers() {
        let (mut emu, a, _b) = two_router_emulation();
        let before = emu.total_memory();
        for i in 0..100u32 {
            emu.originate(a, Prefix::v4(10, 70, i as u8, 0, 24));
        }
        let after = emu.total_memory();
        assert!(after > before);
        let by = emu.memory_by_container();
        assert_eq!(by.len(), 2);
        assert_eq!(by[0].0, "a");
    }

    #[test]
    fn run_until_quiet_respects_limit() {
        let (mut emu, _a, _b) = two_router_emulation();
        emu.start_all();
        let steps = emu.run_until_quiet(1);
        assert_eq!(steps, 1);
    }

    /// A router whose sessions reconnect by themselves and whose peers
    /// are retained across restarts (the chaos-ready configuration).
    fn resilient_router(name: &str, asn: u32, seed: u64) -> Container {
        Container::router(
            name,
            Speaker::new(
                SpeakerConfig::new(Asn(asn), Ipv4Addr::new(10, 0, 0, (asn % 250) as u8 + 1))
                    .with_connect_retry(peering_bgp::ConnectRetryConfig::new(seed)),
            ),
        )
    }

    fn resilient_pair_emulation() -> (Emulation, usize, usize) {
        let mut emu = Emulation::new(SimRng::new(7));
        let a = emu.add_container(resilient_router("a", 65001, 1));
        let b = emu.add_container(resilient_router("b", 65002, 2));
        emu.link(a, b, LinkParams::default());
        emu.connect_bgp(
            a,
            PeerConfig::new(PeerId(0), Asn(65002)).graceful_restart(SimDuration::from_secs(120)),
            b,
            PeerConfig::new(PeerId(0), Asn(65001))
                .passive()
                .graceful_restart(SimDuration::from_secs(120)),
        );
        (emu, a, b)
    }

    #[test]
    fn session_reset_fault_recovers_via_retry() {
        let (mut emu, a, b) = resilient_pair_emulation();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 50, 0, 0, 16);
        emu.originate(a, p);
        emu.run_until_quiet(10_000);
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());

        let mut plan = FaultPlan::new().at(
            SimTime::from_secs(10),
            FaultAction::SessionReset(NodeId(a as u32), NodeId(b as u32)),
        );
        emu.run_with_faults(
            &mut plan,
            SimTime::from_secs(60),
            SimDuration::from_secs(1),
            100_000,
        );
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
        let (mut emu, a, b) = resilient_pair_emulation();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 51, 0, 0, 16);
        emu.originate(a, p);
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
        emu.originate(a, Prefix::v4(10, 52, 0, 0, 16));
        emu.run_with_faults(
            &mut plan,
            SimTime::from_secs(90),
            SimDuration::from_secs(1),
            100_000,
        );
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn mux_crash_and_restart_relearns_routes() {
        let (mut emu, a, b) = resilient_pair_emulation();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let pa = Prefix::v4(10, 53, 0, 0, 16);
        let pb = Prefix::v4(10, 54, 0, 0, 16);
        emu.originate(a, pa);
        emu.originate(b, pb);
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
        emu.run_with_faults(
            &mut plan,
            SimTime::from_secs(120),
            SimDuration::from_secs(1),
            200_000,
        );
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        // b relearned a's route after losing everything; a still has b's
        // (origination persisted across the crash).
        assert!(emu.daemon(b).unwrap().loc_rib().get(&pa).is_some());
        assert!(emu.daemon(a).unwrap().loc_rib().get(&pb).is_some());
    }

    #[test]
    fn partition_and_heal_reconverges() {
        let (mut emu, a, b) = resilient_pair_emulation();
        emu.start_all();
        emu.run_until_quiet(10_000);
        let p = Prefix::v4(10, 55, 0, 0, 16);
        emu.originate(a, p);
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
        emu.run_with_faults(
            &mut plan,
            SimTime::from_secs(400),
            SimDuration::from_secs(1),
            500_000,
        );
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }

    #[test]
    fn delay_spike_slows_but_does_not_break() {
        let (mut emu, a, b) = resilient_pair_emulation();
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
        emu.originate(a, p);
        emu.run_with_faults(
            &mut plan,
            SimTime::from_secs(60),
            SimDuration::from_secs(1),
            100_000,
        );
        assert!(emu.daemon(a).unwrap().peer_established(PeerId(0)));
        assert!(emu.daemon(b).unwrap().loc_rib().get(&p).is_some());
    }
}
