//! The BGP multiplexer — the heart of a PEERING server.
//!
//! "PEERING servers do not run the BGP route selection process; instead,
//! they establish one BGP session per peer with each client" (§3). That
//! is the Quagga-era design ([`MuxDesign::PerPeerSessions`]): faithful,
//! but the session count is `upstreams × clients`, which "cannot support
//! large IXPs with many peers". The paper's planned replacement is
//! "lightweight multiplexing by using BGP Additional Paths" on BIRD
//! ([`MuxDesign::AddPathMux`]): one session per client carries every
//! upstream's routes, distinguished by ADD-PATH ids.
//!
//! [`MuxHarness`] builds either design as a live network of speakers
//! (upstream neighbors, the server-side mux, and clients) inside the
//! emulation substrate, so the two designs can be compared on sessions,
//! memory, and update fan-out — the E7 ablation.

use crate::containment::{ContainmentConfig, ContainmentEngine, ContainmentState, UpdateVerdict};
use crate::monitor::{Monitor, SessionKind, SessionRecord, TelemetryEvent};
use crate::safety::{SafetyConfig, Violation};
use peering_bgp::{
    Asn, ConnectRetryConfig, ExportGrouping, Input, MaxPrefixConfig, PeerConfig, PeerId, Policy,
    Prefix, Speaker, SpeakerConfig, SpeakerEvent,
};
use peering_emulation::{Container, Emulation};
use peering_netsim::{FaultPlan, LinkParams, SimRng, SimTime};
use peering_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Which server architecture to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MuxDesign {
    /// Quagga/Transit-Portal style: one server-side speaker per upstream
    /// peer; every client holds one session per upstream.
    PerPeerSessions,
    /// BIRD style: one server-side speaker; one ADD-PATH session per
    /// client carries all upstreams' routes.
    AddPathMux,
}

/// One routing change submitted by a client experiment — the single
/// argument of [`MuxHarness::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteChange {
    /// Originate `prefix` at the client.
    Announce(Prefix),
    /// Withdraw `prefix` at the client.
    Withdraw(Prefix),
}

/// Comparison metrics for one built mux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxStats {
    /// BGP sessions terminated at the server side.
    pub server_sessions: usize,
    /// Sessions each client must maintain.
    pub sessions_per_client: usize,
    /// Server-side BGP table memory in bytes.
    pub server_memory: usize,
    /// UPDATE messages the server has emitted.
    pub server_updates_sent: u64,
}

/// Typed builder for a mux deployment — the one construction surface
/// for [`MuxHarness`].
///
/// ```
/// # use peering_core::mux::{MuxDesign, MuxScaleConfig};
/// let h = MuxScaleConfig::new(MuxDesign::AddPathMux)
///     .upstreams(4)
///     .clients(3)
///     .seed(1)
///     .build();
/// assert!(h.fully_established());
/// ```
#[derive(Debug, Clone)]
pub struct MuxScaleConfig {
    design: MuxDesign,
    upstreams: usize,
    clients: usize,
    seed: u64,
    client_max_prefix: Option<MaxPrefixConfig>,
    client_link: LinkParams,
    client_export: Option<Policy>,
    containment: Option<ContainmentConfig>,
    telemetry: Option<Telemetry>,
    export_groups: bool,
}

impl MuxScaleConfig {
    /// Start a config for `design` with one upstream, one client,
    /// seed 0, and the peer-group export engine enabled.
    pub fn new(design: MuxDesign) -> Self {
        MuxScaleConfig {
            design,
            upstreams: 1,
            clients: 1,
            seed: 0,
            client_max_prefix: None,
            client_link: LinkParams::default(),
            client_export: None,
            containment: None,
            telemetry: None,
            export_groups: true,
        }
    }

    /// Number of upstream BGP neighbors the mux multiplexes.
    pub fn upstreams(mut self, n: usize) -> Self {
        self.upstreams = n;
        self
    }

    /// Number of client experiments terminated at the mux.
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// Seed for every RNG stream the deployment forks.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Enforce a max-prefix limit on every client-facing session.
    pub fn client_max_prefix(mut self, mp: MaxPrefixConfig) -> Self {
        self.client_max_prefix = Some(mp);
        self
    }

    /// Link parameters for client<->mux links (bandwidth and a queue
    /// bound here make flood scenarios exercise tail-drop).
    pub fn client_link(mut self, lp: LinkParams) -> Self {
        self.client_link = lp;
        self
    }

    /// Export policy each *client speaker* applies toward the mux.
    /// Defaults to export-everything (a full BGP speaker); scale
    /// scenarios set a no-transit policy so tenants only announce
    /// routes they originate instead of re-exporting learned ones.
    pub fn client_export(mut self, policy: Policy) -> Self {
        self.client_export = Some(policy);
        self
    }

    /// Arm the abuse-containment engine at build time (equivalent to
    /// calling [`MuxHarness::enable_containment`] on the built harness).
    pub fn containment(mut self, cfg: ContainmentConfig) -> Self {
        self.containment = Some(cfg);
        self
    }

    /// Attach a telemetry handle before the deployment converges, so
    /// establishment-phase metrics are captured too.
    pub fn telemetry(mut self, t: Telemetry) -> Self {
        self.telemetry = Some(t);
        self
    }

    /// Disable the peer-group export engine on the mux speakers: every
    /// client session computes and stores its own Adj-RIB-Out. This is
    /// the naive per-peer-copy reference the `mux_scale` bench compares
    /// marginal memory against.
    pub fn without_export_groups(mut self) -> Self {
        self.export_groups = false;
        self
    }

    /// Build the deployment and run it to convergence.
    pub fn build(self) -> MuxHarness {
        MuxHarness::build_from(self)
    }
}

/// A live mux deployment: upstream speakers, the mux, and clients.
pub struct MuxHarness {
    /// The architecture built.
    pub design: MuxDesign,
    emu: Emulation,
    upstream_nodes: Vec<usize>,
    mux_nodes: Vec<usize>,
    client_nodes: Vec<usize>,
    n_upstreams: usize,
    n_clients: usize,
    /// The safety import policy client sessions normally run; restored
    /// when a quarantined client is paroled.
    client_import: Policy,
    /// Escalation engine, present once
    /// [`enable_containment`](Self::enable_containment) is called.
    containment: Option<ContainmentEngine>,
    /// Whether the quarantine lever (reject-all import at the mux) is
    /// currently applied to each client.
    quarantine_applied: Vec<bool>,
    /// How far [`containment_step`](Self::containment_step) has scanned
    /// the emulation's speaker event log.
    events_cursor: usize,
}

/// Upstream neighbor ASNs start here (public range).
const UPSTREAM_ASN_BASE: u32 = 1000;
/// Client (experiment) ASNs are private.
const CLIENT_ASN_BASE: u32 = 65001;

impl MuxHarness {
    /// Build and establish the deployment described by `cfg`.
    fn build_from(cfg: MuxScaleConfig) -> Self {
        let MuxScaleConfig {
            design,
            upstreams: n_upstreams,
            clients: n_clients,
            seed,
            client_max_prefix,
            client_link,
            client_export,
            containment,
            telemetry,
            export_groups,
        } = cfg;
        let mut emu = Emulation::new(SimRng::new(seed).fork("mux"));
        // The mux is where clients touch the real Internet, so the
        // server-side sessions carry the safety policies: client-facing
        // sessions only *import* PEERING-pool prefixes (no hijacks into
        // the mux RIB), and upstream-facing sessions only *export*
        // PEERING-pool prefixes (no leaks out of it).
        let safety = SafetyConfig::peering_default();
        let client_import = safety.client_import_policy();
        let upstream_export = safety.export_safety_policy();
        // Every speaker reconnects by itself after a session loss, with a
        // per-container jitter stream so a mux crash does not make the
        // whole fleet retry in lockstep.
        let retry = |label: String| ConnectRetryConfig::new(SimRng::new(seed).fork(&label).seed());
        // Client-facing sessions optionally carry a max-prefix limit.
        let clientside = |cfg: PeerConfig| match client_max_prefix {
            Some(mp) => cfg.with_max_prefix(mp),
            None => cfg,
        };
        // The client speaker's own sessions toward the mux optionally
        // carry an export policy (e.g. no-transit for scale scenarios).
        let muxside = |cfg: PeerConfig| match &client_export {
            Some(policy) => cfg.export(policy.clone()),
            None => cfg,
        };
        // Upstream neighbor routers.
        let upstream_nodes: Vec<usize> = (0..n_upstreams)
            .map(|u| {
                let asn = Asn(UPSTREAM_ASN_BASE + u as u32);
                emu.add_container(Container::router(
                    &format!("upstream-{u}"),
                    Speaker::new(
                        SpeakerConfig::new(
                            asn,
                            Ipv4Addr::new(80, 249, (u >> 8) as u8, (u & 0xff) as u8),
                        )
                        .with_connect_retry(retry(format!("retry/upstream-{u}"))),
                    ),
                ))
            })
            .collect();
        // Client routers.
        let client_nodes: Vec<usize> = (0..n_clients)
            .map(|c| {
                let asn = Asn(CLIENT_ASN_BASE + c as u32);
                emu.add_container(Container::router(
                    &format!("client-{c}"),
                    Speaker::new(
                        SpeakerConfig::new(
                            asn,
                            Ipv4Addr::new(100, 64, (c >> 8) as u8, (c & 0xff) as u8),
                        )
                        .with_connect_retry(retry(format!("retry/client-{c}"))),
                    ),
                ))
            })
            .collect();

        // The mux speakers optionally run the naive per-peer Adj-RIB-Out
        // (the reference point the peer-group engine is measured against).
        let mux_speaker = |sc: SpeakerConfig| {
            Speaker::new(if export_groups {
                sc
            } else {
                sc.without_export_groups()
            })
        };
        let mux_nodes = match design {
            MuxDesign::PerPeerSessions => {
                // One transparent speaker per upstream.
                let mut nodes = Vec::with_capacity(n_upstreams);
                for u in 0..n_upstreams {
                    let node = emu.add_container(Container::router(
                        &format!("mux-{u}"),
                        mux_speaker(
                            SpeakerConfig::new(
                                Asn::PEERING,
                                Ipv4Addr::new(100, 65, (u >> 8) as u8, (u & 0xff) as u8),
                            )
                            .route_server()
                            .with_connect_retry(retry(format!("retry/mux-{u}"))),
                        ),
                    ));
                    nodes.push(node);
                }
                // Wire upstream u <-> mux-u.
                for u in 0..n_upstreams {
                    emu.link(upstream_nodes[u], nodes[u], LinkParams::default());
                    emu.connect_bgp(
                        upstream_nodes[u],
                        PeerConfig::new(PeerId(0), Asn::PEERING),
                        nodes[u],
                        PeerConfig::new(PeerId(0), Asn(UPSTREAM_ASN_BASE + u as u32))
                            .passive()
                            .export(upstream_export.clone()),
                    );
                }
                // Wire every client to every mux instance.
                for (c, &cn) in client_nodes.iter().enumerate() {
                    for (u, &mn) in nodes.iter().enumerate() {
                        emu.link(cn, mn, client_link);
                        emu.connect_bgp(
                            cn,
                            muxside(PeerConfig::new(PeerId(u as u32), Asn::PEERING)),
                            mn,
                            clientside(
                                PeerConfig::new(
                                    PeerId(1 + c as u32),
                                    Asn(CLIENT_ASN_BASE + c as u32),
                                )
                                .passive()
                                .import(client_import.clone()),
                            ),
                        );
                    }
                }
                nodes
            }
            MuxDesign::AddPathMux => {
                let node = emu.add_container(Container::router(
                    "mux",
                    mux_speaker(
                        SpeakerConfig::new(Asn::PEERING, Ipv4Addr::new(100, 65, 0, 0))
                            .route_server()
                            .with_connect_retry(retry("retry/mux".to_string())),
                    ),
                ));
                for (u, &un) in upstream_nodes.iter().enumerate().take(n_upstreams) {
                    emu.link(un, node, LinkParams::default());
                    emu.connect_bgp(
                        un,
                        PeerConfig::new(PeerId(0), Asn::PEERING),
                        node,
                        PeerConfig::new(PeerId(u as u32), Asn(UPSTREAM_ASN_BASE + u as u32))
                            .passive()
                            .export(upstream_export.clone()),
                    );
                }
                for (c, &cn) in client_nodes.iter().enumerate() {
                    emu.link(cn, node, client_link);
                    emu.connect_bgp(
                        cn,
                        muxside(PeerConfig::new(PeerId(0), Asn::PEERING)),
                        node,
                        clientside(
                            PeerConfig::new(
                                PeerId(1000 + c as u32),
                                Asn(CLIENT_ASN_BASE + c as u32),
                            )
                            .passive()
                            .all_paths()
                            .import(client_import.clone()),
                        ),
                    );
                }
                vec![node]
            }
        };

        let mut harness = MuxHarness {
            design,
            emu,
            upstream_nodes,
            mux_nodes,
            client_nodes,
            n_upstreams,
            n_clients,
            client_import,
            containment: None,
            quarantine_applied: vec![false; n_clients],
            events_cursor: 0,
        };
        if let Some(t) = telemetry {
            harness.set_telemetry(t);
        }
        harness.emu.start_all();
        harness.emu.run_until_quiet(usize::MAX);
        if let Some(cfg) = containment {
            harness.enable_containment(cfg);
        }
        harness
    }

    /// Originate `prefix` at upstream `u` and run to convergence.
    pub fn announce_from_upstream(&mut self, u: usize, prefix: Prefix) {
        self.emu
            .control(self.upstream_nodes[u], Input::Originate(prefix, vec![]));
        self.emu.run_until_quiet(usize::MAX);
    }

    /// Withdraw `prefix` at upstream `u` and run to convergence.
    pub fn withdraw_from_upstream(&mut self, u: usize, prefix: Prefix) {
        self.emu
            .control(self.upstream_nodes[u], Input::WithdrawOrigin(prefix));
        self.emu.run_until_quiet(usize::MAX);
    }

    /// Submit a routing change on behalf of client `c` and run to
    /// convergence. This is the one client-update entry point: when the
    /// containment engine is armed its rate limiter sees the update
    /// first, and a policed or quarantined update never reaches the
    /// wire; without an engine every change is forwarded. Whether an
    /// admitted announcement survives the mux's import policy is up to
    /// the safety config.
    pub fn submit(&mut self, c: usize, change: RouteChange) -> UpdateVerdict {
        let now = self.emu.now();
        let verdict = match self.containment.as_mut() {
            Some(engine) => engine.on_update(c, now),
            None => UpdateVerdict::Forward,
        };
        if verdict.admitted() {
            match change {
                RouteChange::Announce(prefix) => self
                    .emu
                    .control(self.client_nodes[c], Input::Originate(prefix, vec![])),
                RouteChange::Withdraw(prefix) => self
                    .emu
                    .control(self.client_nodes[c], Input::WithdrawOrigin(prefix)),
            }
            self.emu.run_until_quiet(usize::MAX);
        }
        self.apply_containment();
        verdict
    }

    /// Whether any mux instance accepted a route for `prefix`.
    pub fn mux_has_route(&self, prefix: &Prefix) -> bool {
        self.mux_nodes.iter().any(|&m| {
            self.emu
                .daemon(m)
                .map(|d| d.loc_rib().get(prefix).is_some())
                .unwrap_or(false)
        })
    }

    /// Number of paths upstream `u` holds for `prefix`.
    pub fn upstream_paths(&self, u: usize, prefix: &Prefix) -> usize {
        let Some(d) = self.emu.daemon(self.upstream_nodes[u]) else {
            return 0;
        };
        d.peer_ids()
            .filter_map(|p| d.adj_rib_in(p))
            .map(|rib| rib.paths(prefix).count())
            .sum()
    }

    /// Number of distinct paths client `c` holds for `prefix` across its
    /// session(s).
    pub fn client_paths(&self, c: usize, prefix: &Prefix) -> usize {
        let d = self
            .emu
            .daemon(self.client_nodes[c])
            .expect("client daemon");
        d.peer_ids()
            .filter_map(|p| d.adj_rib_in(p))
            .map(|rib| rib.paths(prefix).count())
            .sum()
    }

    /// The AS seen as first hop for each path client `c` has to `prefix`.
    pub fn client_path_origins(&self, c: usize, prefix: &Prefix) -> Vec<Asn> {
        let d = self
            .emu
            .daemon(self.client_nodes[c])
            .expect("client daemon");
        let mut v: Vec<Asn> = d
            .peer_ids()
            .filter_map(|p| d.adj_rib_in(p))
            .flat_map(|rib| rib.paths(prefix))
            .filter_map(|r| r.attrs.as_path.first_as())
            .collect();
        v.sort();
        v
    }

    /// Metrics for the comparison.
    pub fn stats(&self) -> MuxStats {
        let server_sessions = match self.design {
            MuxDesign::PerPeerSessions => self.n_upstreams + self.n_upstreams * self.n_clients,
            MuxDesign::AddPathMux => self.n_upstreams + self.n_clients,
        };
        let sessions_per_client = match self.design {
            MuxDesign::PerPeerSessions => self.n_upstreams,
            MuxDesign::AddPathMux => 1,
        };
        let mut server_memory = 0;
        let mut server_updates_sent = 0;
        for &m in &self.mux_nodes {
            let d = self.emu.daemon(m).expect("mux daemon");
            server_memory += d.table_memory();
            server_updates_sent += d.updates_sent;
        }
        MuxStats {
            server_sessions,
            sessions_per_client,
            server_memory,
            server_updates_sent,
        }
    }

    /// Attach a telemetry handle: the emulation substrate and every
    /// hosted speaker mirror `bgp.*` / `emulation.*` metrics into it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(engine) = self.containment.as_mut() {
            engine.set_telemetry(telemetry.clone());
        }
        self.emu.set_telemetry(telemetry);
    }

    /// The attached telemetry handle (disabled unless
    /// [`set_telemetry`](Self::set_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        self.emu.telemetry()
    }

    /// Export cumulative transport counters (`netsim.*` gauges) into the
    /// attached registry.
    pub fn export_net_stats(&self) {
        self.emu.export_net_stats();
    }

    /// Verify every configured session reached Established.
    pub fn fully_established(&self) -> bool {
        let all = |idx: usize| {
            let Some(d) = self.emu.daemon(idx) else {
                return false;
            };
            d.peer_ids().all(|p| d.peer_established(p))
        };
        self.upstream_nodes.iter().all(|&n| all(n))
            && self.mux_nodes.iter().all(|&n| all(n))
            && self.client_nodes.iter().all(|&n| all(n))
    }

    /// Emulation node index of mux instance `i`.
    pub fn mux_node(&self, i: usize) -> usize {
        self.mux_nodes[i]
    }

    /// Number of mux instances in this deployment (one per upstream for
    /// [`MuxDesign::PerPeerSessions`], one for [`MuxDesign::AddPathMux`]).
    pub fn mux_count(&self) -> usize {
        self.mux_nodes.len()
    }

    /// The peer id client `c`'s session carries on every mux instance —
    /// the handle for mux-side per-tenant state such as
    /// [`peering_bgp::Speaker::adj_rib_out`].
    pub fn client_peer_id(&self, c: usize) -> PeerId {
        self.client_peer(c)
    }

    /// Emulation node index of client `c`.
    pub fn client_node(&self, c: usize) -> usize {
        self.client_nodes[c]
    }

    /// Emulation node index of upstream `u`.
    pub fn upstream_node(&self, u: usize) -> usize {
        self.upstream_nodes[u]
    }

    /// Read-only access to the underlying emulation, for digests and
    /// RIB inspection by workload drivers.
    pub fn emulation(&self) -> &Emulation {
        &self.emu
    }

    /// Mutable access to the underlying emulation, for workload drivers
    /// that need raw fault injection or wire-level bursts.
    pub fn emulation_mut(&mut self) -> &mut Emulation {
        &mut self.emu
    }

    /// Crash mux instance `i`: the daemon process dies, every session it
    /// terminated drops at the far end.
    pub fn crash_mux(&mut self, i: usize) {
        let node = self.mux_nodes[i];
        self.emu.crash_daemon(node);
        self.emu.run_until_quiet(usize::MAX);
    }

    /// Restart a crashed mux instance `i` with empty RIBs; far-end
    /// speakers reconnect via their ConnectRetry timers and re-announce.
    pub fn restart_mux(&mut self, i: usize) {
        let node = self.mux_nodes[i];
        self.emu.restart_daemon(node);
        self.emu.run_until_quiet(usize::MAX);
    }

    /// Run the harness under a fault schedule until `until`. A tick every
    /// simulated second applies due faults and services each daemon
    /// whose retry/hold (or other) timers are due.
    pub fn run_faults(&mut self, plan: &mut FaultPlan, until: SimTime) {
        self.emu.run_with_faults(plan, until, usize::MAX);
    }

    /// Arm the abuse containment engine: one escalation lane per client.
    /// The event-log scan starts from "now" so establishment churn during
    /// build is not held against anyone.
    pub fn enable_containment(&mut self, cfg: ContainmentConfig) {
        let mut engine = ContainmentEngine::new(self.n_clients, cfg);
        engine.set_telemetry(self.emu.telemetry().clone());
        self.containment = Some(engine);
        self.events_cursor = self.emu.events.len();
    }

    /// The containment engine, if armed.
    pub fn containment(&self) -> Option<&ContainmentEngine> {
        self.containment.as_ref()
    }

    /// The client's peer id on a mux node (the mux side of its session).
    fn client_peer(&self, c: usize) -> PeerId {
        match self.design {
            MuxDesign::PerPeerSessions => PeerId(1 + c as u32),
            MuxDesign::AddPathMux => PeerId(1000 + c as u32),
        }
    }

    /// The client index behind a mux-side peer id, if it names a client.
    fn client_for_peer(design: MuxDesign, n_clients: usize, peer: PeerId) -> Option<usize> {
        let c = match design {
            MuxDesign::PerPeerSessions => (peer.0 as usize).checked_sub(1)?,
            MuxDesign::AddPathMux => (peer.0 as usize).checked_sub(1000)?,
        };
        (c < n_clients).then_some(c)
    }

    /// Feed a safety violation attributed to client `c` into the engine
    /// and apply any resulting quarantine immediately.
    pub fn report_violation(&mut self, c: usize, v: &Violation) {
        let now = self.emu.now();
        if let Some(engine) = self.containment.as_mut() {
            engine.on_violation(c, v, now);
        }
        self.apply_containment();
    }

    /// Advance containment: ingest new mux-side session events (flaps,
    /// max-prefix ceases) into the engine, run its clean-time machinery,
    /// and apply or lift quarantines.
    pub fn containment_step(&mut self) {
        let now = self.emu.now();
        if let Some(engine) = self.containment.as_mut() {
            // Scan the speaker event log for client sessions dropping at
            // the mux side; a Cease for max prefixes weighs more than an
            // ordinary flap.
            while self.events_cursor < self.emu.events.len() {
                let (time, node, ev) = &self.emu.events[self.events_cursor];
                self.events_cursor += 1;
                if !self.mux_nodes.contains(node) {
                    continue;
                }
                if let SpeakerEvent::PeerDown(peer, reason) = ev {
                    if let Some(c) = Self::client_for_peer(self.design, self.n_clients, *peer) {
                        if reason.contains("max prefixes") {
                            engine.on_max_prefix(c, *time);
                        } else {
                            engine.on_flap(c, *time);
                        }
                    }
                }
            }
            engine.tick(now);
        }
        self.apply_containment();
    }

    /// Bring the mux's per-client levers in line with the engine's
    /// ladder: newly quarantined clients get a reject-all import (their
    /// routes are withdrawn upstream) *and* are split out of their
    /// export peer-group into a solo group, so whatever happens to the
    /// quarantined session can never touch the copy-on-write Adj-RIB-Out
    /// base its former group-mates still read. Paroled clients get the
    /// safety policy back, rejoin their auto-derived group, and receive
    /// a ROUTE-REFRESH to re-learn their table. Both group moves are
    /// fingerprint-preserving, so bystander Adj-RIB-Outs stay
    /// byte-identical across quarantine and parole.
    fn apply_containment(&mut self) {
        let Some(engine) = self.containment.as_ref() else {
            return;
        };
        let changes: Vec<(usize, bool)> = (0..self.n_clients)
            .map(|c| (c, engine.state(c) == ContainmentState::Quarantined))
            .filter(|&(c, q)| q != self.quarantine_applied[c])
            .collect();
        for (c, quarantine) in changes {
            let peer = self.client_peer(c);
            for m in self.mux_nodes.clone() {
                if quarantine {
                    self.emu
                        .control(m, Input::SetPeerImport(peer, Policy::reject_all()));
                    self.emu
                        .control(m, Input::SetPeerExportGrouping(peer, ExportGrouping::Solo));
                } else {
                    self.emu
                        .control(m, Input::SetPeerImport(peer, self.client_import.clone()));
                    self.emu
                        .control(m, Input::SetPeerExportGrouping(peer, ExportGrouping::Auto));
                    self.emu.control(m, Input::RequestRefresh(peer));
                }
            }
            self.quarantine_applied[c] = quarantine;
            self.emu.run_until_quiet(usize::MAX);
        }
    }

    /// Replay the emulation's speaker event log into a [`Monitor`]
    /// session-lifecycle log.
    pub fn session_log_into(&self, monitor: &mut Monitor) {
        for (time, node, ev) in &self.emu.events {
            let (peer, kind, reason) = match ev {
                SpeakerEvent::PeerUp(p) => (p.0, SessionKind::Up, None),
                SpeakerEvent::PeerDown(p, reason) => (p.0, SessionKind::Down, Some(reason.clone())),
                _ => continue,
            };
            monitor.record(TelemetryEvent::Session(SessionRecord {
                time: *time,
                node: *node,
                peer,
                kind,
                reason,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_netsim::SimDuration;

    fn prefix(i: u32) -> Prefix {
        Prefix::v4(203, (i >> 8) as u8, (i & 0xff) as u8, 0, 24)
    }

    #[test]
    fn per_peer_design_establishes_and_delivers_all_paths() {
        let mut h = MuxScaleConfig::new(MuxDesign::PerPeerSessions)
            .upstreams(4)
            .clients(3)
            .seed(1)
            .build();
        assert!(h.fully_established());
        let p = prefix(1);
        for u in 0..4 {
            h.announce_from_upstream(u, p);
        }
        for c in 0..3 {
            assert_eq!(h.client_paths(c, &p), 4, "client {c} sees all 4 paths");
            let origins = h.client_path_origins(c, &p);
            assert_eq!(
                origins,
                vec![Asn(1000), Asn(1001), Asn(1002), Asn(1003)],
                "one path per upstream, untouched AS paths"
            );
        }
    }

    #[test]
    fn add_path_design_delivers_all_paths_on_one_session() {
        let mut h = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(4)
            .clients(3)
            .seed(1)
            .build();
        assert!(h.fully_established());
        let p = prefix(2);
        for u in 0..4 {
            h.announce_from_upstream(u, p);
        }
        for c in 0..3 {
            assert_eq!(h.client_paths(c, &p), 4, "client {c} sees all 4 paths");
            let origins = h.client_path_origins(c, &p);
            assert_eq!(origins, vec![Asn(1000), Asn(1001), Asn(1002), Asn(1003)]);
        }
        assert_eq!(h.stats().sessions_per_client, 1);
    }

    #[test]
    fn session_counts_match_the_designs() {
        let per_peer = MuxScaleConfig::new(MuxDesign::PerPeerSessions)
            .upstreams(5)
            .clients(4)
            .seed(1)
            .build();
        let add_path = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(5)
            .clients(4)
            .seed(1)
            .build();
        let pp = per_peer.stats();
        let ap = add_path.stats();
        assert_eq!(pp.server_sessions, 5 + 5 * 4);
        assert_eq!(ap.server_sessions, 5 + 4);
        assert_eq!(pp.sessions_per_client, 5);
        assert_eq!(ap.sessions_per_client, 1);
        assert!(
            ap.server_sessions < pp.server_sessions,
            "ADD-PATH mux needs fewer sessions"
        );
    }

    #[test]
    fn designs_grow_differently_with_scale() {
        // The paper's point: per-peer sessions explode at big IXPs.
        let small_pp = MuxScaleConfig::new(MuxDesign::PerPeerSessions)
            .upstreams(2)
            .clients(2)
            .seed(1)
            .build()
            .stats();
        let big_pp = MuxScaleConfig::new(MuxDesign::PerPeerSessions)
            .upstreams(8)
            .clients(6)
            .seed(1)
            .build()
            .stats();
        let small_ap = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(2)
            .clients(2)
            .seed(1)
            .build()
            .stats();
        let big_ap = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(8)
            .clients(6)
            .seed(1)
            .build()
            .stats();
        let pp_growth = big_pp.server_sessions as f64 / small_pp.server_sessions as f64;
        let ap_growth = big_ap.server_sessions as f64 / small_ap.server_sessions as f64;
        assert!(pp_growth > ap_growth);
    }

    #[test]
    fn mux_drops_client_hijacks_but_forwards_pool_space() {
        for design in [MuxDesign::PerPeerSessions, MuxDesign::AddPathMux] {
            let mut h = MuxScaleConfig::new(design)
                .upstreams(2)
                .clients(1)
                .seed(3)
                .build();
            assert!(h.fully_established());
            // A client announcing space outside the PEERING pool is
            // stopped at the mux's import policy: nothing reaches the
            // mux RIB, let alone an upstream.
            let hijack = Prefix::v4(8, 8, 8, 0, 24);
            h.submit(0, RouteChange::Announce(hijack));
            assert!(!h.mux_has_route(&hijack), "{design:?}: hijack imported");
            assert_eq!(h.upstream_paths(0, &hijack), 0, "{design:?}");
            // The client's allocated PEERING /24 flows through to the
            // upstreams, with the client's private ASN stripped at the
            // border by the export policy.
            let owned = Prefix::v4(184, 164, 224, 0, 24);
            h.submit(0, RouteChange::Announce(owned));
            assert!(h.mux_has_route(&owned), "{design:?}: pool space dropped");
            for u in 0..2 {
                assert_eq!(h.upstream_paths(u, &owned), 1, "{design:?} upstream {u}");
                let d = h.emu.daemon(h.upstream_nodes[u]).expect("daemon");
                let rib = d.adj_rib_in(PeerId(0)).expect("rib");
                for r in rib.paths(&owned) {
                    assert!(
                        !r.attrs.as_path.asns().any(|a| a.is_private()),
                        "{design:?}: private ASN leaked upstream"
                    );
                }
            }
        }
    }

    #[test]
    fn mux_crash_and_restart_recovers_both_designs() {
        use peering_netsim::{FaultAction, NodeId};
        for design in [MuxDesign::PerPeerSessions, MuxDesign::AddPathMux] {
            let mut h = MuxScaleConfig::new(design)
                .upstreams(3)
                .clients(2)
                .seed(5)
                .build();
            let p = prefix(42);
            for u in 0..3 {
                h.announce_from_upstream(u, p);
            }
            assert_eq!(h.client_paths(0, &p), 3, "{design:?}: baseline");
            // Crash a mux daemon at t=10s and revive it at t=20s; run on
            // until the far ends' retry timers have reconnected and the
            // table is re-announced.
            let node = h.mux_node(0);
            let nid = NodeId(node as u32);
            let mut plan = FaultPlan::new()
                .at(SimTime::from_secs(10), FaultAction::MuxCrash(nid))
                .at(SimTime::from_secs(20), FaultAction::MuxRestart(nid));
            h.run_faults(&mut plan, SimTime::from_secs(240));
            assert!(h.fully_established(), "{design:?}: sessions recovered");
            assert_eq!(
                h.client_paths(0, &p),
                3,
                "{design:?}: all paths relearned after mux restart"
            );
            // The monitor's session log shows the outage.
            let mut mon = Monitor::new();
            h.session_log_into(&mut mon);
            assert!(
                mon.session_flaps(h.upstream_nodes[0]) >= 1
                    || mon.session_flaps(h.client_nodes[0]) >= 1,
                "{design:?}: far ends logged the session loss"
            );
        }
    }

    #[test]
    fn quarantine_applied_while_the_mux_is_down_survives_its_restart() {
        let mut h = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(2)
            .clients(2)
            .seed(19)
            .build();
        h.enable_containment(ContainmentConfig::default());
        // The mux dies; the abuse reports keep coming and walk client 0
        // to quarantine (violation_weight 2, threshold 8). The lever is
        // configuration, so it lands on the crashed daemon's stashed
        // config instead of aborting the process.
        h.crash_mux(0);
        for _ in 0..4 {
            h.report_violation(0, &Violation::RouteLeak);
        }
        assert_eq!(
            h.containment().expect("engine").state(0),
            ContainmentState::Quarantined
        );
        h.restart_mux(0);
        let mut plan = FaultPlan::new();
        h.run_faults(&mut plan, h.emu.now() + SimDuration::from_secs(60));
        assert!(h.fully_established(), "far ends reconnected");
        // The restarted mux still rejects everything the abuser sends,
        // and still serves the bystander.
        let abuser = Prefix::v4(184, 164, 225, 0, 24);
        let healthy = Prefix::v4(184, 164, 226, 0, 24);
        for (c, p) in [(0, abuser), (1, healthy)] {
            h.emu
                .control(h.client_nodes[c], Input::Originate(p, vec![]));
        }
        h.emu.run_until_quiet(usize::MAX);
        assert!(!h.mux_has_route(&abuser), "quarantine held across restart");
        assert!(h.mux_has_route(&healthy));
    }

    #[test]
    fn update_flood_walks_ladder_to_quarantine_and_back() {
        use crate::containment::TokenBucketConfig;
        let mut h = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(2)
            .clients(2)
            .seed(11)
            .build();
        assert!(h.fully_established());
        let cfg = ContainmentConfig {
            bucket: TokenBucketConfig {
                capacity: 4,
                refill_per_sec: 1,
            },
            ..ContainmentConfig::default()
        };
        h.enable_containment(cfg);
        let abuser = Prefix::v4(184, 164, 225, 0, 24);
        let healthy = Prefix::v4(184, 164, 226, 0, 24);
        // Client 0 floods announce/withdraw churn until the ladder stops
        // it; the burst passes, then strikes accumulate.
        let mut verdicts = Vec::new();
        for _ in 0..20 {
            verdicts.push(h.submit(0, RouteChange::Announce(abuser)));
            verdicts.push(h.submit(0, RouteChange::Withdraw(abuser)));
        }
        let engine = h.containment().expect("engine");
        assert_eq!(engine.state(0), ContainmentState::Quarantined);
        assert_eq!(engine.state(1), ContainmentState::Healthy);
        assert!(verdicts.contains(&UpdateVerdict::Quarantined));
        // The quarantine lever withdrew whatever the abuser had placed.
        assert!(!h.mux_has_route(&abuser), "abuser routes withheld");
        // A healthy client on the same mux still converges.
        h.submit(1, RouteChange::Announce(healthy));
        assert!(h.mux_has_route(&healthy));
        assert_eq!(h.upstream_paths(0, &healthy), 1);
        // The ladder was climbed in order.
        let path: Vec<ContainmentState> = h
            .containment()
            .expect("engine")
            .transitions()
            .iter()
            .filter(|tr| tr.client == 0)
            .map(|tr| tr.to)
            .collect();
        assert_eq!(
            path,
            vec![
                ContainmentState::Warned,
                ContainmentState::Throttled,
                ContainmentState::Quarantined
            ]
        );
        // Clean time paroles the client; ROUTE-REFRESH restores the
        // table it still holds on its side.
        h.emu
            .control(h.client_nodes[0], Input::Originate(abuser, vec![]));
        h.emu.run_until_quiet(usize::MAX);
        assert!(!h.mux_has_route(&abuser), "still quarantined");
        let mut plan = FaultPlan::new();
        h.run_faults(&mut plan, h.emu.now() + SimDuration::from_secs(130));
        h.containment_step();
        assert_eq!(
            h.containment().expect("engine").state(0),
            ContainmentState::Probation
        );
        assert!(
            h.mux_has_route(&abuser),
            "parole restores the client's routes via refresh"
        );
    }

    #[test]
    fn max_prefix_cease_feeds_the_containment_ladder() {
        use peering_bgp::MaxPrefixConfig;
        let mut h = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(2)
            .clients(2)
            .seed(13)
            .client_max_prefix(MaxPrefixConfig::new(3))
            .build();
        assert!(h.fully_established());
        h.enable_containment(ContainmentConfig::default());
        // A prefix-count blowup: the 4th pool prefix trips the limit and
        // the mux ceases the session.
        for i in 0..4u8 {
            h.submit(
                0,
                RouteChange::Announce(Prefix::v4(184, 164, 224 + i, 0, 24)),
            );
        }
        h.containment_step();
        let engine = h.containment().expect("engine");
        assert!(
            engine.score(0) >= 4,
            "max-prefix cease weighed in (score {})",
            engine.score(0)
        );
        assert!(engine.state(0) >= ContainmentState::Throttled);
        assert!(engine
            .transitions()
            .iter()
            .any(|tr| tr.cause.contains("max prefixes")));
        // The flushed session left no abuser routes behind.
        for i in 0..4u8 {
            assert!(!h.mux_has_route(&Prefix::v4(184, 164, 224 + i, 0, 24)));
        }
        // The other client is untouched.
        assert_eq!(engine.state(1), ContainmentState::Healthy);
    }

    /// Satellite of the peer-group export engine: quarantining one
    /// tenant must split it out of its export peer-group without
    /// perturbing the copy-on-write Adj-RIB-Out its former group-mates
    /// read — byte-identical before and after, across both the
    /// quarantine and the parole.
    #[test]
    fn quarantine_splits_export_group_without_touching_bystanders() {
        let mut h = MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(2)
            .clients(4)
            .seed(17)
            .build();
        assert!(h.fully_established());
        h.enable_containment(ContainmentConfig::default());
        h.announce_from_upstream(0, prefix(40));
        h.announce_from_upstream(1, prefix(41));

        let bystanders: Vec<PeerId> = (1..4).map(|c| h.client_peer(c)).collect();
        let abuser = h.client_peer(0);
        let snapshot = |h: &MuxHarness| -> Vec<String> {
            let d = h.emulation().daemon(h.mux_node(0)).expect("mux daemon");
            bystanders
                .iter()
                .map(|&p| format!("{:?}", d.adj_rib_out(p).expect("bystander rib")))
                .collect()
        };
        let before = snapshot(&h);
        {
            let d = h.emulation().daemon(h.mux_node(0)).expect("mux daemon");
            let g = d.export_group_of(abuser).expect("abuser grouped");
            for &p in &bystanders {
                assert_eq!(d.export_group_of(p), Some(g), "one shared group");
            }
            assert_eq!(d.export_group_len(g), 4);
        }

        // Walk client 0 to quarantine (violation_weight 2, threshold 8).
        for _ in 0..4 {
            h.report_violation(0, &Violation::RouteLeak);
        }
        assert_eq!(
            h.containment().expect("engine").state(0),
            ContainmentState::Quarantined
        );
        {
            let d = h.emulation().daemon(h.mux_node(0)).expect("mux daemon");
            let g0 = d.export_group_of(abuser).expect("abuser still grouped");
            assert_eq!(d.export_group_len(g0), 1, "abuser split into a solo group");
            let g1 = d.export_group_of(bystanders[0]).expect("bystander grouped");
            assert_ne!(g0, g1, "solo group is disjoint from the shared one");
            assert_eq!(d.export_group_len(g1), 3, "bystanders keep their group");
        }
        assert_eq!(
            snapshot(&h),
            before,
            "bystander Adj-RIB-Outs byte-identical across the quarantine"
        );

        // Clean time paroles the abuser back into the shared group.
        let mut plan = FaultPlan::new();
        h.run_faults(&mut plan, h.emu.now() + SimDuration::from_secs(130));
        h.containment_step();
        assert_eq!(
            h.containment().expect("engine").state(0),
            ContainmentState::Probation
        );
        {
            let d = h.emulation().daemon(h.mux_node(0)).expect("mux daemon");
            let g = d.export_group_of(bystanders[0]).expect("bystander grouped");
            assert_eq!(
                d.export_group_of(abuser),
                Some(g),
                "parole rejoins the group"
            );
            assert_eq!(d.export_group_len(g), 4);
        }
        assert_eq!(
            snapshot(&h),
            before,
            "bystander Adj-RIB-Outs byte-identical across the parole"
        );
    }

    #[test]
    fn withdrawals_flow_through_both_designs() {
        for design in [MuxDesign::PerPeerSessions, MuxDesign::AddPathMux] {
            let mut h = MuxScaleConfig::new(design)
                .upstreams(3)
                .clients(2)
                .seed(7)
                .build();
            let p = prefix(9);
            for u in 0..3 {
                h.announce_from_upstream(u, p);
            }
            assert_eq!(h.client_paths(0, &p), 3, "design {design:?}");
            h.withdraw_from_upstream(1, p);
            assert_eq!(h.client_paths(0, &p), 2, "design {design:?}: one path gone");
            let origins = h.client_path_origins(0, &p);
            assert_eq!(origins, vec![Asn(1000), Asn(1002)]);
            h.withdraw_from_upstream(0, p);
            h.withdraw_from_upstream(2, p);
            assert_eq!(h.client_paths(0, &p), 0, "design {design:?}: all gone");
        }
    }
}
