//! Plan execution on the emulated testbed: build the deployment on
//! netsim, apply each step through `peering-core`/`peering-bgp`, and
//! barrier on convergence between steps.

use crate::oracle::{export_policy, import_policy};
use crate::step::PlanStep;
use peering_bgp::{
    Action, Asn, ConnectRetryConfig, Match, PeerConfig, PeerId, Policy, Speaker, SpeakerConfig,
};
use peering_core::{ConfigState, DeploySpec, ImportSel, SafetyConfig};
use peering_emulation::{Container, Emulation};
use peering_netsim::{FaultPlan, LinkParams, Prefix, SimDuration, SimRng, SimTime};
use peering_telemetry::Telemetry;
use peering_workloads::chaos::rib_digest;
use std::net::Ipv4Addr;

/// Per-barrier delivery bound; generous for the catalog's topologies.
const QUIET_LIMIT: usize = 500_000;
/// Graceful-restart window configured on every session.
const RESTART_TIME: SimDuration = SimDuration::from_secs(120);
/// Post-plan settle window: timers (retry, damping decay, GR sweeps)
/// run for this long before the final convergence check.
const SETTLE: SimDuration = SimDuration::from_secs(200);

/// Every telemetry counter the planner's execution path maintains.
/// Pre-seeded to zero at build time so the observation surface is
/// identical whatever steps a particular plan happens to contain.
pub const PLAN_COUNTERS: &[&str] = &[
    "core.plan.steps_applied",
    "core.plan.barriers",
    "bgp.plan.session_up",
    "bgp.plan.session_down",
    "bgp.plan.announce",
    "bgp.plan.withdraw",
    "bgp.plan.import_swaps",
    "bgp.plan.export_swaps",
    "bgp.plan.drains",
];

/// Outcome of executing a plan to convergence.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Steps applied.
    pub steps: usize,
    /// Total transport deliveries processed.
    pub deliveries: usize,
    /// Loc-RIB digest after each step's convergence barrier.
    pub step_digests: Vec<u64>,
    /// Loc-RIB digest after the final settle.
    pub final_digest: u64,
    /// Whether every announced prefix reached every session-up mux and
    /// every upstream after the final barrier.
    pub converged: bool,
}

/// The deployment realized as an emulated network, with the plan's
/// step vocabulary mapped onto daemon operations.
pub struct MigrationTestbed {
    /// The underlying emulation (public for inspection in tests).
    pub emu: Emulation,
    deploy: DeploySpec,
    state: ConfigState,
    safety: SafetyConfig,
}

impl MigrationTestbed {
    /// Container index of upstream `u`.
    pub fn upstream_node(&self, u: usize) -> usize {
        u
    }

    /// Container index of mux `m`.
    pub fn mux_node(&self, m: usize) -> usize {
        self.deploy.upstreams + m
    }

    /// Container index of client `c`.
    pub fn client_node(&self, c: usize) -> usize {
        self.deploy.upstreams + self.deploy.muxes + c
    }

    /// PeerId of upstream `u` on a mux node (clients occupy the low
    /// slots).
    fn upstream_peer(&self, u: usize) -> PeerId {
        PeerId((self.deploy.clients.len() + u) as u32)
    }

    /// What a client exports toward its muxes: everything for transit
    /// experiments, only its own allocation otherwise.
    fn client_export(&self, c: usize) -> Policy {
        if self.deploy.clients[c].transit {
            Policy::accept_all()
        } else {
            Policy::reject_all().rule(
                Match::PrefixIn(vec![Prefix::V4(self.deploy.clients[c].alloc)]),
                vec![Action::Accept],
            )
        }
    }

    /// Build the deployment in configuration `current` and converge it.
    pub fn build(
        deploy: &DeploySpec,
        current: &ConfigState,
        safety: &SafetyConfig,
        seed: u64,
        telemetry: Telemetry,
    ) -> Self {
        let rng = SimRng::new(seed);
        let mut emu = Emulation::new(rng.fork("net"));
        emu.set_telemetry(telemetry.clone());
        for key in PLAN_COUNTERS {
            telemetry.counter_add(key, 0);
        }

        let n_nodes = deploy.upstreams + deploy.muxes + deploy.clients.len();
        let mk_speaker = |node: usize, asn: u32| {
            let retry = ConnectRetryConfig::new(rng.fork(&format!("retry/{node}")).seed());
            Speaker::new(
                SpeakerConfig::new(
                    Asn(asn),
                    Ipv4Addr::new(10, 0, (node / 200) as u8, (node % 200) as u8 + 1),
                )
                .with_connect_retry(retry),
            )
        };
        let mut node = 0usize;
        for u in 0..deploy.upstreams {
            emu.add_container(Container::router(
                &format!("upstream-{u}"),
                mk_speaker(node, 1000 + u as u32),
            ));
            node += 1;
        }
        for m in 0..deploy.muxes {
            emu.add_container(Container::router(
                &format!("mux-{m}"),
                mk_speaker(node, Asn::PEERING.0),
            ));
            node += 1;
        }
        for c in 0..deploy.clients.len() {
            emu.add_container(Container::router(
                &format!("client-{c}"),
                mk_speaker(node, 65_001 + c as u32),
            ));
            node += 1;
        }
        debug_assert_eq!(node, n_nodes);

        let mut testbed = MigrationTestbed {
            emu,
            deploy: deploy.clone(),
            state: current.clone(),
            safety: safety.clone(),
        };

        // Mux <-> upstream: always linked and enabled; drains are a
        // policy state, not a session state.
        for m in 0..deploy.muxes {
            for u in 0..deploy.upstreams {
                let (mn, un) = (testbed.mux_node(m), testbed.upstream_node(u));
                testbed.emu.link(mn, un, LinkParams::default());
                let drained = current.drained.contains(&m);
                let mux_cfg = PeerConfig::new(testbed.upstream_peer(u), Asn(1000 + u as u32))
                    .import(if drained {
                        Policy::reject_all()
                    } else {
                        Policy::accept_all()
                    })
                    .export(if drained {
                        Policy::reject_all()
                    } else {
                        export_policy(safety, current.export_of(m))
                    })
                    .graceful_restart(RESTART_TIME);
                let up_cfg = PeerConfig::new(PeerId(m as u32), Asn::PEERING)
                    .passive()
                    .graceful_restart(RESTART_TIME);
                testbed.emu.connect_bgp(mn, mux_cfg, un, up_cfg);
            }
        }

        // Mux <-> client: linked always, enabled per the current state.
        for m in 0..deploy.muxes {
            for c in 0..deploy.clients.len() {
                let (mn, cn) = (testbed.mux_node(m), testbed.client_node(c));
                testbed.emu.link(mn, cn, LinkParams::default());
                let enabled = current.sessions.contains(&(c, m));
                let mut mux_cfg = PeerConfig::new(PeerId(c as u32), Asn(65_001 + c as u32))
                    .import(import_policy(safety, current.import_of(c)))
                    .export(Policy::accept_all())
                    .graceful_restart(RESTART_TIME);
                let mut client_cfg = PeerConfig::new(PeerId(m as u32), Asn::PEERING)
                    .passive()
                    .export(testbed.client_export(c))
                    .graceful_restart(RESTART_TIME);
                if !enabled {
                    mux_cfg = mux_cfg.disabled();
                    client_cfg = client_cfg.disabled();
                }
                testbed.emu.connect_bgp(mn, mux_cfg, cn, client_cfg);
            }
        }

        // The upstream world advertises beacons of its own, so drained
        // muxes demonstrably stop importing.
        for u in 0..deploy.upstreams {
            let n = testbed.upstream_node(u);
            testbed.emu.control(n, |d, now| {
                d.originate(Prefix::v4(11, u as u8, 0, 0, 16), now)
            });
        }
        for (c, prefixes) in &current.announced {
            let n = testbed.client_node(*c);
            for p in prefixes {
                testbed
                    .emu
                    .control(n, |d, now| d.originate(Prefix::V4(*p), now));
            }
        }

        testbed.emu.start_all();
        testbed.emu.run_until_quiet(QUIET_LIMIT);
        testbed
    }

    /// The configuration state the testbed currently realizes.
    pub fn state(&self) -> &ConfigState {
        &self.state
    }

    /// Apply one plan step to the running network (no barrier).
    pub fn apply_step(&mut self, step: &PlanStep) {
        let t = self.emu.telemetry().clone();
        t.counter_inc("core.plan.steps_applied");
        match *step {
            PlanStep::SessionUp { client, mux } => {
                t.counter_inc("bgp.plan.session_up");
                // Passive (client) end first, so the mux's connect
                // attempt finds it listening.
                let (cn, mn) = (self.client_node(client), self.mux_node(mux));
                self.emu.control(cn, |d, now| {
                    d.set_peer_enabled(PeerId(mux as u32), true, now)
                });
                self.emu.control(mn, |d, now| {
                    d.set_peer_enabled(PeerId(client as u32), true, now)
                });
            }
            PlanStep::SessionDown { client, mux } => {
                t.counter_inc("bgp.plan.session_down");
                // Both ends go administratively down before the barrier
                // runs, so neither end's retry logic resurrects the
                // session when the other's Cease arrives.
                let (cn, mn) = (self.client_node(client), self.mux_node(mux));
                self.emu.control(mn, |d, now| {
                    d.set_peer_enabled(PeerId(client as u32), false, now)
                });
                self.emu.control(cn, |d, now| {
                    d.set_peer_enabled(PeerId(mux as u32), false, now)
                });
            }
            PlanStep::Announce { client, prefix } => {
                t.counter_inc("bgp.plan.announce");
                self.emu.control(self.client_node(client), |d, now| {
                    d.originate(Prefix::V4(prefix), now)
                });
            }
            PlanStep::Withdraw { client, prefix } => {
                t.counter_inc("bgp.plan.withdraw");
                self.emu.control(self.client_node(client), |d, now| {
                    d.withdraw_origin(Prefix::V4(prefix), now)
                });
            }
            PlanStep::SwapImport { client, to } => {
                t.counter_inc("bgp.plan.import_swaps");
                let policy = import_policy(&self.safety, to);
                for m in 0..self.deploy.muxes {
                    let mn = self.mux_node(m);
                    self.emu.control(mn, |d, now| {
                        d.set_peer_import(PeerId(client as u32), policy.clone(), now)
                    });
                    if to == ImportSel::Safety {
                        // Relaxing re-admits nothing by itself: routes
                        // the old policy dropped were never stored.
                        // Ask the client to resend its table.
                        self.emu
                            .control(mn, |d, _| d.request_refresh(PeerId(client as u32)));
                    }
                }
            }
            PlanStep::SwapExport { mux, to } => {
                t.counter_inc("bgp.plan.export_swaps");
                if !self.state.drained.contains(&mux) {
                    let policy = export_policy(&self.safety, to);
                    for u in 0..self.deploy.upstreams {
                        let mn = self.mux_node(mux);
                        let peer = self.upstream_peer(u);
                        self.emu
                            .control(mn, |d, now| d.set_peer_export(peer, policy.clone(), now));
                    }
                }
                // A drained mux records the selection only; Undrain
                // installs it.
            }
            PlanStep::Drain { mux } => {
                t.counter_inc("bgp.plan.drains");
                for u in 0..self.deploy.upstreams {
                    let mn = self.mux_node(mux);
                    let peer = self.upstream_peer(u);
                    self.emu.control(mn, |d, now| {
                        d.set_peer_export(peer, Policy::reject_all(), now)
                    });
                    self.emu.control(mn, |d, now| {
                        d.set_peer_import(peer, Policy::reject_all(), now)
                    });
                }
            }
            PlanStep::Undrain { mux } => {
                t.counter_inc("bgp.plan.drains");
                // Export first (reseats the group and resyncs client
                // routes toward the upstreams), then reopen the import
                // and ask the upstreams to resend what the drain
                // filtered out of the Adj-RIB-In.
                let export = export_policy(&self.safety, self.state.export_of(mux));
                for u in 0..self.deploy.upstreams {
                    let mn = self.mux_node(mux);
                    let peer = self.upstream_peer(u);
                    self.emu
                        .control(mn, |d, now| d.set_peer_export(peer, export.clone(), now));
                    self.emu.control(mn, |d, now| {
                        d.set_peer_import(peer, Policy::accept_all(), now)
                    });
                    self.emu.control(mn, |d, _| d.request_refresh(peer));
                }
            }
        }
        step.apply(&mut self.state);
    }

    /// Run the network to convergence (message-driven only, no timers).
    pub fn barrier(&mut self) -> usize {
        self.emu.telemetry().counter_inc("core.plan.barriers");
        self.emu.run_until_quiet(QUIET_LIMIT)
    }

    /// Let wall-clock machinery run: tick every simulated second for
    /// `window`, applying `faults` when due, then drain.
    pub fn run_window(&mut self, faults: &mut FaultPlan, window: SimDuration) -> usize {
        let until = self.emu.now() + window;
        let mut n = self.emu.run_with_faults(faults, until, QUIET_LIMIT);
        n += self.emu.run_until_quiet(QUIET_LIMIT);
        n
    }

    /// Current Loc-RIB digest over every container.
    pub fn digest(&self) -> u64 {
        rib_digest(&self.emu)
    }

    /// Absolute simulated time `delta` from now (for fault schedules).
    pub fn at(&self, delta: SimDuration) -> SimTime {
        self.emu.now() + delta
    }

    /// Check convergence of the realized state: nothing is in flight (a
    /// barrier that stopped at its delivery bound left the network
    /// mid-flight), every announced prefix is present in the Loc-RIB of
    /// every mux its client has a session to, and (being
    /// oracle-reachable) in every upstream's Loc-RIB.
    pub fn converged(&self) -> bool {
        if !self.emu.idle() {
            return false;
        }
        for (c, prefixes) in &self.state.announced {
            if self.state.import_of(*c) != ImportSel::Safety {
                continue;
            }
            for p in prefixes {
                let prefix = Prefix::V4(*p);
                for m in 0..self.deploy.muxes {
                    if !self.state.sessions.contains(&(*c, m)) {
                        continue;
                    }
                    let mux_has = self
                        .emu
                        .daemon(self.mux_node(m))
                        .is_some_and(|d| d.loc_rib().get(&prefix).is_some());
                    if !mux_has {
                        return false;
                    }
                }
                for u in 0..self.deploy.upstreams {
                    let up_has = self
                        .emu
                        .daemon(self.upstream_node(u))
                        .is_some_and(|d| d.loc_rib().get(&prefix).is_some());
                    if !up_has {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Execute a full plan: apply each step behind a convergence
    /// barrier, settle timers, and report.
    pub fn run_plan(&mut self, steps: &[PlanStep]) -> ExecutionReport {
        let mut deliveries = 0;
        let mut step_digests = Vec::with_capacity(steps.len());
        for step in steps {
            self.apply_step(step);
            deliveries += self.barrier();
            step_digests.push(self.digest());
        }
        deliveries += self.run_window(&mut FaultPlan::new(), SETTLE);
        ExecutionReport {
            steps: steps.len(),
            deliveries,
            step_digests,
            final_digest: self.digest(),
            converged: self.converged(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::plan_migration;

    #[test]
    fn build_converges_and_routes_flow() {
        let deploy = DeploySpec::standard(2, 2);
        let safety = SafetyConfig::peering_default();
        let mut current = ConfigState::empty();
        for (c, spec) in deploy.clients.iter().enumerate() {
            current = current.session(c, 0).announce(c, spec.alloc);
        }
        let tb = MigrationTestbed::build(&deploy, &current, &safety, 42, Telemetry::new());
        assert!(tb.converged());
        // Mux 1 has no client sessions but still carries the beacons.
        let beacon = Prefix::v4(11, 0, 0, 0, 16);
        assert!(tb
            .emu
            .daemon(tb.mux_node(1))
            .is_some_and(|d| d.loc_rib().get(&beacon).is_some()));
        // Disabled sessions stayed down.
        assert!(!tb
            .emu
            .daemon(tb.mux_node(1))
            .is_some_and(|d| d.peer_established(PeerId(0))));
    }

    #[test]
    fn executing_a_plan_reaches_the_target_network() {
        let deploy = DeploySpec::standard(2, 1);
        let safety = SafetyConfig::peering_default();
        let alloc = deploy.clients[0].alloc;
        let current = ConfigState::empty().session(0, 0).announce(0, alloc);
        let target = ConfigState::empty().session(0, 1).announce(0, alloc);
        let plan = plan_migration("mbb", &deploy, &current, &target, &safety, 42).expect("plan");
        let telemetry = Telemetry::new();
        let mut tb = MigrationTestbed::build(&deploy, &current, &safety, 42, telemetry.clone());
        let report = tb.run_plan(&plan.steps);
        assert!(report.converged, "plan execution did not converge");
        assert_eq!(tb.state(), &target);
        // The prefix now sits at mux 1, not mux 0.
        assert!(tb
            .emu
            .daemon(tb.mux_node(1))
            .is_some_and(|d| d.loc_rib().get(&Prefix::V4(alloc)).is_some()));
        assert!(tb
            .emu
            .daemon(tb.mux_node(0))
            .is_some_and(|d| d.loc_rib().get(&Prefix::V4(alloc)).is_none()));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("core.plan.steps_applied"), 2);
        assert_eq!(snap.counter("bgp.plan.session_up"), 1);
        assert_eq!(snap.counter("bgp.plan.session_down"), 1);
        assert!(snap.counter("core.plan.barriers") >= 2);
        assert_eq!(snap.validate(PLAN_COUNTERS), Ok(()));
    }

    #[test]
    fn a_network_left_mid_flight_is_not_converged() {
        let deploy = DeploySpec::standard(1, 1);
        let safety = SafetyConfig::peering_default();
        let alloc = deploy.clients[0].alloc;
        let current = ConfigState::empty().session(0, 0).announce(0, alloc);
        let mut tb = MigrationTestbed::build(&deploy, &current, &safety, 7, Telemetry::new());
        assert!(tb.converged());
        // Every announced prefix is still in place, but an upstream's new
        // beacon is on the wire.
        let beacon = Prefix::v4(11, 99, 0, 0, 16);
        tb.emu
            .control(tb.upstream_node(0), |d, now| d.originate(beacon, now));
        assert!(!tb.converged(), "in-flight UPDATE counted as converged");
        // A drain that stops at its bound leaves the network mid-flight.
        assert_eq!(tb.emu.run_until_quiet(1), 1);
        assert!(!tb.converged());
        tb.barrier();
        assert!(tb.converged());
    }

    #[test]
    fn drain_empties_the_upstream_view_and_undrain_restores_it() {
        let deploy = DeploySpec::standard(1, 1);
        let safety = SafetyConfig::peering_default();
        let alloc = deploy.clients[0].alloc;
        let current = ConfigState::empty().session(0, 0).announce(0, alloc);
        let mut tb = MigrationTestbed::build(&deploy, &current, &safety, 7, Telemetry::new());
        let p = Prefix::V4(alloc);
        assert!(tb
            .emu
            .daemon(0)
            .is_some_and(|d| d.loc_rib().get(&p).is_some()));

        tb.apply_step(&PlanStep::Drain { mux: 0 });
        tb.barrier();
        // Upstream 0 lost the client route; the mux lost the beacons.
        assert!(tb
            .emu
            .daemon(0)
            .is_some_and(|d| d.loc_rib().get(&p).is_none()));
        let beacon = Prefix::v4(11, 0, 0, 0, 16);
        assert!(tb
            .emu
            .daemon(tb.mux_node(0))
            .is_some_and(|d| d.loc_rib().get(&beacon).is_none()));

        tb.apply_step(&PlanStep::Undrain { mux: 0 });
        tb.barrier();
        assert!(tb
            .emu
            .daemon(0)
            .is_some_and(|d| d.loc_rib().get(&p).is_some()));
        assert!(tb
            .emu
            .daemon(tb.mux_node(0))
            .is_some_and(|d| d.loc_rib().get(&beacon).is_some()));
    }

    #[test]
    fn same_seed_executions_have_identical_digests() {
        let deploy = DeploySpec::standard(2, 2);
        let safety = SafetyConfig::peering_default();
        let mut current = ConfigState::empty();
        let mut target = ConfigState::empty().drain(0);
        for (c, spec) in deploy.clients.iter().enumerate() {
            current = current.session(c, 0).announce(c, spec.alloc);
            target = target.session(c, 1).announce(c, spec.alloc);
        }
        let plan = plan_migration("mw", &deploy, &current, &target, &safety, 5).expect("plan");
        let run = |seed| {
            let mut tb =
                MigrationTestbed::build(&deploy, &current, &safety, seed, Telemetry::new());
            tb.run_plan(&plan.steps)
        };
        let (a, b) = (run(5), run(5));
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.step_digests, b.step_digests);
        assert_eq!(a.deliveries, b.deliveries);
    }
}
