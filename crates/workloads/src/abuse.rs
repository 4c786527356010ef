//! Abuse campaign: runtime containment under seeded abuser scenarios.
//!
//! The chaos campaign (`chaos.rs`) checks that sessions survive the
//! network misbehaving; this campaign checks that the testbed survives a
//! *client* misbehaving. One client on a live mux plays a scripted
//! abuser — an update flood, a prefix-count blowup, a corrupt-attribute
//! storm, a session flap storm — while the other clients run an ordinary
//! workload. The properties asserted:
//!
//! * the abuser is **contained**: the escalation ladder walks it to
//!   quarantine (or, for recoverable corruption, the damage simply never
//!   enters the RIBs);
//! * sessions stay **up** under RFC 7606-recoverable corruption — no
//!   NOTIFICATION teardown for a malformed ORIGIN;
//! * healthy clients are **unaffected**: their converged Loc-RIBs are
//!   bitwise identical to an abuse-free baseline run with the same seed
//!   (same FNV digest technique as the chaos campaign, excluding
//!   `learned_at` so timing shifts cannot alias as damage).

use peering_bgp::{digest_routes, Input, MaxPrefixConfig};
use peering_core::containment::TokenBucketConfig;
use peering_core::{
    ContainmentConfig, ContainmentState, MuxDesign, MuxHarness, MuxScaleConfig, RouteChange,
    Transition,
};
use peering_netsim::{FaultAction, FaultPlan, Fnv1a, LinkParams, NodeId, Prefix, SimDuration};
use peering_telemetry::Telemetry;

/// Upstream peers on the mux.
const N_UPSTREAMS: usize = 2;
/// Clients on the mux; client [`ABUSER`] runs the abuse script.
const N_CLIENTS: usize = 3;
/// The client index that misbehaves.
pub const ABUSER: usize = 0;

/// The scripted abuser behaviors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbuseScenario {
    /// Announce/withdraw churn far beyond the update rate limit.
    UpdateFlood,
    /// More pool prefixes than the session's max-prefix limit allows.
    PrefixBlowup,
    /// A storm of UPDATEs whose attributes arrive malformed in an
    /// RFC 7606-recoverable way.
    CorruptStorm,
    /// The client's session resets over and over.
    FlapStorm,
}

impl AbuseScenario {
    /// Human-readable scenario name.
    pub fn name(&self) -> &'static str {
        match self {
            AbuseScenario::UpdateFlood => "update-flood",
            AbuseScenario::PrefixBlowup => "prefix-blowup",
            AbuseScenario::CorruptStorm => "corrupt-storm",
            AbuseScenario::FlapStorm => "flap-storm",
        }
    }

    /// Every scenario, in campaign order.
    pub fn all() -> [AbuseScenario; 4] {
        [
            AbuseScenario::UpdateFlood,
            AbuseScenario::PrefixBlowup,
            AbuseScenario::CorruptStorm,
            AbuseScenario::FlapStorm,
        ]
    }
}

/// The pool prefix the abuser announces (and churns).
pub fn abuser_prefix() -> Prefix {
    Prefix::v4(184, 164, 230, 0, 24)
}

/// The pool prefix healthy client `c` announces.
pub fn healthy_prefix(c: usize) -> Prefix {
    Prefix::v4(184, 164, 224 + c as u8, 0, 24)
}

/// The external prefix upstream `u` announces.
pub fn upstream_prefix(u: usize) -> Prefix {
    Prefix::v4(203, 0, 113 + u as u8, 0, 24)
}

/// A pool prefix from the abuser's blowup / burst range.
fn blowup_prefix(i: usize) -> Prefix {
    Prefix::v4(184, 164, 240 + i as u8, 0, 24)
}

/// FNV-1a digest of one emulation node's Loc-RIB, `learned_at` excluded
/// (same canonicalization as the chaos campaign's digest).
pub fn node_rib_digest(h: &MuxHarness, node: usize) -> u64 {
    let mut hash = Fnv1a::legacy();
    match h.emulation().daemon(node) {
        Some(d) => digest_routes(&mut hash, d.loc_rib().iter()),
        None => {
            hash.write(b"crashed;");
        }
    }
    hash.finish()
}

/// Combined digest over every *healthy* client's Loc-RIB.
pub fn healthy_digest(h: &MuxHarness) -> u64 {
    let mut acc: u64 = 0;
    for c in 0..N_CLIENTS {
        if c == ABUSER {
            continue;
        }
        acc = acc
            .rotate_left(17)
            .wrapping_add(node_rib_digest(h, h.client_node(c)));
    }
    acc
}

/// The outcome of one seeded abuse run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbuseReport {
    /// Which scenario ran.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// Where the abuser ended on the escalation ladder.
    pub final_state: ContainmentState,
    /// Scenario-specific containment property (see [`run_one`]).
    pub contained: bool,
    /// Whether every session was Established at the end of the run.
    pub sessions_established: bool,
    /// Containment ladder transitions recorded for the abuser.
    pub transitions: usize,
    /// Healthy-client digest of the abuse-free baseline run.
    pub baseline_digest: u64,
    /// Healthy-client digest after abuse plus containment.
    pub abused_digest: u64,
    /// `bgp.session.treat_as_withdraw` total from the abused run.
    pub treat_as_withdraw: u64,
    /// `netsim.queue.tail_drops` total from the abused run.
    pub tail_drops: u64,
}

impl AbuseReport {
    /// True when abuse left no trace on the bystanders: healthy clients
    /// converged to the exact tables of the abuse-free run.
    pub fn healthy_unaffected(&self) -> bool {
        self.baseline_digest == self.abused_digest
    }
}

fn configure(scenario: AbuseScenario, cfg: MuxScaleConfig) -> MuxScaleConfig {
    match scenario {
        // A rate-limited, queue-bounded client access link so the wire
        // burst tail-drops deterministically instead of queueing forever.
        AbuseScenario::UpdateFlood => cfg.client_link(
            LinkParams::with_delay(SimDuration::from_millis(1))
                .bandwidth(32_000)
                .queue_limit(4),
        ),
        AbuseScenario::PrefixBlowup => cfg.client_max_prefix(MaxPrefixConfig::new(4)),
        _ => cfg,
    }
}

fn containment_for(scenario: AbuseScenario) -> ContainmentConfig {
    match scenario {
        // A small bucket so the flood exhausts its grace quickly.
        AbuseScenario::UpdateFlood => ContainmentConfig {
            bucket: TokenBucketConfig {
                capacity: 4,
                refill_per_sec: 1,
            },
            ..ContainmentConfig::default()
        },
        _ => ContainmentConfig::default(),
    }
}

/// Build the mux, arm containment, and run the ordinary workload every
/// run shares: each upstream and each healthy client announces one
/// prefix.
fn build(scenario: AbuseScenario, seed: u64, telemetry: Telemetry) -> MuxHarness {
    let mut h = configure(
        scenario,
        MuxScaleConfig::new(MuxDesign::AddPathMux)
            .upstreams(N_UPSTREAMS)
            .clients(N_CLIENTS)
            .seed(seed),
    )
    .build();
    h.set_telemetry(telemetry);
    h.enable_containment(containment_for(scenario));
    for u in 0..N_UPSTREAMS {
        h.announce_from_upstream(u, upstream_prefix(u));
    }
    for c in 0..N_CLIENTS {
        if c != ABUSER {
            h.submit(c, RouteChange::Announce(healthy_prefix(c)));
        }
    }
    h
}

/// Let the clock run `secs` of simulated time, then advance containment.
fn settle(h: &mut MuxHarness, secs: u64) {
    let mut idle = FaultPlan::new();
    let until = h.emulation().now() + SimDuration::from_secs(secs);
    h.run_faults(&mut idle, until);
    h.containment_step();
}

fn drive_abuse(scenario: AbuseScenario, h: &mut MuxHarness) {
    match scenario {
        AbuseScenario::UpdateFlood => {
            // Announce/withdraw churn through the guarded path until the
            // ladder quarantines the client.
            for _ in 0..20 {
                h.submit(ABUSER, RouteChange::Announce(abuser_prefix()));
                h.submit(ABUSER, RouteChange::Withdraw(abuser_prefix()));
            }
            // With the mux deaf to it, the abuser bursts raw announces at
            // the wire; the bounded access-link queue tail-drops the
            // excess instead of buffering without bound.
            let abuser_node = h.client_node(ABUSER);
            let emu = h.emulation_mut();
            for i in 0..10 {
                emu.control(abuser_node, Input::Originate(blowup_prefix(i), vec![]));
            }
            emu.run_until_quiet(usize::MAX);
            settle(h, 30);
        }
        AbuseScenario::PrefixBlowup => {
            // Six pool prefixes against a limit of four: the mux ceases
            // and flushes the session, serves the idle-hold penalty,
            // re-learns the same blowup on reconnect, and ceases again —
            // at which point the ladder quarantines the client and the
            // reject-all import keeps the re-established session inert.
            for i in 0..6 {
                h.submit(ABUSER, RouteChange::Announce(blowup_prefix(i)));
            }
            for _ in 0..6 {
                settle(h, 30);
            }
        }
        AbuseScenario::CorruptStorm => {
            // Every announcement from the abuser arrives with malformed
            // attributes. RFC 7606 treat-as-withdraw: the routes never
            // enter the mux RIB and the session never drops.
            let from = NodeId(h.client_node(ABUSER) as u32);
            let to = NodeId(h.mux_node(0) as u32);
            for _ in 0..6 {
                let now = h.emulation().now();
                let mut plan = FaultPlan::new().at(now, FaultAction::CorruptAttributes(from, to));
                h.run_faults(&mut plan, now + SimDuration::from_secs(1));
                h.submit(ABUSER, RouteChange::Announce(abuser_prefix()));
                h.submit(ABUSER, RouteChange::Withdraw(abuser_prefix()));
            }
            settle(h, 10);
        }
        AbuseScenario::FlapStorm => {
            // The abuser's route is in, then its session resets every
            // 15 s — far enough apart that the ~5 s reconnect backoff
            // re-establishes between resets, so every reset lands on a
            // live session and registers as a flap. Score outruns decay
            // and the ladder quarantines the client, withdrawing its
            // route for good.
            h.submit(ABUSER, RouteChange::Announce(abuser_prefix()));
            let a = NodeId(h.client_node(ABUSER) as u32);
            let b = NodeId(h.mux_node(0) as u32);
            for _ in 0..12 {
                let now = h.emulation().now();
                let mut plan = FaultPlan::new().at(
                    now + SimDuration::from_secs(1),
                    FaultAction::SessionReset(a, b),
                );
                h.run_faults(&mut plan, now + SimDuration::from_secs(15));
                h.containment_step();
            }
            settle(h, 20);
        }
    }
}

/// Run one seeded abuse scenario and compare against its abuse-free
/// baseline. "Contained" means, per scenario: the abuser ends
/// Quarantined (flood, blowup, flaps), or — for the corrupt storm —
/// every session is still Established and the malformed routes never
/// reached the mux RIB.
pub fn run_one(scenario: AbuseScenario, seed: u64) -> AbuseReport {
    run_one_instrumented(scenario, seed, Telemetry::new())
}

/// [`run_one`] with a caller-supplied telemetry handle attached to the
/// abused run (the baseline gets its own, discarded handle so both runs
/// execute identical code paths).
pub fn run_one_instrumented(
    scenario: AbuseScenario,
    seed: u64,
    telemetry: Telemetry,
) -> AbuseReport {
    run_one_with_artifacts(scenario, seed, telemetry).report
}

/// Everything a snapshot test wants to pin about one run: the report,
/// the abuser's full escalation transition log, and every client's final
/// Loc-RIB digest (abuser included).
#[derive(Debug, Clone)]
pub struct AbuseArtifacts {
    /// The pass/fail summary.
    pub report: AbuseReport,
    /// The containment engine's transition log, all clients.
    pub transitions: Vec<Transition>,
    /// FNV digest of each client node's Loc-RIB, indexed by client.
    pub client_digests: Vec<u64>,
}

/// [`run_one_instrumented`], keeping the transition log and per-client
/// digests for golden snapshots.
pub fn run_one_with_artifacts(
    scenario: AbuseScenario,
    seed: u64,
    telemetry: Telemetry,
) -> AbuseArtifacts {
    // Baseline: identical build, workload, and horizon — abuser silent.
    let mut base = build(scenario, seed, Telemetry::new());
    match scenario {
        AbuseScenario::UpdateFlood => settle(&mut base, 30),
        AbuseScenario::PrefixBlowup => {
            for _ in 0..6 {
                settle(&mut base, 30);
            }
        }
        AbuseScenario::CorruptStorm => settle(&mut base, 10 + 6),
        AbuseScenario::FlapStorm => settle(&mut base, 80),
    }
    let baseline_digest = healthy_digest(&base);

    let mut h = build(scenario, seed, telemetry.clone());
    drive_abuse(scenario, &mut h);
    h.export_net_stats();
    let snap = telemetry.snapshot();
    let final_state = h
        .containment()
        .map(|e| e.state(ABUSER))
        .unwrap_or(ContainmentState::Healthy);
    let sessions_established = h.fully_established();
    let contained = match scenario {
        AbuseScenario::CorruptStorm => {
            sessions_established
                && !h.mux_has_route(&abuser_prefix())
                && snap.counter("bgp.session.treat_as_withdraw") > 0
        }
        _ => final_state == ContainmentState::Quarantined,
    };
    let report = AbuseReport {
        scenario: scenario.name().to_string(),
        seed,
        final_state,
        contained,
        sessions_established,
        transitions: h
            .containment()
            .map(|e| {
                e.transitions()
                    .iter()
                    .filter(|t| t.client == ABUSER)
                    .count()
            })
            .unwrap_or(0),
        baseline_digest,
        abused_digest: healthy_digest(&h),
        treat_as_withdraw: snap.counter("bgp.session.treat_as_withdraw"),
        tail_drops: snap.counter("netsim.queue.tail_drops"),
    };
    AbuseArtifacts {
        transitions: h
            .containment()
            .map(|e| e.transitions().to_vec())
            .unwrap_or_default(),
        client_digests: (0..N_CLIENTS)
            .map(|c| node_rib_digest(&h, h.client_node(c)))
            .collect(),
        report,
    }
}

/// Every scenario against every seed.
pub fn run_campaign(seeds: &[u64]) -> Vec<AbuseReport> {
    let mut reports = Vec::with_capacity(4 * seeds.len());
    for scenario in AbuseScenario::all() {
        for &seed in seeds {
            reports.push(run_one(scenario, seed));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abuse_smoke() {
        // The cheap CI gate: every scenario contained, bystanders clean.
        for report in run_campaign(&[1]) {
            assert!(
                report.contained,
                "{} seed {}: abuser not contained (final state {})",
                report.scenario, report.seed, report.final_state,
            );
            assert!(
                report.healthy_unaffected(),
                "{} seed {}: healthy clients diverged: {:#x} vs {:#x}",
                report.scenario,
                report.seed,
                report.baseline_digest,
                report.abused_digest,
            );
        }
    }

    #[test]
    fn update_flood_quarantines_and_tail_drops() {
        let report = run_one(AbuseScenario::UpdateFlood, 1);
        assert_eq!(report.final_state, ContainmentState::Quarantined);
        assert!(report.transitions >= 3, "ladder climbed rung by rung");
        assert!(
            report.tail_drops > 0,
            "the wire burst should overflow the bounded access queue"
        );
        assert!(report.healthy_unaffected());
    }

    #[test]
    fn corrupt_storm_keeps_sessions_up() {
        let report = run_one(AbuseScenario::CorruptStorm, 1);
        assert!(
            report.sessions_established,
            "7606-recoverable corruption must not drop sessions"
        );
        assert!(report.treat_as_withdraw >= 6, "every storm update treated");
        assert_eq!(report.final_state, ContainmentState::Healthy);
        assert!(report.healthy_unaffected());
    }

    #[test]
    fn prefix_blowup_ends_quarantined() {
        let report = run_one(AbuseScenario::PrefixBlowup, 1);
        assert_eq!(report.final_state, ContainmentState::Quarantined);
        assert!(report.transitions >= 2, "two ceases walk two rungs");
        assert!(
            report.healthy_unaffected(),
            "blowup prefixes must never persist in healthy tables"
        );
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        for scenario in [AbuseScenario::UpdateFlood, AbuseScenario::FlapStorm] {
            let a = run_one(scenario, 7);
            let b = run_one(scenario, 7);
            assert_eq!(a, b, "{} must be seed-deterministic", scenario.name());
        }
    }
}
