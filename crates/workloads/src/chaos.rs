//! Chaos campaign: session resilience under scripted failure.
//!
//! PEERING's value rests on sessions that survive the real Internet —
//! flaky transit, crashing muxes, partitioned sites. This module drives
//! emulated topologies through *seeded* fault schedules (so every run is
//! reproducible bit-for-bit) and checks the one property that matters:
//! after every fault has healed and the clock has run long enough for
//! ConnectRetry, hold-timer and graceful-restart machinery to do their
//! jobs, the converged Loc-RIBs are **identical** to a fault-free run.
//!
//! The digest deliberately excludes `learned_at` timestamps: chaos
//! reshuffles *when* routes arrive, and the decision process is
//! age-independent, so converged content must not depend on timing.

use peering_bgp::{digest_routes, Input, Prefix};
use peering_collector::Collector;
use peering_emulation::{flat_mesh, Emulation};
use peering_netsim::{FaultAction, FaultPlan, Fnv1a, NodeId, SimDuration, SimRng, SimTime};
use peering_telemetry::Telemetry;

/// Simulated horizon for one chaos run: every fault injects before
/// [`INJECT_WINDOW`] and heals within [`HEAL_WINDOW`], leaving several
/// retry-backoff cycles plus a hold-timer expiry of slack.
const HORIZON: SimDuration = SimDuration::from_secs(900);
/// Faults inject in `[10s, 10s + INJECT_WINDOW)`.
const INJECT_WINDOW: u64 = 200;
/// Paired heal actions land at most this many seconds after injection.
const HEAL_WINDOW: u64 = 60;

/// A small emulated topology the chaos campaign can rebuild at will.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosTopology {
    /// `n` routers in a cycle; routes propagate both ways around it.
    Ring(usize),
    /// A hub (node 0) with `n` leaves; the hub relays between leaves.
    Star(usize),
}

impl ChaosTopology {
    /// Human-readable scenario name.
    pub fn name(&self) -> String {
        match self {
            ChaosTopology::Ring(n) => format!("ring-{n}"),
            ChaosTopology::Star(n) => format!("star-{n}"),
        }
    }

    /// Number of emulation nodes.
    pub fn node_count(&self) -> usize {
        match self {
            ChaosTopology::Ring(n) => *n,
            ChaosTopology::Star(n) => *n + 1,
        }
    }

    /// The adjacency list, as node-index pairs.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        match self {
            ChaosTopology::Ring(n) => (0..*n).map(|i| (i, (i + 1) % n)).collect(),
            ChaosTopology::Star(n) => (1..=*n).map(|i| (0, i)).collect(),
        }
    }

    /// Build the emulation — [`flat_mesh`] under this topology's name:
    /// one speaker per node (private ASNs), every session
    /// graceful-restart capable, every speaker armed with a seeded
    /// ConnectRetry stream so nothing stays down for good. Each node
    /// originates one unique prefix. Runs to initial convergence.
    pub fn build(&self, seed: u64) -> Emulation {
        let mut emu = flat_mesh(&self.name(), self.node_count(), &self.edges(), seed);
        launch(&mut emu);
        emu
    }

    /// [`build`](Self::build) with a route collector attached before the
    /// first session comes up, so origination and initial convergence
    /// land in the provenance stream too. Collection is observational:
    /// the converged tables are bit-identical to a bare build (a test
    /// below pins this).
    pub fn build_collected(&self, seed: u64, collector: &mut Collector) -> Emulation {
        let mut emu = flat_mesh(&self.name(), self.node_count(), &self.edges(), seed);
        collector.attach(&mut emu);
        launch(&mut emu);
        emu
    }
}

/// Start every session, originate each node's prefix, and run to
/// initial convergence.
fn launch(emu: &mut Emulation) {
    emu.start_all();
    for i in 0..emu.container_count() {
        emu.control(i, Input::Originate(origin_prefix(i), vec![]));
    }
    emu.run_until_quiet(usize::MAX);
}

/// The prefix node `i` originates (public so collectors, goldens, and
/// benches can name the routing changes a run produces).
pub fn origin_prefix(i: usize) -> Prefix {
    Prefix::v4(10, 60, i as u8, 0, 24)
}

/// Generate a seeded fault schedule for `topology`. Every destructive
/// action is paired with its heal inside the horizon: links come back
/// up, partitions heal, crashed daemons restart. Same seed, same plan.
pub fn chaos_plan(topology: &ChaosTopology, seed: u64) -> FaultPlan {
    let mut rng = SimRng::new(seed).fork("chaos-plan");
    let edges = topology.edges();
    let n = topology.node_count();
    let n_faults = 3 + rng.index(3);
    let mut plan = FaultPlan::new();
    for _ in 0..n_faults {
        let t = SimTime::from_secs(10 + rng.below(INJECT_WINDOW));
        let heal = t + SimDuration::from_secs(10 + rng.below(HEAL_WINDOW - 10));
        let &(a, b) = rng.pick(&edges).expect("topology has edges");
        let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
        let victim = NodeId(rng.index(n) as u32);
        match rng.index(6) {
            0 => plan = plan.at(t, FaultAction::SessionReset(na, nb)),
            1 => {
                // Random direction: either end may see the garbage.
                let (x, y) = if rng.chance(0.5) { (na, nb) } else { (nb, na) };
                plan = plan.at(t, FaultAction::CorruptMessage(x, y));
            }
            2 => {
                plan = plan
                    .at(t, FaultAction::LinkDown(na, nb))
                    .at(heal, FaultAction::LinkUp(na, nb));
            }
            3 => {
                plan = plan
                    .at(t, FaultAction::PartitionAs(victim))
                    .at(heal, FaultAction::HealAs(victim));
            }
            4 => {
                plan = plan
                    .at(t, FaultAction::MuxCrash(victim))
                    .at(heal, FaultAction::MuxRestart(victim));
            }
            _ => {
                let extra = SimDuration::from_millis(10 + rng.below(190));
                plan = plan.at(t, FaultAction::DelaySpike(na, nb, extra));
            }
        }
    }
    plan
}

/// FNV-1a digest of every container's converged Loc-RIB, independent of
/// arrival timing: routes are canonicalized **without** `learned_at`,
/// sorted per container, then hashed container by container.
pub fn rib_digest(emu: &Emulation) -> u64 {
    let mut h = Fnv1a::legacy();
    for idx in 0..emu.container_count() {
        let Some(d) = emu.daemon(idx) else {
            h.write(format!("node {idx}: crashed;").as_bytes());
            continue;
        };
        h.write(format!("node {idx}:").as_bytes());
        digest_routes(&mut h, d.loc_rib().iter());
    }
    h.finish()
}

/// The outcome of one seeded chaos run against one topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosReport {
    /// Which topology ran.
    pub scenario: String,
    /// The schedule seed.
    pub seed: u64,
    /// Number of scripted actions applied.
    pub faults: usize,
    /// Loc-RIB digest of the fault-free run.
    pub baseline_digest: u64,
    /// Loc-RIB digest after chaos plus recovery time.
    pub chaos_digest: u64,
}

impl ChaosReport {
    /// True when chaos left no trace: post-recovery tables match the
    /// fault-free run exactly.
    pub fn converged(&self) -> bool {
        self.baseline_digest == self.chaos_digest
    }
}

/// Run one seeded schedule against one topology and compare digests.
pub fn run_one(topology: &ChaosTopology, seed: u64) -> ChaosReport {
    run_one_instrumented(topology, seed, Telemetry::disabled())
}

/// [`run_one`] with a telemetry handle attached to the faulted
/// emulation. Telemetry observes but never perturbs: the digests must
/// match a bare run bit-for-bit (a test below pins this), so chaos
/// campaigns can ship `emulation.*` / `bgp.*` metrics for free.
pub fn run_one_instrumented(
    topology: &ChaosTopology,
    seed: u64,
    telemetry: Telemetry,
) -> ChaosReport {
    let mut emu = topology.build(seed);
    emu.set_telemetry(telemetry);
    run_faulted(topology, seed, emu)
}

/// [`run_one`] with a route collector archiving the faulted run: every
/// update the vantages hear, every import/export verdict, the whole
/// propagation history. Collection must not perturb — the digests match
/// a bare run bit-for-bit (a test below pins this).
pub fn run_one_collected(
    topology: &ChaosTopology,
    seed: u64,
    collector: &mut Collector,
) -> ChaosReport {
    run_faulted(topology, seed, topology.build_collected(seed, collector))
}

/// Drive `emu` — `topology` built from `seed`, observers attached —
/// through the seeded schedule and compare it with a fault-free build.
fn run_faulted(topology: &ChaosTopology, seed: u64, mut emu: Emulation) -> ChaosReport {
    let baseline_digest = rib_digest(&topology.build(seed));
    let mut plan = chaos_plan(topology, seed);
    let faults = plan.len();
    emu.run_with_faults(&mut plan, SimTime::ZERO + HORIZON, usize::MAX);
    emu.export_net_stats();
    ChaosReport {
        scenario: topology.name(),
        seed,
        faults,
        baseline_digest,
        chaos_digest: rib_digest(&emu),
    }
}

/// The default campaign matrix: every seed against every topology.
pub fn run_campaign(topologies: &[ChaosTopology], seeds: &[u64]) -> Vec<ChaosReport> {
    let mut reports = Vec::with_capacity(topologies.len() * seeds.len());
    for topology in topologies {
        for &seed in seeds {
            reports.push(run_one(topology, seed));
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::Asn;

    const TOPOLOGIES: [ChaosTopology; 2] = [ChaosTopology::Ring(5), ChaosTopology::Star(4)];

    #[test]
    fn chaos_smoke() {
        // The cheap CI gate: one seed per topology, tables must match.
        for report in run_campaign(&TOPOLOGIES, &[1]) {
            assert!(
                report.converged(),
                "{} seed {} diverged: baseline {:#x} vs chaos {:#x} ({} faults)",
                report.scenario,
                report.seed,
                report.baseline_digest,
                report.chaos_digest,
                report.faults,
            );
            assert!(report.faults >= 3, "plan should script several faults");
        }
    }

    #[test]
    fn campaign_eight_seeds_recover_identical_tables() {
        // The full acceptance matrix: 8 seeded schedules over both
        // scenarios, every run ending bitwise identical to fault-free.
        let seeds: Vec<u64> = (1..=8).collect();
        let reports = run_campaign(&TOPOLOGIES, &seeds);
        assert_eq!(reports.len(), 16);
        for report in &reports {
            assert!(
                report.converged(),
                "{} seed {} diverged after {} faults",
                report.scenario,
                report.seed,
                report.faults,
            );
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let topo = ChaosTopology::Ring(5);
        let mut p1 = chaos_plan(&topo, 42);
        let mut p2 = chaos_plan(&topo, 42);
        assert_eq!(p1.len(), p2.len());
        assert_eq!(p1.due(SimTime::MAX), p2.due(SimTime::MAX));
        // A different seed scripts a different schedule.
        let mut p3 = chaos_plan(&topo, 43);
        assert_ne!(
            chaos_plan(&topo, 42).due(SimTime::MAX),
            p3.due(SimTime::MAX)
        );
    }

    #[test]
    fn digest_is_independent_of_retry_seeds() {
        // Different build seeds shuffle ConnectRetry jitter and message
        // interleavings, but converged content must hash identically.
        let topo = ChaosTopology::Ring(4);
        let d1 = rib_digest(&topo.build(7));
        let d2 = rib_digest(&topo.build(8));
        assert_eq!(d1, d2, "converged digest must not depend on timing");
    }

    #[test]
    fn telemetry_observes_without_perturbing() {
        // The core chaos invariant — fault-free and post-recovery
        // Loc-RIB digests identical — must survive a live telemetry
        // handle recording every fault, crash, and session flap.
        let topo = ChaosTopology::Ring(4);
        let bare = run_one(&topo, 11);
        let telemetry = Telemetry::new();
        let instrumented = run_one_instrumented(&topo, 11, telemetry.clone());
        assert_eq!(bare, instrumented, "telemetry must not change outcomes");
        assert!(instrumented.converged());
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("emulation.faults.applied"),
            instrumented.faults as u64
        );
        assert!(snap.gauge("netsim.transport.delivered").is_some());
    }

    #[test]
    fn collector_observes_without_perturbing() {
        // Same invariant for the route collector: a full provenance
        // stream plus vantage archives must leave the chaos digests
        // bitwise identical to a bare run, and the archives themselves
        // must be byte-deterministic across executions.
        let topo = ChaosTopology::Ring(4);
        let bare = run_one(&topo, 11);
        let run = || {
            let mut collector = Collector::new();
            collector.add_vantage(Asn(65001));
            let report = run_one_collected(&topo, 11, &mut collector);
            let archive = collector
                .update_archive(Asn(65001), peering_bgp::wire::WireConfig::default())
                .expect("archive");
            (report, archive)
        };
        let (collected, archive1) = run();
        let (collected2, archive2) = run();
        assert_eq!(bare, collected, "collection must not change outcomes");
        assert!(collected.converged());
        assert_eq!(collected, collected2);
        assert!(!archive1.is_empty(), "vantage heard updates during chaos");
        assert_eq!(archive1, archive2, "same seed, same archive bytes");
    }

    #[test]
    fn collected_build_reconstructs_origination_dags() {
        // The initial convergence of a collected build yields a
        // propagation DAG for every originated prefix, rooted at its
        // origin AS.
        let topo = ChaosTopology::Ring(4);
        let mut collector = Collector::new();
        let _emu = topo.build_collected(3, &mut collector);
        let records = collector.records();
        for i in 0..4 {
            let traces = peering_collector::traces_for_prefix(&records, origin_prefix(i));
            assert_eq!(traces.len(), 1, "one origination for node {i}");
            let dag = peering_collector::build_dag(&records, traces[0]).expect("dag");
            assert_eq!(dag.origin, Asn(65001 + i as u32));
            assert!(!dag.withdraw);
            // The change reached beyond the origin.
            assert!(dag.hops.iter().any(|h| h.verdict == "accepted"));
        }
    }

    #[test]
    fn digest_sees_route_differences() {
        let topo = ChaosTopology::Ring(4);
        let base = topo.build(7);
        let mut changed = topo.build(7);
        changed.control(0, Input::Originate(Prefix::v4(10, 99, 0, 0, 24), vec![]));
        changed.run_until_quiet(usize::MAX);
        assert_ne!(rib_digest(&base), rib_digest(&changed));
    }
}
