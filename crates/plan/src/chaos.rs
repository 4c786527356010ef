//! Chaos validation: replay a certified plan under seeded fault
//! schedules and pin post-recovery Loc-RIB digests to the fault-free
//! execution, bitwise.
//!
//! The planner's oracle proves intermediate *configurations* safe; this
//! module validates the orthogonal robustness claim: executing the plan
//! is resilient to the testbed misbehaving mid-migration. Each replay
//! picks one or two plan steps and injects a fault burst right after
//! they are applied — a session reset, a mux crash/restart, or a
//! partition-and-heal — then lets timers run. Because administrative
//! state is persistent (a `SessionDown` survives a daemon restart) and
//! sessions recover through graceful restart and seeded ConnectRetry,
//! the network must converge to exactly the same Loc-RIBs the
//! fault-free execution reached.

use crate::exec::MigrationTestbed;
use crate::search::MigrationPlan;
use peering_core::{ConfigState, DeploySpec, SafetyConfig};
use peering_netsim::{FaultAction, FaultPlan, NodeId, SimDuration, SimRng};
use peering_telemetry::Telemetry;

/// Fault-burst window after a chaotic step: long enough for hold-timer
/// expiry (90 s), heal, and ConnectRetry re-establishment.
const FAULT_WINDOW: SimDuration = SimDuration::from_secs(600);

/// Outcome of validating one plan under a battery of fault schedules.
#[derive(Debug, Clone)]
pub struct ChaosReplayReport {
    /// Scenario the plan belongs to.
    pub scenario: String,
    /// Digest of the fault-free execution.
    pub fault_free_digest: u64,
    /// Whether the fault-free execution converged.
    pub fault_free_converged: bool,
    /// The derived schedule seeds, one per replay.
    pub seeds: Vec<u64>,
    /// Post-recovery digest of each replay, in seed order.
    pub digests: Vec<u64>,
    /// Seeds whose replay did not converge or whose post-recovery
    /// digest differed from fault-free.
    pub mismatches: Vec<u64>,
    /// Total faults injected across all replays.
    pub faults_injected: usize,
}

impl ChaosReplayReport {
    /// Every replay recovered to the fault-free Loc-RIBs.
    pub fn all_match(&self) -> bool {
        self.fault_free_converged && self.mismatches.is_empty()
    }
}

/// One seeded fault burst aimed at a random mux. Times are relative to
/// the window start; the caller rebases them onto the current clock.
fn fault_burst(tb: &MigrationTestbed, deploy: &DeploySpec, rng: &mut SimRng) -> (FaultPlan, usize) {
    let m = rng.index(deploy.muxes);
    let mux = NodeId(tb.mux_node(m) as u32);
    let start = SimDuration::from_secs(10 + rng.below(40));
    let mut plan = FaultPlan::new();
    let n;
    match rng.index(3) {
        0 => {
            // Session reset between the mux and one of its neighbors.
            let partner = if rng.chance(0.5) {
                tb.upstream_node(rng.index(deploy.upstreams))
            } else {
                tb.client_node(rng.index(deploy.clients.len()))
            };
            plan = plan.at(
                tb.at(start),
                FaultAction::SessionReset(mux, NodeId(partner as u32)),
            );
            n = 1;
        }
        1 => {
            let restart = start + SimDuration::from_secs(20 + rng.below(40));
            plan = plan
                .at(tb.at(start), FaultAction::MuxCrash(mux))
                .at(tb.at(restart), FaultAction::MuxRestart(mux));
            n = 2;
        }
        _ => {
            // Partition past hold-timer expiry, then heal.
            let heal = start + SimDuration::from_secs(95 + rng.below(25));
            plan = plan
                .at(tb.at(start), FaultAction::PartitionAs(mux))
                .at(tb.at(heal), FaultAction::HealAs(mux));
            n = 2;
        }
    }
    (plan, n)
}

/// Replay `plan` once with faults injected after the steps chosen by
/// `schedule_seed`. Returns the post-recovery digest, whether the
/// final network converged, and the number of faults injected.
pub fn replay_with_faults(
    deploy: &DeploySpec,
    current: &ConfigState,
    plan: &MigrationPlan,
    safety: &SafetyConfig,
    build_seed: u64,
    schedule_seed: u64,
) -> (u64, bool, usize) {
    let mut rng = SimRng::new(schedule_seed).fork("plan-chaos");
    let mut tb =
        MigrationTestbed::build(deploy, current, safety, build_seed, Telemetry::disabled());
    let n_steps = plan.steps.len();
    let n_chaotic = (1 + rng.index(2)).min(n_steps);
    let chaotic = rng.distinct_indices(n_steps, n_chaotic);
    let mut faults = 0;
    for (i, step) in plan.steps.iter().enumerate() {
        tb.apply_step(step);
        tb.barrier();
        if chaotic.contains(&i) {
            let (mut burst, n) = fault_burst(&tb, deploy, &mut rng);
            faults += n;
            tb.run_window(&mut burst, FAULT_WINDOW);
        }
    }
    // Same final settle as the fault-free execution.
    tb.run_window(&mut FaultPlan::new(), SimDuration::from_secs(200));
    (tb.digest(), tb.converged(), faults)
}

/// Execute `plan` fault-free, then replay it under `n_replays` seeded
/// fault schedules, pinning every post-recovery digest to the
/// fault-free one.
pub fn chaos_validate(
    deploy: &DeploySpec,
    current: &ConfigState,
    plan: &MigrationPlan,
    safety: &SafetyConfig,
    build_seed: u64,
    base_seed: u64,
    n_replays: usize,
) -> ChaosReplayReport {
    let mut tb =
        MigrationTestbed::build(deploy, current, safety, build_seed, Telemetry::disabled());
    let baseline = tb.run_plan(&plan.steps);

    let seed_rng = SimRng::new(base_seed);
    let mut seeds = Vec::with_capacity(n_replays);
    let mut digests = Vec::with_capacity(n_replays);
    let mut mismatches = Vec::new();
    let mut faults_injected = 0;
    for i in 0..n_replays {
        let seed = seed_rng.fork(&format!("replay/{i}")).seed();
        let (digest, converged, faults) =
            replay_with_faults(deploy, current, plan, safety, build_seed, seed);
        faults_injected += faults;
        if !converged || digest != baseline.final_digest {
            mismatches.push(seed);
        }
        seeds.push(seed);
        digests.push(digest);
    }
    ChaosReplayReport {
        scenario: plan.scenario.clone(),
        fault_free_digest: baseline.final_digest,
        fault_free_converged: baseline.converged,
        seeds,
        digests,
        mismatches,
        faults_injected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::plan_migration;

    #[test]
    fn make_before_break_survives_chaos_replays() {
        let deploy = DeploySpec::standard(2, 1);
        let safety = SafetyConfig::peering_default();
        let alloc = deploy.clients[0].alloc;
        let current = ConfigState::empty().session(0, 0).announce(0, alloc);
        let target = ConfigState::empty().session(0, 1).announce(0, alloc);
        let plan = plan_migration("mbb", &deploy, &current, &target, &safety, 42).expect("plan");
        let report = chaos_validate(&deploy, &current, &plan, &safety, 42, 1000, 3);
        assert!(report.fault_free_converged);
        assert!(
            report.all_match(),
            "mismatched seeds: {:?} (fault-free {:#018x}, digests {:?})",
            report.mismatches,
            report.fault_free_digest,
            report.digests
        );
        assert!(report.faults_injected > 0);
    }

    #[test]
    fn a_replay_that_did_not_converge_is_a_mismatch() {
        use crate::step::PlanStep;
        use peering_netsim::Ipv4Net;
        use std::net::Ipv4Addr;
        let deploy = DeploySpec::standard(1, 1);
        let safety = SafetyConfig::peering_default();
        let current = ConfigState::empty()
            .session(0, 0)
            .announce(0, deploy.clients[0].alloc);
        // A prefix outside the client's allocation: the mux's safety
        // import drops it, so no execution of this plan converges.
        let plan = MigrationPlan {
            scenario: "foreign-announce".into(),
            seed: 0,
            steps: vec![PlanStep::Announce {
                client: 0,
                prefix: Ipv4Net::new(Ipv4Addr::new(8, 8, 8, 0), 24),
            }],
            digests: Vec::new(),
            oracle_checks: 0,
            search_visited: 0,
        };
        let report = chaos_validate(&deploy, &current, &plan, &safety, 42, 1000, 2);
        assert!(!report.fault_free_converged);
        assert!(
            report
                .digests
                .iter()
                .all(|d| *d == report.fault_free_digest),
            "every replay recovered the fault-free tables"
        );
        assert_eq!(report.mismatches, report.seeds, "yet none converged");
    }

    #[test]
    fn replays_are_schedule_seed_deterministic() {
        let deploy = DeploySpec::standard(2, 1);
        let safety = SafetyConfig::peering_default();
        let alloc = deploy.clients[0].alloc;
        let current = ConfigState::empty().session(0, 0).announce(0, alloc);
        let target = ConfigState::empty().session(0, 1).announce(0, alloc);
        let plan = plan_migration("mbb", &deploy, &current, &target, &safety, 42).expect("plan");
        let a = replay_with_faults(&deploy, &current, &plan, &safety, 42, 99);
        let b = replay_with_faults(&deploy, &current, &plan, &safety, 42, 99);
        assert_eq!(a, b);
    }
}
