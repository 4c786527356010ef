//! Delayed BGP convergence: path exploration after a withdrawal.
//!
//! The paper's opening list of interdomain pathologies includes "slow
//! convergence \[30\]" (Labovitz et al.: *Delayed Internet Routing
//! Convergence*). The classic result: after a route is withdrawn, BGP
//! explores progressively longer alternative paths before giving up, so
//! both message count and (simulated) convergence time grow superlinearly
//! with the diameter of the topology. PEERING-style controlled
//! announcements are exactly how such studies inject clean events.
//!
//! The scenario builds rings of message-level speakers, originates a
//! prefix, withdraws it, and measures the control-plane storm.

use peering_emulation::{build_from_pops, PopEmulation};
use peering_topology::small_ring;
use serde::{Deserialize, Serialize};

/// Measurements for one topology size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Ring size (routers).
    pub size: usize,
    /// Messages to converge after the initial announcement.
    pub announce_msgs: usize,
    /// Messages to converge after the withdrawal (path exploration).
    pub withdraw_msgs: usize,
    /// Simulated time until the withdrawal converged, in microseconds.
    pub withdraw_time_us: u64,
}

/// The study's sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConvergenceReport {
    /// One point per ring size.
    pub points: Vec<ConvergencePoint>,
}

impl ConvergenceReport {
    /// Withdrawal convergence (down) costs more than announcement
    /// convergence (up) — Labovitz's headline asymmetry — at the largest
    /// measured size.
    pub fn down_slower_than_up(&self) -> bool {
        self.points
            .last()
            .map(|p| p.withdraw_msgs > p.announce_msgs)
            .unwrap_or(false)
    }
}

fn measure(size: usize, seed: u64) -> ConvergencePoint {
    let topo = small_ring(size);
    let mut pe: PopEmulation = build_from_pops(&topo, 64512, seed);
    pe.emu.start_all();
    pe.emu.run_until_quiet(usize::MAX);
    // Announce a single prefix at router 0 and converge.
    let prefix = peering_netsim::Prefix::v4(10, 200, 0, 0, 16);
    pe.emu
        .control(pe.routers[0], |d, now| d.originate(prefix, now));
    let announce_msgs = pe.emu.run_until_quiet(usize::MAX);
    // Withdraw it; the rest of the ring explores ever-longer paths
    // through each other before accepting unreachability.
    let t0 = pe.emu.now();
    pe.emu
        .control(pe.routers[0], |d, now| d.withdraw_origin(prefix, now));
    let withdraw_msgs = pe.emu.run_until_quiet(usize::MAX);
    let withdraw_time_us = pe.emu.now().since(t0).as_micros();
    // Everyone ended with no route (convergence is *correct*).
    for &r in &pe.routers {
        assert!(
            pe.emu
                .daemon(r)
                .expect("daemon")
                .loc_rib()
                .get(&prefix)
                .is_none(),
            "ghost route survived at router {r}"
        );
    }
    ConvergencePoint {
        size,
        announce_msgs,
        withdraw_msgs,
        withdraw_time_us,
    }
}

/// Sweep ring sizes.
pub fn run(sizes: &[usize], seed: u64) -> ConvergenceReport {
    ConvergenceReport {
        points: sizes.iter().map(|&s| measure(s, seed)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn withdrawal_is_costlier_than_announcement() {
        let report = run(&[4, 6, 8, 10], 1);
        assert_eq!(report.points.len(), 4);
        assert!(report.down_slower_than_up(), "{report:?}");
        // Message cost grows with topology size in both phases.
        for w in report.points.windows(2) {
            assert!(w[1].announce_msgs >= w[0].announce_msgs);
            assert!(w[1].withdraw_msgs >= w[0].withdraw_msgs);
        }
        // And convergence takes real (simulated) time.
        assert!(report.points.last().unwrap().withdraw_time_us > 0);
    }

    #[test]
    fn no_ghost_routes_after_convergence() {
        // measure() asserts internally; this exercises a larger ring.
        let p = measure(12, 2);
        assert!(p.withdraw_msgs > p.size, "exploration touches everyone");
    }
}
