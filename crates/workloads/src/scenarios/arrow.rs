//! ARROW: "one tunnel is (often) enough" — detour around black holes by
//! tunneling through the testbed.
//!
//! ARROW (Peter et al., SIGCOMM 2014) lets an end network buy a tunnel to
//! a well-connected provider to bypass broken transit; its prototype ran
//! on an early PEERING. Here a vantage AS loses its direct path to a
//! destination (a transit AS black-holes), tunnels to the experiment's
//! anycast prefix instead, and PEERING forwards out one of its own peer
//! paths that avoids the failure.

use crate::scenarios::pick_vantages;
use peering_core::{Testbed, TestbedError};
use peering_netsim::{Prefix, SimDuration};
use peering_topology::routing::{propagate, Announcement, TraceOutcome};
use peering_topology::AsIdx;
use serde::{Deserialize, Serialize};

/// Outcome of one ARROW run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArrowReport {
    /// The network whose connectivity broke.
    pub vantage: AsIdx,
    /// The destination it needed.
    pub destination: AsIdx,
    /// The transit AS that black-holed.
    pub failed_as: AsIdx,
    /// Was the direct path broken (precondition)?
    pub direct_broken: bool,
    /// Did the tunnel detour deliver?
    pub detour_works: bool,
    /// Latency of the original direct path.
    pub direct_latency: SimDuration,
    /// Latency of the detour (vantage -> PEERING -> destination).
    pub detour_latency: SimDuration,
}

/// Try vantage/destination pairs until a demonstrative failure exists,
/// then detour through the testbed.
pub fn run(tb: &mut Testbed) -> Result<ArrowReport, TestbedError> {
    let sites: Vec<usize> = (0..tb.servers.len()).collect();
    let id = tb.new_experiment("arrow", "repro", &sites)?;
    let client = tb.clients[&id].clone();
    tb.announce(id, client.announce_everywhere())?;

    // Destination: a content AS with prefixes.
    let destination = tb
        .graph()
        .infos()
        .find(|(_, i)| i.kind == peering_topology::AsKind::Content && !i.prefixes.is_empty())
        .map(|(idx, _)| idx)
        .expect("content AS exists");
    let dst_prefix = match tb.graph().info(destination).prefixes[0] {
        Prefix::V4(p) => p,
        Prefix::V6(_) => unreachable!("generator emits v4"),
    };
    let dst_routes = propagate(
        tb.graph(),
        &[Announcement::simple(destination, Prefix::V4(dst_prefix))],
    );

    for vantage in pick_vantages(tb, 60) {
        let Some(entry) = dst_routes.route(vantage) else {
            continue;
        };
        let direct_path = entry.path.clone();
        if direct_path.len() < 4 {
            continue;
        }
        let direct_latency = tb.path_latency(&direct_path);
        // Fail an interior transit on the direct path.
        for &failed in &direct_path[1..direct_path.len() - 1] {
            if failed == tb.node || failed == destination {
                continue;
            }
            tb.set_blackhole(failed, true);
            let direct_broken = matches!(
                dst_routes.trace(vantage, &tb.blackholes),
                TraceOutcome::Dropped { .. }
            );
            if !direct_broken {
                tb.set_blackhole(failed, false);
                continue;
            }
            // Leg 1: vantage -> experiment prefix (tunnel entry).
            let leg1 = match tb.traceroute(vantage, &client.prefix) {
                TraceOutcome::Delivered(p) => p,
                _ => {
                    tb.set_blackhole(failed, false);
                    continue;
                }
            };
            // Leg 2: PEERING -> destination via any site neighbor whose
            // path avoids the failure.
            let mut leg2: Option<(Vec<AsIdx>, SimDuration)> = None;
            for &site in &sites {
                for (_, path, lat) in tb.paths_via_neighbors(site, &dst_prefix)? {
                    if !path.contains(&failed) {
                        leg2 = Some((path, lat));
                        break;
                    }
                }
                if leg2.is_some() {
                    break;
                }
            }
            if let Some((_, leg2_lat)) = leg2 {
                let detour_latency = tb.path_latency(&leg1) + leg2_lat;
                tb.set_blackhole(failed, false);
                return Ok(ArrowReport {
                    vantage,
                    destination,
                    failed_as: failed,
                    direct_broken,
                    detour_works: true,
                    direct_latency,
                    detour_latency,
                });
            }
            tb.set_blackhole(failed, false);
        }
    }
    let _ = client;
    Ok(ArrowReport {
        vantage: AsIdx(0),
        destination,
        failed_as: AsIdx(0),
        direct_broken: false,
        detour_works: false,
        direct_latency: SimDuration::ZERO,
        detour_latency: SimDuration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_core::TestbedConfig;

    #[test]
    fn arrow_detours_around_blackhole() {
        let mut tb = Testbed::build(TestbedConfig::small(7));
        let report = run(&mut tb).expect("scenario runs");
        assert!(report.direct_broken, "a demonstrative failure must exist");
        assert!(report.detour_works, "the tunnel detour must deliver");
        assert!(report.detour_latency > SimDuration::ZERO);
        // The detour is usually longer — but must be finite and sane.
        assert!(report.detour_latency < SimDuration::from_secs(2));
    }
}
