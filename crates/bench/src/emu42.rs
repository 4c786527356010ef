//! E6 — §4.2 "Scalable intradomain emulation": the Hurricane Electric
//! backbone.
//!
//! Paper setup: "We emulated the PoP-level global backbone of Hurricane
//! Electric (HE), using data from Topology Zoo. We set up a Quagga
//! routing engine for each of the 24 PoPs, configured each PoP to
//! originate a prefix, and configured sessions between adjacent PoPs. We
//! then connected the emulated Amsterdam PoP to peer at AMS-IX via
//! PEERING... Routes from AMS-IX propagated through the emulated HE
//! topology, and MinineXt forwarded routes from emulated PoPs out...
//! The emulation ran on a commodity desktop using 8GB RAM."

use peering_bgp::{Asn, Input, Output, PeerConfig, PeerId, Prefix, Speaker, SpeakerConfig};
use peering_emulation::{build_from_pops, place_containers, PopEmulation};
use peering_topology::hurricane_electric;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Measured results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Emu42Result {
    /// PoPs emulated (paper: 24).
    pub pops: usize,
    /// Message deliveries to full convergence.
    pub convergence_steps: usize,
    /// Fraction of PoP pairs with reachability (must be 1.0).
    pub reachability: f64,
    /// Emulation memory estimate in bytes (paper bound: 8 GB).
    pub memory_bytes: usize,
    /// Routes injected from the simulated AMS-IX side.
    pub external_routes_in: usize,
    /// How many of them every PoP learned.
    pub external_routes_at_farthest_pop: usize,
    /// PoP prefixes the external side learned back (paper: "MinineXt
    /// forwarded routes from emulated PoPs out to the Internet").
    pub pop_routes_exported: usize,
    /// Hosts needed at an 8 GB budget.
    pub hosts_at_8gb: usize,
}

/// Run the emulation end to end, bridging Amsterdam to a simulated
/// AMS-IX upstream that injects `external_routes` prefixes.
pub fn run(seed: u64, external_routes: usize) -> Emu42Result {
    let topo = hurricane_electric();
    let pops = topo.pops.len();
    let ams = topo.pop_by_city("Amsterdam").expect("Amsterdam PoP");
    let mut pe = build_from_pops(&topo, 64600, seed);

    // The external AMS-IX-side speaker (the PEERING mux seen from HE).
    let h = pe.external_at(ams, Asn::PEERING);
    let mut ext = Speaker::new(
        SpeakerConfig::new(Asn::PEERING, Ipv4Addr::new(80, 249, 208, 1)).route_server(),
    );
    ext.add_peer(PeerConfig::new(PeerId(0), pe.asns[ams]).passive())
        .expect("a fresh speaker has no peers");
    let start = Input::StartPeer(PeerId(0));
    ext.apply(start, peering_netsim::SimTime::ZERO, &mut Vec::new());

    let convergence_steps = pe.converge(10_000_000);

    // Apply `inputs` to the external speaker, then bridge the session
    // both ways until quiescent.
    let bridge = |pe: &mut PopEmulation, ext: &mut Speaker, mut inputs: Vec<Input>| {
        for _ in 0..64 {
            let mut replies = Vec::new();
            let now = pe.emu.now();
            for input in inputs.drain(..) {
                ext.apply(input, now, &mut replies);
            }
            for o in replies {
                if let Output::Send(_, msg) = o {
                    pe.emu.inject_external(h, msg);
                }
            }
            pe.emu.run_until_quiet(10_000_000);
            let outbound = pe.emu.drain_external(h);
            if outbound.is_empty() {
                break;
            }
            inputs.extend(outbound.into_iter().map(|m| Input::Message(PeerId(0), m)));
        }
    };
    bridge(&mut pe, &mut ext, Vec::new());
    assert!(ext.peer_established(PeerId(0)), "external session up");

    // Inject AMS-IX routes inward.
    let routes = (0..external_routes).map(|i| {
        let p = Prefix::v4(60 + (i >> 16) as u8, (i >> 8) as u8, i as u8, 0, 24);
        Input::Originate(p, Vec::new())
    });
    bridge(&mut pe, &mut ext, routes.collect());

    // Count external routes at the PoP farthest from Amsterdam.
    let far = pe
        .spf
        .from(ams)
        .dist
        .iter()
        .enumerate()
        .max_by_key(|(_, &d)| if d == u32::MAX { 0 } else { d })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let far_daemon = pe.emu.daemon(pe.routers[far]).expect("daemon");
    let external_at_far = (0..external_routes)
        .filter(|&i| {
            let p = Prefix::v4(60 + (i >> 16) as u8, (i >> 8) as u8, i as u8, 0, 24);
            far_daemon.loc_rib().get(&p).is_some()
        })
        .count();

    // Routes from emulated PoPs visible on the external side.
    let pop_routes_exported = pe
        .prefixes
        .iter()
        .filter(|p| ext.loc_rib().get(p).is_some())
        .count();

    let memory_bytes = pe.emu.total_memory();
    let demands: Vec<usize> = pe
        .emu
        .memory_by_container()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let hosts_at_8gb = place_containers(&demands, 8 * 1024 * 1024 * 1024)
        .map(|p| p.hosts)
        .unwrap_or(usize::MAX);

    Emu42Result {
        pops,
        convergence_steps,
        reachability: pe.reachability(),
        memory_bytes,
        external_routes_in: external_routes,
        external_routes_at_farthest_pop: external_at_far,
        pop_routes_exported,
        hosts_at_8gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_backbone_reproduces_the_papers_claims() {
        let r = run(1, 200);
        assert_eq!(r.pops, 24);
        assert_eq!(r.reachability, 1.0, "all PoP pairs reachable");
        // Routes from "AMS-IX" propagate through the entire backbone...
        assert_eq!(
            r.external_routes_at_farthest_pop, r.external_routes_in,
            "external routes must reach the farthest PoP"
        );
        // ...and PoP prefixes flow out to the exchange.
        assert_eq!(r.pop_routes_exported, 24);
        // The whole thing fits on one 8 GB desktop.
        assert_eq!(r.hosts_at_8gb, 1, "memory {}", r.memory_bytes);
        assert!(r.memory_bytes < 8 * 1024 * 1024 * 1024);
        assert!(r.convergence_steps > 0);
    }
}
