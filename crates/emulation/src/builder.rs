//! Build an emulation: from a Topology-Zoo PoP map ([`build_from_pops`])
//! or as a flat mesh of small ASes ([`flat_mesh`]).
//!
//! §4.2's shape: one routing engine per PoP, one prefix per PoP, sessions
//! between adjacent PoPs, and the Amsterdam PoP connected out to AMS-IX.
//! Each PoP is given its own private ASN (the paper's emulated domains
//! run private ASNs "behind" PEERING, which strips them at the border),
//! so adjacent-PoP sessions are eBGP and routes propagate hop by hop
//! exactly as the paper describes.

use crate::container::Container;
use crate::emulation::{Emulation, ExternalHandle};
use crate::igp::Spf;
use peering_bgp::{Asn, ConnectRetryConfig, PeerConfig, PeerId, Prefix, Speaker, SpeakerConfig};
use peering_netsim::{LinkParams, SimDuration, SimRng};
use peering_topology::PopTopology;
use std::net::Ipv4Addr;

/// An emulation built from a PoP topology.
pub struct PopEmulation {
    /// The underlying emulation.
    pub emu: Emulation,
    /// Container index per PoP.
    pub routers: Vec<usize>,
    /// Private ASN per PoP.
    pub asns: Vec<Asn>,
    /// The prefix each PoP originates.
    pub prefixes: Vec<Prefix>,
    /// SPF over the PoP graph (distance-weighted).
    pub spf: Spf,
}

/// Build the emulation: one router per PoP, eBGP on every PoP adjacency,
/// one /16 per PoP from `10.(100+i).0.0`.
///
/// `base_asn` must leave room for one private ASN per PoP.
pub fn build_from_pops(topo: &PopTopology, base_asn: u32, seed: u64) -> PopEmulation {
    let mut emu = Emulation::new(SimRng::new(seed).fork("pop-emulation"));
    let n = topo.pops.len();
    let mut routers = Vec::with_capacity(n);
    let mut asns = Vec::with_capacity(n);
    let mut prefixes = Vec::with_capacity(n);
    for (i, pop) in topo.pops.iter().enumerate() {
        let asn = Asn(base_asn + i as u32);
        assert!(asn.is_private(), "PoP ASNs must be private, got {asn}");
        let router_id = Ipv4Addr::new(10, 255, i as u8, 1);
        let daemon = Speaker::new(SpeakerConfig::new(asn, router_id));
        let idx = emu.add_container(Container::router(pop.city, daemon));
        routers.push(idx);
        asns.push(asn);
        prefixes.push(Prefix::v4(10, 100 + i as u8, 0, 0, 16));
    }
    // Links and eBGP sessions along every adjacency. Link latency scales
    // with the topology's distance-derived cost (~1 ms per 100 km => the
    // cost unit maps to ~hundreds of km).
    for &(a, b, cost) in &topo.links {
        let latency = SimDuration::from_micros(200 + cost as u64 * 10);
        emu.link(routers[a], routers[b], LinkParams::with_delay(latency));
        // Peer ids: use the remote PoP index, unique per router.
        emu.connect_bgp(
            routers[a],
            PeerConfig::new(PeerId(b as u32), asns[b]),
            routers[b],
            PeerConfig::new(PeerId(a as u32), asns[a]).passive(),
        );
    }
    let spf = Spf::new(n, &topo.links);
    PopEmulation {
        emu,
        routers,
        asns,
        prefixes,
        spf,
    }
}

/// How long graceful restart retains a crashed neighbor's paths in a
/// [`flat_mesh`].
const MESH_RESTART_TIME: SimDuration = SimDuration::from_secs(120);

/// The one flat-mesh builder — what the chaos campaign, the looking
/// glass and the collector tests all run on: `nodes` single-router ASes
/// joined along `edges`, nothing started yet. Container `i` is router
/// `r{i}`, AS 65001+i, router id `10.0.(i>>8).(i&0xff)`, armed with a
/// ConnectRetry stream seeded from the `retry/{i}` fork of `seed` so
/// nothing stays down for good; the transport's RNG is the `label` fork.
/// Each edge gets a default link and one graceful-restart-capable eBGP
/// session — the lower index connects, the higher listens — with
/// `PeerId`s handed out per node in edge order.
pub fn flat_mesh(label: &str, nodes: usize, edges: &[(usize, usize)], seed: u64) -> Emulation {
    assert!((2..=200).contains(&nodes), "topology size out of range");
    let mut emu = Emulation::new(SimRng::new(seed).fork(label));
    for i in 0..nodes {
        let retry_seed = SimRng::new(seed).fork(&format!("retry/{i}")).seed();
        emu.add_container(Container::router(
            &format!("r{i}"),
            Speaker::new(
                SpeakerConfig::new(
                    Asn(65001 + i as u32),
                    Ipv4Addr::new(10, 0, (i >> 8) as u8, (i & 0xff) as u8),
                )
                .with_connect_retry(ConnectRetryConfig::new(retry_seed)),
            ),
        ));
    }
    let mut next_peer = vec![0u32; nodes];
    for &(a, b) in edges {
        emu.link(a, b, LinkParams::default());
        let pa = PeerId(next_peer[a]);
        let pb = PeerId(next_peer[b]);
        next_peer[a] += 1;
        next_peer[b] += 1;
        // Both ends keep the other's paths across restarts.
        emu.connect_bgp(
            a,
            PeerConfig::new(pa, Asn(65001 + b as u32)).graceful_restart(MESH_RESTART_TIME),
            b,
            PeerConfig::new(pb, Asn(65001 + a as u32))
                .passive()
                .graceful_restart(MESH_RESTART_TIME),
        );
    }
    emu
}

impl PopEmulation {
    /// Bring all sessions up and originate each PoP's prefix.
    /// Returns the number of deliveries processed to convergence.
    pub fn converge(&mut self, step_limit: usize) -> usize {
        self.emu.start_all();
        let mut steps = self.emu.run_until_quiet(step_limit);
        for (i, &r) in self.routers.iter().enumerate() {
            self.emu
                .control(r, |d, now| d.originate(self.prefixes[i], now));
        }
        steps += self.emu.run_until_quiet(step_limit);
        steps
    }

    /// Attach an external (out-of-emulation) BGP session at a PoP.
    pub fn external_at(&mut self, pop: usize, remote_asn: Asn) -> ExternalHandle {
        // Peer id 1000+ avoids clashing with PoP-indexed ids.
        self.emu
            .add_external_session(self.routers[pop], PeerConfig::new(PeerId(1000), remote_asn))
    }

    /// Does PoP `from` have a route to PoP `to`'s prefix?
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        self.emu
            .daemon(self.routers[from])
            .map(|d| d.loc_rib().get(&self.prefixes[to]).is_some())
            .unwrap_or(false)
    }

    /// Fraction of PoP pairs with full reachability.
    pub fn reachability(&self) -> f64 {
        let n = self.routers.len();
        if n < 2 {
            return 1.0;
        }
        let mut ok = 0usize;
        let mut total = 0usize;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    total += 1;
                    if self.reaches(a, b) {
                        ok += 1;
                    }
                }
            }
        }
        ok as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_topology::{hurricane_electric, small_ring};

    #[test]
    fn ring_emulation_converges() {
        let topo = small_ring(6);
        let mut pe = build_from_pops(&topo, 64512, 1);
        pe.converge(200_000);
        assert_eq!(pe.reachability(), 1.0, "all PoPs reach all prefixes");
        // AS paths follow the ring: 0's route to 3 crosses 2 hops.
        let d = pe.emu.daemon(pe.routers[0]).unwrap();
        let r = d.loc_rib().get(&pe.prefixes[3]).unwrap();
        assert_eq!(r.attrs.as_path.hop_count(), 3);
    }

    #[test]
    fn hurricane_electric_emulation_converges_in_8gb() {
        let topo = hurricane_electric();
        let mut pe = build_from_pops(&topo, 64600, 2);
        pe.converge(2_000_000);
        assert_eq!(pe.reachability(), 1.0);
        // The whole 24-PoP backbone fits comfortably in the paper's 8 GB.
        let mem = pe.emu.total_memory();
        assert!(
            mem < 8 * 1024 * 1024 * 1024,
            "memory {mem} exceeds the desktop budget"
        );
        assert_eq!(pe.emu.container_count(), 24);
    }

    #[test]
    fn external_session_at_amsterdam() {
        let topo = hurricane_electric();
        let ams = topo.pop_by_city("Amsterdam").unwrap();
        let mut pe = build_from_pops(&topo, 64600, 3);
        let h = pe.external_at(ams, Asn(47065));
        pe.converge(2_000_000);
        // The Amsterdam router tried to open the external session.
        let out = pe.emu.drain_external(h);
        assert!(!out.is_empty());
    }

    #[test]
    #[should_panic(expected = "private")]
    fn public_base_asn_is_rejected() {
        let topo = small_ring(3);
        build_from_pops(&topo, 3356, 1);
    }
}
