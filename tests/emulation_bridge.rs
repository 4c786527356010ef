//! Intradomain emulation bridged to the interdomain world — the §3
//! "controlling intradomain topology and routing" capability, across the
//! emulation, bgp, and topology crates.

use peering::bgp::{BgpMessage, Output, PeerConfig, PeerId, Speaker, SpeakerConfig};
use peering::emulation::{build_from_pops, place_containers};
use peering::prelude::*;
use peering::topology::{hurricane_electric, small_ring};
use std::net::Ipv4Addr;

/// Drive the external session between a PopEmulation and a speaker until
/// quiescent.
fn bridge(
    pe: &mut peering::emulation::PopEmulation,
    h: peering::emulation::ExternalHandle,
    ext: &mut Speaker,
) {
    for _ in 0..128 {
        let outbound = pe.emu.drain_external(h);
        if outbound.is_empty() {
            break;
        }
        let now = pe.emu.now();
        let mut replies: Vec<BgpMessage> = Vec::new();
        for m in outbound {
            for o in ext.on_message(PeerId(0), m, now) {
                if let Output::Send(_, msg) = o {
                    replies.push(msg);
                }
            }
        }
        for m in replies {
            pe.emu.inject_external(h, m);
        }
        pe.emu.run_until_quiet(usize::MAX);
    }
}

#[test]
fn he_backbone_bridges_to_an_external_peer() {
    let topo = hurricane_electric();
    let ams = topo.pop_by_city("Amsterdam").unwrap();
    let mut pe = build_from_pops(&topo, 64600, 77);
    let h = pe.external_at(ams, Asn::PEERING);
    // A normal speaker: the external AS prepends its ASN like any eBGP
    // neighbor would (the transparent mux sits *between* real peers and
    // clients; the far end of this session is a real AS).
    let mut ext = Speaker::new(SpeakerConfig::new(
        Asn::PEERING,
        Ipv4Addr::new(80, 249, 208, 1),
    ));
    ext.add_peer(PeerConfig::new(PeerId(0), pe.asns[ams]).passive())
        .expect("peer ids are distinct");
    ext.start_peer(PeerId(0), peering::netsim::SimTime::ZERO);
    pe.converge(usize::MAX);
    bridge(&mut pe, h, &mut ext);
    assert!(ext.peer_established(PeerId(0)));
    // All 24 PoP prefixes flow out to the external peer...
    assert_eq!(ext.loc_rib().len(), 24);
    // ...and external routes flow all the way across the backbone.
    let external = Prefix::v4(203, 0, 113, 0, 24);
    let now = pe.emu.now();
    let outs = ext.originate(external, now);
    for o in outs {
        if let Output::Send(_, m) = o {
            pe.emu.inject_external(h, m);
        }
    }
    pe.emu.run_until_quiet(usize::MAX);
    bridge(&mut pe, h, &mut ext);
    let hongkong = topo.pop_by_city("Hong Kong").unwrap();
    let d = pe.emu.daemon(pe.routers[hongkong]).unwrap();
    let r = d.loc_rib().get(&external).expect("HK learned the route");
    // The path crosses the emulated backbone: it ends at PEERING's ASN.
    assert_eq!(r.attrs.as_path.origin_as(), Some(Asn::PEERING));
    assert!(r.attrs.as_path.hop_count() >= 3, "{}", r.attrs.as_path);
}

#[test]
fn link_failure_inside_the_emulation_reroutes() {
    let topo = small_ring(6);
    let mut pe = build_from_pops(&topo, 64512, 5);
    pe.converge(usize::MAX);
    assert!(pe.reaches(0, 3));
    let d = pe.emu.daemon(pe.routers[0]).unwrap();
    let before = d
        .loc_rib()
        .get(&pe.prefixes[3])
        .unwrap()
        .attrs
        .as_path
        .hop_count();
    assert_eq!(before, 3, "shortest way round the ring");
    // Cut the 0-1 link and stop the session at both ends (the admin
    // interface; hold timers would do the same, slower). The withdraw
    // cascade toward the rest of the ring must flow through the
    // emulation for everyone to reconverge.
    pe.emu.set_link_up(pe.routers[0], pe.routers[1], false);
    pe.emu
        .control(pe.routers[0], |d, now| d.stop_peer(PeerId(1), now));
    pe.emu
        .control(pe.routers[1], |d, now| d.stop_peer(PeerId(0), now));
    pe.emu.run_until_quiet(usize::MAX);
    // 0 still reaches 3 the long way round.
    let d = pe.emu.daemon(pe.routers[0]).unwrap();
    let after = d
        .loc_rib()
        .get(&pe.prefixes[3])
        .expect("rerouted")
        .attrs
        .as_path
        .hop_count();
    assert_eq!(after, 3, "ring of 6: both ways to node 3 are 3 hops");
    // But a neighbor of the cut link definitely lengthens: 0 -> 1.
    let r01 = d.loc_rib().get(&pe.prefixes[1]).expect("rerouted");
    assert_eq!(r01.attrs.as_path.hop_count(), 5, "long way round");
}

#[test]
fn placement_splits_big_emulations() {
    let topo = hurricane_electric();
    let mut pe = build_from_pops(&topo, 64600, 9);
    pe.converge(usize::MAX);
    let demands: Vec<usize> = pe
        .emu
        .memory_by_container()
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    // Everything fits on one 8 GB host...
    let one = place_containers(&demands, 8 << 30).unwrap();
    assert_eq!(one.hosts, 1);
    // ...but force tiny hosts and it spreads.
    let max_one = *demands.iter().max().unwrap();
    let tight = place_containers(&demands, max_one + max_one / 2).unwrap();
    assert!(tight.hosts > 1);
    assert_eq!(tight.assignments.len(), 24);
}
