//! What a configured peer costs a speaker: the bytes it keeps per peer,
//! the bytes of its first export group, and the allocations of an
//! `add_peer` that joins an existing export group. A speaker of the
//! simulated Internet has one to a few peers, so a fixed cost paid by the
//! first peer (a B-tree leaf sized for eleven inline peer states or
//! export groups) or a string built per join (the group key) shows up
//! here at once. A test binary of its own because it installs
//! a counting global allocator.

mod counting_alloc;

use counting_alloc::{allocations, live_bytes};
use peering_bgp::{Action, Community, Match, PeerConfig, PeerId, Policy, Speaker, SpeakerConfig};
use peering_netsim::Asn;
use std::net::Ipv4Addr;

/// Live bytes a speaker keeps per peer after `k` `add_peer`s sharing one
/// import and one export policy, for `k` = 1, 3 and 40. The first peer
/// also pays for the speaker's first export group. Measured 952, 632 and
/// 518 bytes (x86-64, glibc); export groups stored inline in the groups
/// map and the rarely used graceful-restart and connect-retry state
/// inline in each peer cost 1,848, 1,000 and 642; peer states stored
/// inline in the peers map cost 8,296, 2,904 and 1,421.
const BYTES_PER_PEER: [(u32, i64); 3] = [(1, 1_024), (3, 704), (40, 576)];

/// Live bytes a speaker's first peer keeps beyond what the second peer,
/// joining the same export group, keeps: the first group and the first
/// leaves of the peers and groups maps. Measured 480 bytes; with groups
/// stored inline, a groups-map leaf sized for eleven of them makes it
/// 1,272.
const FIRST_GROUP_BYTES: i64 = 512;

/// Allocations of one `add_peer` that joins an existing export group:
/// the boxed peer state, plus up to four when the peers map or the
/// group's member set splits a B-tree node. A group key formatted as a
/// string and policies copied per peer make it 13.
const JOIN_ALLOCATIONS: u64 = 5;

/// `k` eBGP peer configs with the simulated Internet's Gao-Rexford
/// policies toward a peer. Every config holds clones of one import and
/// one export policy, so no peer pays for rules of its own, as none does
/// when a topology's speakers are built from its specs.
fn peer_configs(k: u32) -> Vec<PeerConfig> {
    let import = Policy::accept_all().rule(
        Match::Any,
        vec![
            Action::SetLocalPref(100),
            Action::AddCommunity(Community::new(65535, 2)),
            Action::Accept,
        ],
    );
    let export = Policy::accept_all().rule(
        Match::AnyOf(vec![
            Match::HasCommunity(Community::new(65535, 2)),
            Match::HasCommunity(Community::new(65535, 3)),
        ]),
        vec![Action::Reject],
    );
    (0..k)
        .map(|i| {
            PeerConfig::new(PeerId(i), Asn(64512 + i))
                .import(import.clone())
                .export(export.clone())
        })
        .collect()
}

fn speaker() -> Speaker {
    Speaker::new(SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1)))
}

#[test]
fn a_peer_costs_about_what_it_holds() {
    for (k, budget) in BYTES_PER_PEER {
        let configs = peer_configs(k);
        let mut s = speaker();
        let before = live_bytes();
        for cfg in &configs {
            s.add_peer(cfg.clone()).unwrap();
        }
        let per_peer = (live_bytes() - before) / i64::from(k);
        assert!(
            per_peer <= budget,
            "{k} peers keep {per_peer} bytes each, over the budget of {budget}"
        );
    }
}

#[test]
fn a_speakers_first_export_group_costs_about_what_it_holds() {
    let configs = peer_configs(2);
    let mut s = speaker();
    let kept = |s: &mut Speaker, cfg: &PeerConfig| {
        let before = live_bytes();
        s.add_peer(cfg.clone()).unwrap();
        live_bytes() - before
    };
    let first = kept(&mut s, &configs[0]);
    let second = kept(&mut s, &configs[1]);
    let group = first - second;
    assert!(
        group <= FIRST_GROUP_BYTES,
        "the first peer keeps {first} bytes and the second {second}: the first group costs \
         {group}, over the budget of {FIRST_GROUP_BYTES}"
    );
}

#[test]
fn joining_an_export_group_allocates_little() {
    let configs = peer_configs(40);
    let mut s = speaker();
    s.add_peer(configs[0].clone()).unwrap();
    for cfg in &configs[1..] {
        let id = cfg.id;
        let before = allocations();
        s.add_peer(cfg.clone()).unwrap();
        let made = allocations() - before;
        assert!(
            made <= JOIN_ALLOCATIONS,
            "{id:?} joined its group with {made} allocations, over the budget of {JOIN_ALLOCATIONS}"
        );
    }
}
