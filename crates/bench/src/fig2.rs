//! E1 — Figure 2: "BGP table memory usage as # of prefixes and peers
//! increases."
//!
//! The paper's setup: "We built example topologies consisting of Quagga
//! routers in which N peers each sent X routes to a single router.
//! Figure 2 shows the amount of memory consumed by that single Quagga
//! router." We rebuild exactly that with our speaker: N established
//! sessions, X prefixes announced over each, realistic path diversity,
//! and deep memory accounting on the resulting tables. The interner
//! ablation shows why shared path attributes keep the curve sane.

use peering_bgp::{
    AsPath, BgpMessage, Input, Nlri, PathAttributes, PeerConfig, PeerId, Policy, Prefix, Speaker,
    SpeakerConfig, UpdateMessage,
};
use peering_netsim::{Asn, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// One measured point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig2Point {
    /// Number of peers.
    pub peers: usize,
    /// Routes each peer sent.
    pub routes: usize,
    /// Table memory in bytes with attribute interning.
    pub bytes_interned: usize,
    /// Table memory in bytes without interning (naive ablation).
    pub bytes_uninterned: usize,
    /// Distinct attribute sets the interner holds.
    pub distinct_attrs: usize,
}

/// The figure's data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Result {
    /// Measured points, ordered by (peers, routes).
    pub points: Vec<Fig2Point>,
}

/// Bring up a speaker with `peers` established fake sessions.
fn speaker_with_peers(peers: usize, intern: bool) -> Speaker {
    let mut cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
    if !intern {
        cfg = cfg.without_interning();
    }
    let mut s = Speaker::new(cfg);
    let now = SimTime::ZERO;
    for p in 0..peers {
        let asn = Asn(100 + p as u32);
        // Export nothing back: we measure the receiving router's tables
        // the way the paper measured Quagga's.
        s.add_peer(PeerConfig::new(PeerId(p as u32), asn).export(Policy::reject_all()))
            .expect("feeder ids are distinct");
        let mut outs = Vec::new();
        s.apply(Input::StartPeer(PeerId(p as u32)), now, &mut outs);
        assert!(!outs.is_empty(), "active session emits OPEN");
        // Complete the handshake by hand.
        let open = peering_bgp::message::OpenMessage::new(
            asn,
            90,
            Ipv4Addr::new(10, 1, (p >> 8) as u8, p as u8),
        );
        for msg in [BgpMessage::Open(open), BgpMessage::Keepalive] {
            s.apply(Input::Message(PeerId(p as u32), msg), now, &mut outs);
        }
        assert!(s.peer_established(PeerId(p as u32)));
    }
    s
}

/// Feed `routes` prefixes from every peer into the speaker, with
/// realistic path diversity (distinct first hop per peer, a shared pool
/// of tails roughly a quarter the table size).
fn fill_tables(s: &mut Speaker, peers: usize, routes: usize) {
    let now = SimTime::from_secs(1);
    const BATCH: usize = 200;
    let tail_pool = (routes / 4).max(1);
    for p in 0..peers {
        let peer_asn = Asn(100 + p as u32);
        let mut i = 0;
        while i < routes {
            let n = BATCH.min(routes - i);
            // All prefixes in a batch that share a tail share attrs.
            let tail = i % tail_pool;
            let attrs = Arc::new(PathAttributes {
                as_path: AsPath::from_asns(&[
                    peer_asn,
                    Asn(3000 + (tail % 700) as u32),
                    Asn(20000 + tail as u32),
                ]),
                next_hop: Ipv4Addr::new(10, 1, (p >> 8) as u8, p as u8),
                ..Default::default()
            });
            let nlri: Vec<Nlri> = (i..i + n)
                .map(|k| {
                    Nlri::plain(Prefix::v4(
                        20 + (k >> 16) as u8,
                        (k >> 8) as u8,
                        k as u8,
                        0,
                        24,
                    ))
                })
                .collect();
            let update = BgpMessage::Update(UpdateMessage::announce(attrs, nlri));
            s.apply(
                Input::Message(PeerId(p as u32), update),
                now,
                &mut Vec::new(),
            );
            i += n;
        }
    }
}

/// Measure one `(peers, routes)` configuration.
pub fn measure(peers: usize, routes: usize) -> Fig2Point {
    let mut interned = speaker_with_peers(peers, true);
    fill_tables(&mut interned, peers, routes);
    let bytes_interned = interned.table_memory();
    let (distinct_attrs, _, _) = interned.interner_stats();

    let mut naive = speaker_with_peers(peers, false);
    fill_tables(&mut naive, peers, routes);
    let bytes_uninterned = naive.table_memory();

    Fig2Point {
        peers,
        routes,
        bytes_interned,
        bytes_uninterned,
        distinct_attrs,
    }
}

/// Run the full sweep.
pub fn run(peer_counts: &[usize], route_counts: &[usize]) -> Fig2Result {
    let mut points = Vec::new();
    for &p in peer_counts {
        for &r in route_counts {
            points.push(measure(p, r));
        }
    }
    Fig2Result { points }
}

/// The quick sweep used by `repro` without `--full`.
pub fn quick() -> Fig2Result {
    run(&[1, 2, 5, 10, 20], &[1_000, 5_000, 20_000, 50_000])
}

/// The full sweep including the paper's Internet-scale 500K point.
pub fn full() -> Fig2Result {
    run(
        &[1, 2, 5, 10, 20],
        &[1_000, 5_000, 20_000, 50_000, 100_000, 500_000],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_grows_linearly_in_routes() {
        let a = measure(2, 500);
        let b = measure(2, 5_000);
        assert!(b.bytes_interned > a.bytes_interned * 5);
        assert!(b.bytes_interned < a.bytes_interned * 30);
    }

    #[test]
    fn memory_grows_with_peers() {
        // The Loc-RIB (a radix trie since the full-scale fast path
        // landed) is a peer-independent constant in this measurement,
        // and a bigger one than the old BTreeMap — so 5 peers vs 1
        // yields >2x, not the >3x the flat-map era produced. The
        // peer-linear term is the Adj-RIBs plus per-peer attributes.
        let a = measure(1, 2_000);
        let b = measure(5, 2_000);
        assert!(
            b.bytes_interned > a.bytes_interned * 2,
            "5 peers {} vs 1 peer {}",
            b.bytes_interned,
            a.bytes_interned
        );
    }

    #[test]
    fn interning_saves_memory() {
        let p = measure(5, 3_000);
        assert!(
            p.bytes_uninterned > p.bytes_interned,
            "uninterned {} must exceed interned {}",
            p.bytes_uninterned,
            p.bytes_interned
        );
        assert!(p.distinct_attrs < 5 * 3_000);
    }

    #[test]
    fn tables_hold_what_we_sent() {
        let mut s = speaker_with_peers(3, true);
        fill_tables(&mut s, 3, 1_000);
        for p in 0..3 {
            assert_eq!(s.adj_rib_in(PeerId(p)).unwrap().len(), 1_000);
        }
        assert_eq!(s.loc_rib().len(), 1_000);
    }

    #[test]
    fn sweep_shape() {
        let r = run(&[1, 2], &[100, 200]);
        assert_eq!(r.points.len(), 4);
        assert_eq!(r.points[0].peers, 1);
        assert_eq!(r.points[3].routes, 200);
    }
}
