//! BGP speakers talking through the *byte-level* codec over a lossy
//! simulated transport — proving the pieces interoperate exactly the way
//! separate router processes would.

use peering::bgp::wire::{decode_message, encode_message, WireConfig};
use peering::bgp::{Input, Output, PeerConfig, PeerId, Speaker, SpeakerConfig};
use peering::netsim::{LinkParams, MsgNet, NodeId, SimRng};
use peering::prelude::*;
use std::net::Ipv4Addr;

/// Two speakers exchanging *encoded* messages over a MsgNet link.
struct ByteHarness {
    a: Speaker,
    b: Speaker,
    net: MsgNet<Vec<u8>>,
}

impl ByteHarness {
    fn new(loss: f64, seed: u64) -> Self {
        let mut a = Speaker::new(SpeakerConfig::new(Asn(100), Ipv4Addr::new(10, 0, 0, 1)));
        a.add_peer(PeerConfig::new(PeerId(0), Asn(200)))
            .expect("a fresh speaker has no peers");
        let mut b = Speaker::new(SpeakerConfig::new(Asn(200), Ipv4Addr::new(10, 0, 0, 2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(100)).passive())
            .expect("a fresh speaker has no peers");
        let mut net = MsgNet::new(SimRng::new(seed));
        net.add_link(
            NodeId(0),
            NodeId(1),
            LinkParams::with_delay(SimDuration::from_millis(20)).loss(loss),
        );
        ByteHarness { a, b, net }
    }

    /// Apply `input` to speaker `to` (0 = a, 1 = b) at the transport's
    /// clock and put what it sends on the link, encoded; returns all of
    /// its outputs.
    fn apply(&mut self, to: usize, input: Input) -> Vec<Output> {
        let speaker = if to == 0 { &mut self.a } else { &mut self.b };
        let mut outs = Vec::new();
        speaker.apply(input, self.net.now(), &mut outs);
        for o in &outs {
            if let Output::Send(_, msg) = o {
                let bytes = encode_message(msg, WireConfig::default()).expect("encode");
                let (na, nb) = (NodeId(to as u32), NodeId(1 - to as u32));
                self.net.send(na, nb, bytes.len(), bytes);
            }
        }
        outs
    }

    /// Run the event loop, decoding bytes at each delivery.
    fn run(&mut self, limit: usize) {
        for _ in 0..limit {
            let Some((_, delivery)) = self.net.next() else {
                break;
            };
            let (msg, used) = decode_message(&delivery.msg, WireConfig::default()).expect("decode");
            assert_eq!(used, delivery.msg.len());
            self.apply(delivery.to.0 as usize, Input::Message(PeerId(0), msg));
        }
    }
}

#[test]
fn session_establishes_over_encoded_bytes() {
    let mut h = ByteHarness::new(0.0, 1);
    h.apply(0, Input::StartPeer(PeerId(0)));
    h.apply(1, Input::StartPeer(PeerId(0)));
    h.run(100);
    assert!(h.a.peer_established(PeerId(0)));
    assert!(h.b.peer_established(PeerId(0)));
}

#[test]
fn routes_survive_the_byte_roundtrip() {
    let mut h = ByteHarness::new(0.0, 2);
    h.apply(0, Input::StartPeer(PeerId(0)));
    h.apply(1, Input::StartPeer(PeerId(0)));
    h.run(100);
    // Announce 50 prefixes from a.
    for i in 0..50u32 {
        let p = Prefix::v4(10, 50, i as u8, 0, 24);
        h.apply(0, Input::Originate(p, vec![]));
    }
    h.run(1000);
    assert_eq!(h.b.loc_rib().len(), 50);
    let p = Prefix::v4(10, 50, 7, 0, 24);
    let r = h.b.loc_rib().get(&p).expect("learned");
    assert_eq!(r.attrs.as_path.to_string(), "100");
    assert_eq!(r.attrs.next_hop, Ipv4Addr::new(10, 0, 0, 1));
}

#[test]
fn lossy_link_delays_but_timers_recover_the_session() {
    // With 30% loss the handshake may need retries; the FSM plus a
    // retry loop at the application layer must still converge.
    let mut h = ByteHarness::new(0.3, 3);
    for attempt in 0..50 {
        h.apply(0, Input::StartPeer(PeerId(0)));
        h.apply(1, Input::StartPeer(PeerId(0)));
        h.run(200);
        if h.a.peer_established(PeerId(0)) && h.b.peer_established(PeerId(0)) {
            return; // converged despite loss
        }
        // Reset both ends and try again (BGP's connect-retry analog).
        h.apply(0, Input::StopPeer(PeerId(0)));
        h.apply(1, Input::StopPeer(PeerId(0)));
        h.run(100);
        let _ = attempt;
    }
    panic!("session never established despite retries");
}

#[test]
fn hold_timer_fires_when_the_link_dies() {
    let mut h = ByteHarness::new(0.0, 4);
    h.apply(0, Input::StartPeer(PeerId(0)));
    h.apply(1, Input::StartPeer(PeerId(0)));
    h.run(100);
    assert!(h.a.peer_established(PeerId(0)));
    // Kill the link; drive time far past the hold deadline via timers.
    h.net.set_link_up(NodeId(0), NodeId(1), false);
    h.net
        .set_timer(NodeId(0), SimDuration::from_secs(300), Vec::new());
    h.net.next().expect("timer");
    let outs = h.apply(0, Input::Tick);
    assert!(outs
        .iter()
        .any(|o| matches!(o, Output::Event(peering::bgp::SpeakerEvent::PeerDown(_, _)))));
    assert!(!h.a.peer_established(PeerId(0)));
}
