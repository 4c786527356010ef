//! IPv6 end to end — the paper's planned extension, implemented: v6
//! experiment prefixes from the testbed's /32, dual-stack announcements,
//! v6 safety, and v6 NLRI across the wire codec.

use peering::bgp::wire::{decode_message, encode_message, WireConfig};
use peering::bgp::{AsPath, BgpMessage, Nlri, PathAttributes, UpdateMessage};
use peering::core::{SafetyVerdict, Violation};
use peering::prelude::*;
use std::sync::Arc;

#[test]
fn v6_experiment_lifecycle() {
    let mut tb = Testbed::build(TestbedConfig::small(300));
    let id = tb.new_experiment("v6", "usc", &[0, 1]).unwrap();
    // Enable IPv6: a /48 from the testbed's /32.
    let v6 = tb.enable_ipv6(id).unwrap();
    assert!(tb.allocator.in_v6_pool(&v6));
    assert_eq!(v6.len(), 48);
    // Idempotent.
    assert_eq!(tb.enable_ipv6(id).unwrap(), v6);
    // Announce from both sites to all dual-stack neighbors.
    let reach = tb.announce_v6(id, &[0, 1], &PeerSelector::All).unwrap();
    assert!(reach > 0, "someone must hear the v6 route");
    // Only dual-stack ASes can hold it.
    assert!(reach <= tb.dual_stack_count());
    let result = tb.routes_for_prefix(&Prefix::V6(v6)).expect("announced");
    for (idx, _) in result.iter() {
        if idx != tb.node {
            assert!(
                !tb.graph().info(idx).v6_prefixes.is_empty(),
                "v4-only AS {idx} must not hold a v6 route"
            );
        }
    }
    // Withdraw and release via teardown.
    tb.withdraw_v6(id).unwrap();
    assert!(tb.routes_for_prefix(&Prefix::V6(v6)).is_none());
    let avail = tb.allocator.available_v6();
    tb.end_experiment(id).unwrap();
    assert_eq!(tb.allocator.available_v6(), avail + 1);
}

#[test]
fn v6_reach_is_smaller_than_v4_reach() {
    let mut tb = Testbed::build(TestbedConfig::small(301));
    let id = tb.new_experiment("dualstack", "usc", &[0, 1]).unwrap();
    let client = tb.clients[&id].clone();
    let v4_reach = tb.announce(id, client.announce_everywhere()).unwrap();
    tb.enable_ipv6(id).unwrap();
    let v6_reach = tb.announce_v6(id, &[0, 1], &PeerSelector::All).unwrap();
    assert!(
        v6_reach < v4_reach,
        "partial v6 deployment: {v6_reach} v6 vs {v4_reach} v4"
    );
    assert!(v6_reach > 0);
}

#[test]
fn v6_hijack_is_blocked() {
    let mut tb = Testbed::build(TestbedConfig::small(302));
    let a = tb.new_experiment("a", "x", &[0]).unwrap();
    let b = tb.new_experiment("b", "y", &[0]).unwrap();
    let pa = tb.enable_ipv6(a).unwrap();
    let pb = tb.enable_ipv6(b).unwrap();
    assert!(!pa.overlaps(&pb));
    // Check the filter directly with b's prefix under a's ownership.
    let (pa, pb) = (Prefix::V6(pa), Prefix::V6(pb));
    let now = tb.now();
    let verdict = tb
        .safety
        .check_announcement(a.0, pa, pb, Asn::PEERING, 0, 0, now);
    assert_eq!(
        verdict,
        SafetyVerdict::Blocked(Violation::NotYourPrefix(pb))
    );
    // And fully foreign v6 space.
    let foreign: Prefix = "2001:db8:dead::/48".parse().unwrap();
    let verdict = tb
        .safety
        .check_announcement(a.0, pa, foreign, Asn::PEERING, 0, 0, now);
    assert_eq!(verdict, SafetyVerdict::Blocked(Violation::Hijack(foreign)));
}

#[test]
fn v6_announcements_are_rate_limited() {
    let mut tb = Testbed::build(TestbedConfig::small(304));
    let id = tb.new_experiment("chatty", "x", &[0]).unwrap();
    tb.enable_ipv6(id).unwrap();
    // Damping must not be what stops the flood.
    tb.safety.cfg.damping.suppress_threshold = 1e12;
    let budget = tb.safety.cfg.max_actions_per_window;
    let mut limited = 0;
    for _ in 0..25 {
        tb.advance(SimDuration::from_secs(10));
        match tb.announce_v6(id, &[0], &PeerSelector::All) {
            Ok(_) => {}
            Err(TestbedError::Safety(Violation::RateLimited)) => limited += 1,
            Err(e) => panic!("unexpected {e}"),
        }
    }
    assert_eq!(limited, 25 - budget, "one window allows {budget} actions");
}

#[test]
fn v6_without_enabling_errors() {
    let mut tb = Testbed::build(TestbedConfig::small(303));
    let id = tb.new_experiment("no-v6", "x", &[0]).unwrap();
    assert!(matches!(
        tb.announce_v6(id, &[0], &PeerSelector::All),
        Err(TestbedError::V6NotAvailable)
    ));
    assert!(matches!(
        tb.withdraw_v6(id),
        Err(TestbedError::V6NotAvailable)
    ));
}

#[test]
fn v6_nlri_crosses_the_wire() {
    // A v6 route carried in MP_REACH, byte-encoded and decoded.
    let attrs = Arc::new(PathAttributes {
        as_path: AsPath::from_asns(&[Asn::PEERING]),
        next_hop: "80.249.208.1".parse().unwrap(),
        ..Default::default()
    });
    let v6: Prefix = "2804:269c:17::/48".parse().unwrap();
    let msg = BgpMessage::Update(UpdateMessage::announce(attrs, vec![Nlri::plain(v6)]));
    let bytes = encode_message(&msg, WireConfig::default()).unwrap();
    let (decoded, _) = decode_message(&bytes, WireConfig::default()).unwrap();
    assert_eq!(decoded, msg);
}
