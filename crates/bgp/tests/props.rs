//! Property tests for the BGP implementation: codec inversions, AS-path
//! algebra, decision-process order laws, and damping monotonicity.

use peering_bgp::damping::{DampingConfig, DampingState};
use peering_bgp::wire::{decode_message, encode_message, encode_update_chunked, WireConfig};
use peering_bgp::{
    compare_routes, AsPath, BgpMessage, Community, DecisionConfig, Match, Nlri, Origin,
    PathAttributes, PeerId, Prefix, Route, RouteSource, UpdateMessage,
};
use peering_netsim::{Asn, Ipv4Net, SimDuration, SimTime};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn arb_asn() -> impl Strategy<Value = Asn> {
    (1u32..400_000).prop_map(Asn)
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(arb_asn(), 0..12).prop_map(|v| AsPath::from_asns(&v))
}

fn arb_attrs() -> impl Strategy<Value = PathAttributes> {
    (
        arb_as_path(),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 0..6),
    )
        .prop_map(|(as_path, nh, med, local_pref, atomic, communities)| {
            let mut attrs = PathAttributes {
                origin: Origin::Igp,
                as_path,
                next_hop: Ipv4Addr::from(nh),
                med,
                local_pref,
                atomic_aggregate: atomic,
                aggregator: None,
                communities: Vec::new(),
            };
            for c in communities {
                attrs.add_community(Community(c));
            }
            attrs
        })
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::V4(Ipv4Net::new(Ipv4Addr::from(a), l)))
}

fn arb_update() -> impl Strategy<Value = UpdateMessage> {
    (
        proptest::collection::vec(arb_prefix(), 0..20),
        proptest::collection::vec(arb_prefix(), 1..20),
        arb_attrs(),
    )
        .prop_map(|(withdrawn, announced, attrs)| UpdateMessage {
            withdrawn: withdrawn.into_iter().map(Nlri::plain).collect(),
            attrs: Some(Arc::new(attrs)),
            announced: announced.into_iter().map(Nlri::plain).collect(),
            trace: None,
        })
}

fn arb_route() -> impl Strategy<Value = Route> {
    (
        arb_attrs(),
        0u32..50,
        prop_oneof![
            Just(RouteSource::Ebgp),
            Just(RouteSource::Ibgp),
            Just(RouteSource::Local)
        ],
        0u32..100,
        0u32..8,
    )
        .prop_map(|(attrs, peer, source, igp, path_id)| Route {
            prefix: Prefix::v4(10, 0, 0, 0, 8),
            attrs: Arc::new(attrs),
            peer: PeerId(peer),
            path_id,
            source,
            igp_cost: igp,
            learned_at: SimTime::ZERO,
            trace: None,
        })
}

/// Decode a byte string into an arbitrarily nested `Match` tree:
/// deterministic, total, and covering every combinator. The first byte
/// picks the node kind; combinators recurse on the remaining bytes, so
/// longer inputs yield deeper nesting.
fn decode_match(ops: &[u8]) -> Match {
    let Some((&head, rest)) = ops.split_first() else {
        return Match::Any;
    };
    match head % 8 {
        0 => Match::Any,
        1 => Match::PrefixIn(vec![Prefix::v4(184, 164, 224, 0, 19)]),
        2 => Match::PrefixIn(vec![]),
        3 => Match::PrefixExact(vec![Prefix::v4(
            10,
            rest.first().copied().unwrap_or(0),
            0,
            0,
            24,
        )]),
        4 => Match::LongerThan(rest.first().copied().unwrap_or(0) % 33),
        5 => Match::AsPathContains(Asn(u32::from(rest.first().copied().unwrap_or(0)))),
        6 => Match::Not(Box::new(decode_match(rest))),
        _ => {
            let (left, right) = rest.split_at(rest.len() / 2);
            if head % 2 == 0 {
                Match::All(vec![decode_match(left), decode_match(right)])
            } else {
                Match::AnyOf(vec![decode_match(left), decode_match(right)])
            }
        }
    }
}

proptest! {
    /// encode -> decode is the identity on UPDATE messages (v4, no
    /// ADD-PATH), and the encoder sizes its buffer exactly: spare
    /// capacity would be resident memory for every message a caller
    /// keeps.
    #[test]
    fn update_codec_roundtrip(update in arb_update()) {
        let msg = BgpMessage::Update(update);
        let cfg = WireConfig::default();
        // Large updates are a legitimate encode error; skip those.
        if let Ok(bytes) = encode_message(&msg, cfg) {
            prop_assert_eq!(bytes.capacity(), bytes.len());
            let (decoded, used) = decode_message(&bytes, cfg).expect("decode what we encode");
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(decoded, msg);
        }
    }

    /// Chunked encoding never loses or duplicates NLRI.
    #[test]
    fn chunked_encoding_preserves_nlri(update in arb_update()) {
        let cfg = WireConfig::default();
        let msgs = encode_update_chunked(&update, cfg).expect("chunk");
        let mut announced = Vec::new();
        let mut withdrawn = Vec::new();
        for bytes in msgs {
            let (decoded, _) = decode_message(&bytes, cfg).expect("decode");
            if let BgpMessage::Update(u) = decoded {
                announced.extend(u.announced);
                withdrawn.extend(u.withdrawn);
            }
        }
        prop_assert_eq!(announced, update.announced);
        prop_assert_eq!(withdrawn, update.withdrawn);
    }

    /// ADD-PATH ids survive the codec when negotiated.
    #[test]
    fn add_path_ids_roundtrip(prefixes in proptest::collection::vec((arb_prefix(), any::<u32>()), 1..20),
                              attrs in arb_attrs()) {
        let cfg = WireConfig { add_path: true };
        let update = UpdateMessage {
            trace: None,
            withdrawn: vec![],
            attrs: Some(Arc::new(attrs)),
            announced: prefixes
                .iter()
                .map(|(p, id)| Nlri::with_path_id(*p, *id))
                .collect(),
        };
        if let Ok(bytes) = encode_message(&BgpMessage::Update(update.clone()), cfg) {
            prop_assert_eq!(bytes.capacity(), bytes.len());
            let (decoded, _) = decode_message(&bytes, cfg).unwrap();
            prop_assert_eq!(decoded, BgpMessage::Update(update));
        }
    }

    /// Prepend increases hop count by exactly n and preserves the origin.
    #[test]
    fn prepend_algebra(mut path in arb_as_path(), asn in arb_asn(), n in 0usize..6) {
        let before_len = path.hop_count();
        let before_origin = path.origin_as();
        path.prepend(asn, n);
        prop_assert_eq!(path.hop_count(), before_len + n as u32);
        if n > 0 {
            prop_assert_eq!(path.first_as(), Some(asn));
            prop_assert!(path.contains(asn));
        }
        if before_origin.is_some() {
            prop_assert_eq!(path.origin_as(), before_origin);
        }
    }

    /// strip_private removes exactly the private ASNs.
    #[test]
    fn strip_private_is_exact(asns in proptest::collection::vec(prop_oneof![
        (1u32..60_000).prop_map(Asn),
        (64512u32..65535).prop_map(Asn),
    ], 0..12)) {
        let mut path = AsPath::from_asns(&asns);
        path.strip_private();
        let expect: Vec<Asn> = asns.iter().copied().filter(|a| !a.is_private()).collect();
        let got: Vec<Asn> = path.asns().collect();
        prop_assert_eq!(got, expect);
    }

    /// The decision process is a total order: antisymmetric and
    /// transitive over arbitrary route triples.
    #[test]
    fn decision_is_a_total_order(a in arb_route(), b in arb_route(), c in arb_route()) {
        let cfg = DecisionConfig::default();
        // Antisymmetry.
        prop_assert_eq!(compare_routes(&a, &b, &cfg), compare_routes(&b, &a, &cfg).reverse());
        // Reflexivity.
        prop_assert_eq!(compare_routes(&a, &a, &cfg), Ordering::Equal);
        // Transitivity of strict preference.
        if compare_routes(&a, &b, &cfg) == Ordering::Greater
            && compare_routes(&b, &c, &cfg) == Ordering::Greater
        {
            prop_assert_eq!(compare_routes(&a, &c, &cfg), Ordering::Greater);
        }
    }

    /// Damping penalties decay monotonically and suppression always ends.
    #[test]
    fn damping_decays_to_release(flaps in 1usize..20, gap_s in 1u64..600) {
        let cfg = DampingConfig::default();
        let mut d = DampingState::new();
        let p = Prefix::v4(184, 164, 224, 0, 24);
        let mut now = SimTime::ZERO;
        for _ in 0..flaps {
            now += SimDuration::from_secs(gap_s);
            d.on_withdraw(p, now, &cfg);
        }
        let p1 = d.penalty(&p, now, &cfg);
        let later = now + SimDuration::from_secs(3600);
        let p2 = d.penalty(&p, later, &cfg);
        prop_assert!(p2 <= p1, "penalty must not grow while idle");
        prop_assert!(p1 <= cfg.max_penalty + 1e-6);
        // 30 half-lives later everything is released.
        let distant = now + cfg.half_life * 30;
        prop_assert!(!d.is_suppressed(&p, distant, &cfg));
    }

    /// The decoder never panics, whatever bytes arrive from the peer —
    /// it returns a message or a structured error.
    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_message(&bytes, WireConfig::default());
        let _ = decode_message(&bytes, WireConfig { add_path: true });
    }

    /// Flipping any single byte of a valid message either still decodes
    /// (to something) or errors — never panics, never reads past the end.
    #[test]
    fn decoder_survives_single_byte_corruption(update in arb_update(), pos in any::<usize>(), val in any::<u8>()) {
        let cfg = WireConfig::default();
        if let Ok(mut bytes) = encode_message(&BgpMessage::Update(update), cfg) {
            let idx = pos % bytes.len();
            bytes[idx] = val;
            let _ = decode_message(&bytes, cfg);
        }
    }

    /// Two speakers driven by a random announce/withdraw script end up
    /// consistent: the receiver's Loc-RIB holds exactly the sender's
    /// surviving originations, each with the sender's ASN as the path.
    #[test]
    fn speakers_converge_on_random_scripts(script in proptest::collection::vec(
        (0u8..200, any::<bool>()), 1..60)) {
        use peering_bgp::{PeerConfig, Speaker, SpeakerConfig};
        let mut a = Speaker::new(SpeakerConfig::new(Asn(100), Ipv4Addr::new(10, 0, 0, 1)));
        a.add_peer(PeerConfig::new(PeerId(0), Asn(200)));
        let mut b = Speaker::new(SpeakerConfig::new(Asn(200), Ipv4Addr::new(10, 0, 0, 2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(100)).passive());
        // Handshake.
        let mut to_b: Vec<BgpMessage> = a
            .start_peer(PeerId(0), SimTime::ZERO)
            .into_iter()
            .filter_map(|o| match o {
                peering_bgp::Output::Send(_, m) => Some(m),
                _ => None,
            })
            .collect();
        b.start_peer(PeerId(0), SimTime::ZERO);
        for _ in 0..8 {
            let mut to_a = Vec::new();
            for m in to_b.drain(..) {
                for o in b.on_message(PeerId(0), m, SimTime::ZERO) {
                    if let peering_bgp::Output::Send(_, msg) = o {
                        to_a.push(msg);
                    }
                }
            }
            if to_a.is_empty() {
                break;
            }
            for m in to_a {
                for o in a.on_message(PeerId(0), m, SimTime::ZERO) {
                    if let peering_bgp::Output::Send(_, msg) = o {
                        to_b.push(msg);
                    }
                }
            }
        }
        prop_assume!(a.peer_established(PeerId(0)) && b.peer_established(PeerId(0)));
        // Apply the script, forwarding every message.
        let mut live = std::collections::BTreeSet::new();
        for (i, (slot, announce)) in script.iter().enumerate() {
            let p = Prefix::v4(10, 77, *slot, 0, 24);
            let now = SimTime::from_secs(i as u64 + 1);
            let outs = if *announce {
                live.insert(p);
                a.originate(p, now)
            } else {
                live.remove(&p);
                a.withdraw_origin(p, now)
            };
            for o in outs {
                if let peering_bgp::Output::Send(_, m) = o {
                    b.on_message(PeerId(0), m, now);
                }
            }
        }
        prop_assert_eq!(b.loc_rib().len(), live.len());
        for p in &live {
            let r = b.loc_rib().get(p).expect("live prefix present");
            prop_assert_eq!(r.attrs.as_path.to_string(), "100");
        }
    }

    /// Nested `Not`/`All`/`AnyOf` combinators obey Boolean laws on
    /// arbitrary match trees: double negation, De Morgan both ways, and
    /// `Not` as complement — whatever the nesting depth.
    #[test]
    fn match_combinators_obey_boolean_laws(ops in proptest::collection::vec(any::<u8>(), 0..24),
                                           ops2 in proptest::collection::vec(any::<u8>(), 0..24),
                                           prefix in arb_prefix(),
                                           attrs in arb_attrs()) {
        let m1 = decode_match(&ops);
        let m2 = decode_match(&ops2);
        let v1 = m1.matches(&prefix, &attrs);
        let v2 = m2.matches(&prefix, &attrs);
        // Not is complement; double negation is identity.
        let not1 = Match::Not(Box::new(m1.clone()));
        prop_assert_eq!(not1.matches(&prefix, &attrs), !v1);
        let notnot = Match::Not(Box::new(not1.clone()));
        prop_assert_eq!(notnot.matches(&prefix, &attrs), v1);
        // All is conjunction, AnyOf is disjunction.
        prop_assert_eq!(Match::All(vec![m1.clone(), m2.clone()]).matches(&prefix, &attrs), v1 && v2);
        prop_assert_eq!(Match::AnyOf(vec![m1.clone(), m2.clone()]).matches(&prefix, &attrs), v1 || v2);
        // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b and ¬(a ∨ b) = ¬a ∧ ¬b.
        let lhs = Match::Not(Box::new(Match::All(vec![m1.clone(), m2.clone()])));
        let rhs = Match::AnyOf(vec![
            Match::Not(Box::new(m1.clone())),
            Match::Not(Box::new(m2.clone())),
        ]);
        prop_assert_eq!(lhs.matches(&prefix, &attrs), rhs.matches(&prefix, &attrs));
        let lhs2 = Match::Not(Box::new(Match::AnyOf(vec![m1.clone(), m2.clone()])));
        let rhs2 = Match::All(vec![
            Match::Not(Box::new(m1)),
            Match::Not(Box::new(m2)),
        ]);
        prop_assert_eq!(lhs2.matches(&prefix, &attrs), rhs2.matches(&prefix, &attrs));
        // Identity elements: All([]) is true, AnyOf([]) is false.
        prop_assert!(Match::All(vec![]).matches(&prefix, &attrs));
        prop_assert!(!Match::AnyOf(vec![]).matches(&prefix, &attrs));
    }

    /// Rule shadowing is order-dependent: against a reference "first
    /// matching terminal rule wins" evaluator, the policy engine agrees
    /// for any rule list — and swapping two overlapping rules with
    /// opposite verdicts flips the outcome exactly on their overlap.
    #[test]
    fn rule_order_is_first_match_wins(rules in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..16), any::<bool>()), 0..6),
        prefix in arb_prefix(),
        attrs in arb_attrs(),
        default_accept in any::<bool>()) {
        use peering_bgp::{Action, DefaultVerdict, Policy};
        let mut policy = Policy::accept_all().default_verdict(
            if default_accept { DefaultVerdict::Accept } else { DefaultVerdict::Reject });
        let mut decoded = Vec::new();
        for (ops, accept) in &rules {
            let m = decode_match(ops);
            let action = if *accept { Action::Accept } else { Action::Reject };
            policy = policy.rule(m.clone(), vec![action]);
            decoded.push((m, *accept));
        }
        // Reference semantics.
        let expect = decoded
            .iter()
            .find(|(m, _)| m.matches(&prefix, &attrs))
            .map(|(_, accept)| *accept)
            .unwrap_or(default_accept);
        let mut scratch = attrs.clone();
        prop_assert_eq!(policy.apply(&prefix, &mut scratch), expect);
        // Order dependence on the overlap: a later opposite-verdict rule
        // matching the same input never wins...
        if let Some((first, accept)) = decoded.first() {
            if first.matches(&prefix, &attrs) {
                let shadowed = Policy::accept_all()
                    .default_verdict(policy.default)
                    .rule(first.clone(), vec![if *accept { Action::Accept } else { Action::Reject }])
                    .rule(first.clone(), vec![if *accept { Action::Reject } else { Action::Accept }]);
                let mut s = attrs.clone();
                prop_assert_eq!(shadowed.apply(&prefix, &mut s), *accept);
                // ...but leading with the opposite rule flips the result.
                let flipped = Policy::accept_all()
                    .default_verdict(policy.default)
                    .rule(first.clone(), vec![if *accept { Action::Reject } else { Action::Accept }])
                    .rule(first.clone(), vec![if *accept { Action::Accept } else { Action::Reject }]);
                let mut s2 = attrs.clone();
                prop_assert_eq!(flipped.apply(&prefix, &mut s2), !*accept);
            }
        }
    }

    /// An empty `PrefixIn` (or `PrefixExact`) never matches anything,
    /// and a policy gated on one is inert: it behaves exactly like its
    /// default verdict.
    #[test]
    fn empty_prefix_lists_never_match(prefix in arb_prefix(), attrs in arb_attrs()) {
        use peering_bgp::{Action, Policy};
        prop_assert!(!Match::PrefixIn(vec![]).matches(&prefix, &attrs));
        prop_assert!(!Match::PrefixExact(vec![]).matches(&prefix, &attrs));
        // Negation makes them vacuously true.
        prop_assert!(Match::Not(Box::new(Match::PrefixIn(vec![]))).matches(&prefix, &attrs));
        let inert = Policy::accept_all().rule(Match::PrefixIn(vec![]), vec![Action::Reject]);
        let mut a = attrs.clone();
        prop_assert!(inert.apply(&prefix, &mut a));
        let inert_reject = Policy::reject_all().rule(Match::PrefixIn(vec![]), vec![Action::Accept]);
        let mut b = attrs.clone();
        prop_assert!(!inert_reject.apply(&prefix, &mut b));
    }

    /// Community set operations behave like a set.
    #[test]
    fn communities_are_a_sorted_set(values in proptest::collection::vec(any::<u32>(), 0..20)) {
        let mut attrs = PathAttributes::default();
        for v in &values {
            attrs.add_community(Community(*v));
        }
        let mut expect: Vec<u32> = values.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<u32> = attrs.communities.iter().map(|c| c.0).collect();
        prop_assert_eq!(got, expect);
        for v in &values {
            prop_assert!(attrs.has_community(Community(*v)));
            attrs.remove_community(Community(*v));
            prop_assert!(!attrs.has_community(Community(*v)));
        }
        prop_assert!(attrs.communities.is_empty());
    }
}
