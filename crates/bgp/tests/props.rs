//! Property tests for the BGP implementation: codec inversions, AS-path
//! algebra, decision-process order laws, damping monotonicity, the
//! quiet-tick contract of `Speaker::timers_due`, and the Adj-RIB against a
//! flat-map model.

use peering_bgp::damping::{DampingConfig, DampingState};
use peering_bgp::rib::AdjRib;
use peering_bgp::wire::{decode_message, encode_message, encode_update_chunked, WireConfig};
use peering_bgp::{
    compare_routes, AsPath, BgpMessage, Community, ConnectRetryConfig, DecisionConfig, Input,
    Match, MaxPrefixConfig, Nlri, OpenMessage, Origin, Output, PathAttributes, PeerConfig, PeerId,
    Prefix, Route, RouteSource, Speaker, SpeakerConfig, UpdateMessage,
};
use peering_netsim::{Asn, Ipv4Net, SimDuration, SimRng, SimTime};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;
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
        let mut a = Speaker::new(SpeakerConfig::new(Asn(100), Ipv4Addr::new(10, 0, 0, 1)));
        a.add_peer(PeerConfig::new(PeerId(0), Asn(200))).expect("peer ids are distinct");
        let mut b = Speaker::new(SpeakerConfig::new(Asn(200), Ipv4Addr::new(10, 0, 0, 2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(100)).passive()).expect("peer ids are distinct");
        // Handshake: what each end sends goes to the other until both
        // are quiet.
        let sent = |outs: Vec<Output>| {
            let message = |o| match o {
                Output::Send(_, m) => Some(Input::Message(PeerId(0), m)),
                Output::Event(_) => None,
            };
            outs.into_iter().filter_map(message).collect::<Vec<_>>()
        };
        b.apply(Input::StartPeer(PeerId(0)), SimTime::ZERO, &mut Vec::new());
        let mut to_b = Vec::new();
        a.apply(Input::StartPeer(PeerId(0)), SimTime::ZERO, &mut to_b);
        for _ in 0..8 {
            let mut to_a = Vec::new();
            for input in sent(std::mem::take(&mut to_b)) {
                b.apply(input, SimTime::ZERO, &mut to_a);
            }
            for input in sent(to_a) {
                a.apply(input, SimTime::ZERO, &mut to_b);
            }
        }
        prop_assume!(a.peer_established(PeerId(0)) && b.peer_established(PeerId(0)));
        // Apply the script, forwarding every message.
        let mut live = std::collections::BTreeSet::new();
        for (i, (slot, announce)) in script.iter().enumerate() {
            let p = Prefix::v4(10, 77, *slot, 0, 24);
            let now = SimTime::from_secs(i as u64 + 1);
            let input = if *announce {
                live.insert(p);
                Input::Originate(p, Vec::new())
            } else {
                live.remove(&p);
                Input::WithdrawOrigin(p)
            };
            let mut outs = Vec::new();
            a.apply(input, now, &mut outs);
            for input in sent(outs) {
                b.apply(input, now, &mut Vec::new());
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

    /// `timers_due` may say "nothing due" only where `tick` is a no-op:
    /// seeded session/route scripts under every mix of MRAI, damping and
    /// graceful restart.
    #[test]
    fn ticks_with_nothing_due_are_no_ops(seed in any::<u64>(), mrai in 0usize..3,
                                         damping in any::<bool>(), graceful_restart in any::<bool>()) {
        let mrai = [None, Some(SimDuration::from_millis(300)), Some(SimDuration::from_millis(1500))][mrai];
        let rig = TimerRig { mrai, damping, graceful_restart };
        if let Err(e) = run_timer_script(seed, rig, rig) {
            prop_assert!(false, "{e}");
        }
    }
}

/// The timer script's peers: a feeder with graceful restart (the active
/// end), a passive feeder capped at three prefixes with a 7 s idle hold,
/// and a listener that only receives exports.
const GR_FEEDER: PeerId = PeerId(1);
const CAPPED_FEEDER: PeerId = PeerId(2);
const LISTENER: PeerId = PeerId(3);

/// What a timer script's speaker is built with.
#[derive(Debug, Clone, Copy)]
struct TimerRig {
    mrai: Option<SimDuration>,
    /// Damping with a 20 s half-life, so suppressions end inside a script.
    damping: bool,
    /// Graceful restart toward [`GR_FEEDER`].
    graceful_restart: bool,
}

impl TimerRig {
    fn speaker(self, seed: u64) -> Speaker {
        let mut cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1))
            .with_connect_retry(ConnectRetryConfig::new(seed));
        cfg.mrai = self.mrai;
        if self.damping {
            cfg = cfg.with_damping(DampingConfig {
                half_life: SimDuration::from_secs(20),
                ..DampingConfig::default()
            });
        }
        let mut s = Speaker::new(cfg);
        let mut gr = PeerConfig::new(GR_FEEDER, Asn(100));
        if self.graceful_restart {
            gr = gr.graceful_restart(SimDuration::from_secs(15));
        }
        s.add_peer(gr).expect("peer ids are distinct");
        let cap = MaxPrefixConfig::new(3).idle_hold(SimDuration::from_secs(7));
        s.add_peer(
            PeerConfig::new(CAPPED_FEEDER, Asn(200))
                .passive()
                .with_max_prefix(cap),
        )
        .expect("peer ids are distinct");
        s.add_peer(PeerConfig::new(LISTENER, Asn(300)))
            .expect("peer ids are distinct");
        s
    }
}

/// One scripted operation; the far ends are played by the script.
#[derive(Debug, Clone)]
enum TimerOp {
    /// Start the session, then OPEN (offering this hold time) and
    /// KEEPALIVE from the peer.
    Up(PeerId, u16),
    Keepalive(PeerId),
    Announce(PeerId, Vec<u8>, bool),
    Withdraw(PeerId, Vec<u8>),
    /// The graceful-restart feeder's End-of-RIB.
    EndOfRib,
    Reset(PeerId),
    Originate(u8),
    WithdrawOrigin(u8),
    Restart,
}

fn timer_prefix(n: u8) -> Prefix {
    Prefix::v4(10, n, 0, 0, 16)
}

/// An announcement from peer `from` of `s`, directly or through AS 901.
fn timer_update(s: &Speaker, from: PeerId, prefixes: &[u8], long: bool) -> BgpMessage {
    let asn = s.peer_asn(from).expect("scripted peer");
    let path = if long { vec![asn, Asn(901)] } else { vec![asn] };
    let attrs = PathAttributes {
        as_path: AsPath::from_asns(&path),
        next_hop: Ipv4Addr::new(192, 0, 2, from.0 as u8),
        ..Default::default()
    };
    let nlri = prefixes
        .iter()
        .map(|n| Nlri::plain(timer_prefix(*n)))
        .collect();
    BgpMessage::Update(UpdateMessage::announce(Arc::new(attrs), nlri))
}

impl TimerOp {
    fn random(rng: &mut SimRng, s: &Speaker) -> TimerOp {
        let peers = [GR_FEEDER, CAPPED_FEEDER, LISTENER];
        let feeders: Vec<PeerId> = [GR_FEEDER, CAPPED_FEEDER]
            .into_iter()
            .filter(|p| s.peer_established(*p))
            .collect();
        let some = |rng: &mut SimRng| -> Vec<u8> {
            let count = 1 + rng.index(3);
            let picked = rng.distinct_indices(6, count);
            picked.into_iter().map(|n| n as u8).collect()
        };
        let peer = *rng.pick(&peers).expect("non-empty");
        match rng.index(16) {
            0..=2 if !s.peer_established(peer) => TimerOp::Up(peer, [0, 9, 30][rng.index(3)]),
            3 | 4 => TimerOp::Keepalive(peer),
            5..=7 if !feeders.is_empty() => {
                let from = *rng.pick(&feeders).expect("non-empty");
                TimerOp::Announce(from, some(rng), rng.chance(0.5))
            }
            8 | 9 if !feeders.is_empty() => {
                TimerOp::Withdraw(*rng.pick(&feeders).expect("non-empty"), some(rng))
            }
            10 => TimerOp::EndOfRib,
            11 => TimerOp::Reset(peer),
            // The capped feeder offers one prefix too many.
            12 if s.peer_established(CAPPED_FEEDER) => {
                TimerOp::Announce(CAPPED_FEEDER, vec![0, 1, 2, 3], false)
            }
            13 => TimerOp::Originate(100 + rng.index(3) as u8),
            14 => TimerOp::WithdrawOrigin(100 + rng.index(3) as u8),
            15 if rng.chance(0.3) => TimerOp::Restart,
            _ => TimerOp::Keepalive(peer),
        }
    }

    /// What `s` is fed; the far ends are played by the script.
    fn inputs(&self, s: &Speaker) -> Vec<Input> {
        let update = |from, msg| vec![Input::Message(from, BgpMessage::Update(msg))];
        match self {
            TimerOp::Up(peer, hold) => {
                let asn = s.peer_asn(*peer).expect("scripted peer");
                let mut open = OpenMessage::new(asn, *hold, Ipv4Addr::new(192, 0, 2, peer.0 as u8));
                if *peer == GR_FEEDER {
                    open = open.with_graceful_restart(15);
                }
                vec![
                    Input::StartPeer(*peer),
                    Input::Message(*peer, BgpMessage::Open(open)),
                    Input::Message(*peer, BgpMessage::Keepalive),
                ]
            }
            TimerOp::Keepalive(peer) => vec![Input::Message(*peer, BgpMessage::Keepalive)],
            TimerOp::Announce(from, prefixes, long) => {
                vec![Input::Message(
                    *from,
                    timer_update(s, *from, prefixes, *long),
                )]
            }
            TimerOp::Withdraw(from, prefixes) => {
                let nlri = prefixes.iter().map(|n| Nlri::plain(timer_prefix(*n)));
                update(*from, UpdateMessage::withdraw(nlri.collect()))
            }
            TimerOp::EndOfRib => update(GR_FEEDER, UpdateMessage::withdraw(Vec::new())),
            TimerOp::Reset(peer) => vec![Input::ResetPeer(*peer)],
            TimerOp::Originate(n) => vec![Input::Originate(timer_prefix(*n), Vec::new())],
            TimerOp::WithdrawOrigin(n) => vec![Input::WithdrawOrigin(timer_prefix(*n))],
            TimerOp::Restart => vec![Input::Restart],
        }
    }
}

/// How often a script probed a quiet instant, and a busy one.
#[derive(Debug, Default)]
struct TickProbes {
    /// `timers_due` was false (and `tick` then did nothing).
    quiet: usize,
    /// `timers_due` was true and `tick` produced output.
    busy: usize,
}

/// Drive a seeded script through a speaker built from `rig`, probing
/// `tick` a few times between operations, each probe up to 1.5 s after
/// the last (a host that ticks about once a second). At every probe the
/// predicate is `timers_due` of a second speaker built from `judge` and
/// fed the same script — the speaker itself when `judge == rig` — and
/// where it says nothing is due, `tick` must return no outputs and leave
/// `next_deadline()` and the Loc-RIB as they were. Both speakers' invariants
/// — among them timer index ≡ a scan of every peer — are checked after
/// every operation and every tick, in every build profile.
fn run_timer_script(seed: u64, rig: TimerRig, judge: TimerRig) -> Result<TickProbes, String> {
    let mut rng = SimRng::new(seed);
    let (mut s, mut j) = (rig.speaker(seed), judge.speaker(seed));
    let mut now = SimTime::ZERO;
    let mut probes = TickProbes::default();
    for step in 0..60 {
        let op = TimerOp::random(&mut rng, &s);
        for input in op.inputs(&s) {
            s.apply(input.clone(), now, &mut Vec::new());
            j.apply(input, now, &mut Vec::new());
        }
        let check = |s: &Speaker, at: &str| {
            s.check_invariants()
                .map_err(|e| format!("seed {seed} step {step} ({op:?}) {at}: {e}"))
        };
        check(&s, "after the op")?;
        check(&j, "judge after the op")?;
        for _ in 0..1 + rng.index(4) {
            now += SimDuration::from_millis(50 + rng.below(1450));
            let due = j.timers_due(now);
            let before = (
                s.next_deadline(),
                s.loc_rib().iter().cloned().collect::<Vec<_>>(),
            );
            let mut out = Vec::new();
            s.apply(Input::Tick, now, &mut out);
            j.apply(Input::Tick, now, &mut Vec::new());
            check(&s, "after a tick")?;
            check(&j, "judge after a tick")?;
            if due {
                probes.busy += usize::from(!out.is_empty());
                continue;
            }
            probes.quiet += 1;
            let after = (
                s.next_deadline(),
                s.loc_rib().iter().cloned().collect::<Vec<_>>(),
            );
            if !out.is_empty() || after != before {
                return Err(format!(
                    "seed {seed} step {step} ({op:?}): tick at {now:?} with nothing due \
                     returned {out:?}; next deadline {:?} -> {:?}, Loc-RIB {} -> {} routes",
                    before.0,
                    after.0,
                    before.1.len(),
                    after.1.len()
                ));
            }
        }
        // Now and then a long quiet stretch, so hold, idle-hold,
        // restart and damping timers run out between two probes.
        if rng.chance(0.1) {
            now += SimDuration::from_secs(5 + rng.below(30));
        }
    }
    Ok(probes)
}

/// The contract above can fail. A predicate blind to one timer class — a
/// speaker fed the same script but built without MRAI, or without
/// graceful restart, judging for one built with it — lets `tick` act
/// where "nothing is due" was claimed, and the script notices.
#[test]
fn quiet_tick_contract_catches_a_blind_predicate() {
    let full = TimerRig {
        mrai: Some(SimDuration::from_millis(300)),
        damping: false,
        graceful_restart: true,
    };
    let mut probes = TickProbes::default();
    for seed in 0..32 {
        let run = run_timer_script(seed, full, full).expect("the real predicate holds");
        probes.quiet += run.quiet;
        probes.busy += run.busy;
    }
    assert!(
        probes.quiet > 0 && probes.busy > 0,
        "scripts probe both quiet and busy instants: {probes:?}"
    );
    let caught = |rig: TimerRig, judge: TimerRig| {
        (0..32).any(|seed| run_timer_script(seed, rig, judge).is_err())
    };
    let blind_to_mrai = TimerRig { mrai: None, ..full };
    assert!(caught(full, blind_to_mrai), "ignoring the MRAI deadline");
    let immediate = TimerRig { mrai: None, ..full };
    let blind_to_stale = TimerRig {
        graceful_restart: false,
        ..immediate
    };
    assert!(
        caught(immediate, blind_to_stale),
        "ignoring the graceful-restart deadline"
    );
}

/// One step of an Adj-RIB script. Prefix slots and path ids come from
/// small ranges so steps collide on the same entries, and path ids arrive
/// in any order; `tag` tells a replacement from the route it replaced.
#[derive(Debug, Clone)]
enum RibOp {
    Insert { slot: u8, path_id: u32, tag: u32 },
    Remove { slot: u8, path_id: u32 },
    RemovePrefix { slot: u8 },
    SetPrefix { slot: u8, paths: Vec<(u32, u32)> },
    Clear,
}

const RIB_SLOTS: u8 = 4;
const RIB_PATH_IDS: u32 = 4;

fn arb_rib_op() -> impl Strategy<Value = RibOp> {
    (
        0u8..12,
        0..RIB_SLOTS,
        0..RIB_PATH_IDS,
        0u32..1_000,
        proptest::collection::vec((0..RIB_PATH_IDS, 0u32..1_000), 0..4),
    )
        .prop_map(|(kind, slot, path_id, tag, paths)| match kind {
            0..=4 => RibOp::Insert { slot, path_id, tag },
            5..=7 => RibOp::Remove { slot, path_id },
            8 => RibOp::RemovePrefix { slot },
            9 | 10 => RibOp::SetPrefix { slot, paths },
            _ => RibOp::Clear,
        })
}

fn rib_prefix(slot: u8) -> Prefix {
    Prefix::v4(10, slot, 0, 0, 24)
}

fn rib_route(slot: u8, path_id: u32, tag: u32) -> Route {
    Route {
        prefix: rib_prefix(slot),
        attrs: Arc::new(PathAttributes::default()),
        peer: PeerId(1),
        path_id,
        source: RouteSource::Ebgp,
        igp_cost: tag,
        learned_at: SimTime::ZERO,
        trace: None,
    }
}

/// What a route is to the model: its key and the tag it was stored with.
fn rib_key(r: &Route) -> (Prefix, u32, u32) {
    (r.prefix, r.path_id, r.igp_cost)
}

proptest! {
    /// `AdjRib` behaves as a flat map keyed by (prefix, path id) under
    /// random scripts of every mutator: each returns what the model
    /// returns, and after every step iteration order, counts, per-prefix
    /// paths and point lookups agree, and the table's own invariants hold.
    #[test]
    fn adj_rib_matches_a_flat_map_model(script in proptest::collection::vec(arb_rib_op(), 1..60)) {
        let mut rib = AdjRib::new();
        let mut model: BTreeMap<(Prefix, u32), Route> = BTreeMap::new();
        for op in &script {
            match op {
                RibOp::Insert { slot, path_id, tag } => {
                    let r = rib_route(*slot, *path_id, *tag);
                    let want = model.insert((r.prefix, r.path_id), r.clone());
                    prop_assert_eq!(rib.insert(r).map(|o| rib_key(&o)), want.map(|o| rib_key(&o)));
                }
                RibOp::Remove { slot, path_id } => {
                    let p = rib_prefix(*slot);
                    let want = model.remove(&(p, *path_id));
                    prop_assert_eq!(rib.remove(&p, *path_id).map(|o| rib_key(&o)), want.map(|o| rib_key(&o)));
                }
                RibOp::RemovePrefix { slot } => {
                    let p = rib_prefix(*slot);
                    let want: Vec<_> = model.range((p, 0)..=(p, u32::MAX)).map(|(_, r)| rib_key(r)).collect();
                    model.retain(|(q, _), _| *q != p);
                    let got: Vec<_> = rib.remove_prefix(&p).iter().map(rib_key).collect();
                    prop_assert_eq!(got, want);
                }
                RibOp::SetPrefix { slot, paths } => {
                    let p = rib_prefix(*slot);
                    let routes: Vec<Route> = paths.iter().map(|&(id, tag)| rib_route(*slot, id, tag)).collect();
                    model.retain(|(q, _), _| *q != p);
                    for r in &routes {
                        model.insert((p, r.path_id), r.clone());
                    }
                    rib.set_prefix(&p, routes.iter());
                }
                RibOp::Clear => {
                    let mut want: Vec<Prefix> = model.keys().map(|(p, _)| *p).collect();
                    want.dedup();
                    model.clear();
                    prop_assert_eq!(rib.clear(), want);
                }
            }
            prop_assert_eq!(rib.check_invariants(), Ok(()), "after {:?}", op);
            let got: Vec<_> = rib.iter().map(rib_key).collect();
            let want: Vec<_> = model.values().map(rib_key).collect();
            prop_assert_eq!(got, want, "iteration order after {:?}", op);
            prop_assert_eq!(rib.len(), model.len());
            let mut held: Vec<Prefix> = model.keys().map(|(p, _)| *p).collect();
            held.dedup();
            prop_assert_eq!(rib.prefix_count(), held.len());
            prop_assert_eq!(rib.prefixes().copied().collect::<Vec<_>>(), held);
            for slot in 0..RIB_SLOTS {
                let p = rib_prefix(slot);
                let got: Vec<_> = rib.paths(&p).map(rib_key).collect();
                let want: Vec<_> = model.range((p, 0)..=(p, u32::MAX)).map(|(_, r)| rib_key(r)).collect();
                prop_assert_eq!(got, want, "paths of {} after {:?}", p, op);
                for path_id in 0..RIB_PATH_IDS {
                    prop_assert_eq!(
                        rib.get(&p, path_id).map(rib_key),
                        model.get(&(p, path_id)).map(rib_key)
                    );
                }
            }
        }
    }
}
