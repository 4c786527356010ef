//! Wire-codec fuzzing: round-trips for every message type plus a corpus
//! of hand-crafted malformed inputs.
//!
//! `props.rs` already covers UPDATE round-trips and pure-garbage inputs;
//! this file adds the remaining message types (OPEN with its capability
//! combinations, NOTIFICATION, KEEPALIVE, ROUTE-REFRESH), systematic
//! truncation, and the classic decoder landmines: bad markers, overlong
//! AS_PATH segment claims, and degenerate NLRI lengths. The invariant
//! throughout: `decode_message` returns `Err` on bad input — it never
//! panics and never reads out of bounds.

use peering_bgp::wire::{
    decode_message, decode_update_revised, encode_message, treatment_for_attr, ErrorTreatment,
    WireConfig, MAX_MESSAGE,
};
use peering_bgp::{
    AsPath, AsPathSegment, Asn, BgpMessage, Capability, Community, Ipv4Net, Ipv6Net, Nlri,
    NotifCode, NotificationMessage, OpenMessage, Origin, PathAttributes, Prefix, UpdateMessage,
};
use proptest::prelude::*;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

fn arb_hold_time() -> impl Strategy<Value = u16> {
    // RFC 4271 forbids hold times 1 and 2; the decoder enforces it.
    prop_oneof![Just(0u16), 3u16..=u16::MAX]
}

fn arb_open() -> impl Strategy<Value = OpenMessage> {
    (
        // Straddle the 2-byte boundary: 4-octet ASNs exercise AS_TRANS.
        prop_oneof![1u32..65_536, 65_536u32..4_000_000_000],
        arb_hold_time(),
        any::<u32>(),
        any::<bool>(),
        any::<bool>(),
        // Restart time rides a 12-bit field (RFC 4724); the codec masks
        // anything larger, so only in-range values round-trip losslessly.
        proptest::option::of(0u16..=0x0FFF),
    )
        .prop_map(|(asn, hold, rid, ap_send, ap_recv, gr)| {
            let mut open = OpenMessage::new(Asn(asn), hold, Ipv4Addr::from(rid));
            if ap_send || ap_recv {
                open = open.with_add_path(ap_send, ap_recv);
            }
            if let Some(secs) = gr {
                open = open.with_graceful_restart(secs);
            }
            open
        })
}

fn arb_notification() -> impl Strategy<Value = NotificationMessage> {
    (
        prop_oneof![
            Just(NotifCode::MessageHeaderError),
            Just(NotifCode::OpenMessageError),
            Just(NotifCode::UpdateMessageError),
            Just(NotifCode::HoldTimerExpired),
            Just(NotifCode::FsmError),
            Just(NotifCode::Cease),
        ],
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(code, subcode, data)| NotificationMessage {
            code,
            subcode,
            data,
        })
}

fn arb_capability() -> impl Strategy<Value = Capability> {
    prop_oneof![
        Just(Capability::MpIpv4Unicast),
        Just(Capability::MpIpv6Unicast),
        Just(Capability::RouteRefresh),
        any::<u32>().prop_map(|a| Capability::FourOctetAsn(Asn(a))),
        (any::<bool>(), any::<bool>())
            .prop_map(|(send, receive)| Capability::AddPathIpv4 { send, receive }),
        any::<u16>().prop_map(|restart_time_s| Capability::GracefulRestart { restart_time_s }),
    ]
}

fn arb_nlri() -> impl Strategy<Value = Nlri> {
    let prefix = prop_oneof![
        (any::<u32>(), 0u8..=32).prop_map(|(a, l)| Prefix::V4(Ipv4Net::new(Ipv4Addr::from(a), l))),
        (any::<u64>(), any::<u64>(), 0u8..=128).prop_map(|(hi, lo, l)| {
            let addr = Ipv6Addr::from(u128::from(hi) << 64 | u128::from(lo));
            Prefix::V6(Ipv6Net::new(addr, l))
        }),
    ];
    (prefix, proptest::option::of(any::<u32>()))
        .prop_map(|(prefix, path_id)| Nlri { prefix, path_id })
}

/// Attributes up to and past what one message can carry: long paths of
/// both segment kinds, many communities, every optional attribute.
fn arb_large_attrs() -> impl Strategy<Value = PathAttributes> {
    let segment = (
        any::<bool>(),
        proptest::collection::vec(any::<u32>(), 0..700),
    )
        .prop_map(|(set, asns)| {
            let asns = asns.into_iter().map(Asn).collect();
            if set {
                AsPathSegment::Set(asns)
            } else {
                AsPathSegment::Sequence(asns)
            }
        });
    (
        proptest::collection::vec(segment, 0..3),
        any::<u32>(),
        proptest::option::of(any::<u32>()),
        proptest::option::of(any::<u32>()),
        any::<bool>(),
        proptest::option::of((any::<u32>(), any::<u32>())),
        proptest::collection::vec(any::<u32>(), 0..80),
    )
        .prop_map(
            |(segments, nh, med, local_pref, atomic_aggregate, aggregator, communities)| {
                PathAttributes {
                    origin: Origin::Incomplete,
                    as_path: AsPath { segments },
                    next_hop: Ipv4Addr::from(nh),
                    med,
                    local_pref,
                    atomic_aggregate,
                    aggregator: aggregator.map(|(a, ip)| (Asn(a), Ipv4Addr::from(ip))),
                    communities: communities.into_iter().map(Community).collect(),
                }
            },
        )
}

/// Any message, sized from empty to several times [`MAX_MESSAGE`].
fn arb_message() -> impl Strategy<Value = BgpMessage> {
    prop_oneof![
        (
            arb_open(),
            proptest::collection::vec(arb_capability(), 0..80)
        )
            .prop_map(|(mut open, caps)| {
                open.capabilities.extend(caps);
                BgpMessage::Open(open)
            }),
        (arb_notification(), 0usize..5_000).prop_map(|(mut n, len)| {
            n.data.resize(len, 0xA5);
            BgpMessage::Notification(n)
        }),
        (
            proptest::collection::vec(arb_nlri(), 0..400),
            proptest::option::of(arb_large_attrs()),
            proptest::collection::vec(arb_nlri(), 0..400),
        )
            .prop_map(|(withdrawn, attrs, announced)| {
                BgpMessage::Update(UpdateMessage {
                    withdrawn,
                    attrs: attrs.map(Arc::new),
                    announced,
                    trace: None,
                })
            }),
        Just(BgpMessage::Keepalive),
        Just(BgpMessage::RouteRefresh),
    ]
}

proptest! {
    /// The encoder's contract with its own decoder: whatever it accepts
    /// to encode, it frames so that `decode_message` reads back exactly
    /// that many bytes — in one buffer of exactly that size. Oversized
    /// input must be an `Err`, never a truncated length field.
    #[test]
    fn every_encoded_message_decodes(msg in arb_message(), add_path in any::<bool>()) {
        let cfg = WireConfig { add_path };
        if let Ok(bytes) = encode_message(&msg, cfg) {
            prop_assert!(bytes.len() <= MAX_MESSAGE);
            prop_assert_eq!(bytes.capacity(), bytes.len());
            let decoded = decode_message(&bytes, cfg);
            prop_assert!(decoded.is_ok(), "{} of {} bytes: {:?}", msg.kind(), bytes.len(), decoded);
            if let Ok((_, used)) = decoded {
                prop_assert_eq!(used, bytes.len());
            }
        }
    }

    #[test]
    fn open_roundtrips_with_all_capability_combinations(open in arb_open()) {
        let cfg = WireConfig::default();
        let bytes = encode_message(&BgpMessage::Open(open.clone()), cfg).expect("encode open");
        let (decoded, used) = decode_message(&bytes, cfg).expect("decode what we encode");
        prop_assert_eq!(used, bytes.len());
        let BgpMessage::Open(back) = decoded else {
            return Err(TestCaseError::fail("wrong message type".to_string()));
        };
        prop_assert_eq!(back.asn(), open.asn());
        prop_assert_eq!(back.hold_time, open.hold_time);
        prop_assert_eq!(back.router_id, open.router_id);
        prop_assert_eq!(back.add_path(), open.add_path());
        prop_assert_eq!(back.graceful_restart(), open.graceful_restart());
    }

    #[test]
    fn notification_roundtrips(notif in arb_notification()) {
        let cfg = WireConfig::default();
        let msg = BgpMessage::Notification(notif);
        let bytes = encode_message(&msg, cfg).expect("encode notification");
        let (decoded, used) = decode_message(&bytes, cfg).expect("decode");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn every_truncation_of_a_valid_message_errors_cleanly(open in arb_open()) {
        let cfg = WireConfig::default();
        let bytes = encode_message(&BgpMessage::Open(open), cfg).expect("encode");
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_message(&bytes[..cut], cfg).is_err(),
                "truncation to {cut}/{} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn any_marker_corruption_is_rejected(open in arb_open(), pos in 0usize..16, byte in 0u8..=0xFE) {
        let cfg = WireConfig::default();
        let mut bytes = encode_message(&BgpMessage::Open(open), cfg).expect("encode");
        bytes[pos] = byte; // anything but 0xFF
        prop_assert!(decode_message(&bytes, cfg).is_err());
    }

    #[test]
    fn random_bodies_under_a_valid_header_never_panic(
        msg_type in 0u8..8,
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = frame(msg_type, &body);
        let _ = decode_message(&bytes, WireConfig::default());
        let _ = decode_message(&bytes, WireConfig { add_path: true });
    }
}

#[test]
fn keepalive_and_route_refresh_roundtrip() {
    let cfg = WireConfig::default();
    for msg in [BgpMessage::Keepalive, BgpMessage::RouteRefresh] {
        let bytes = encode_message(&msg, cfg).expect("encode");
        let (decoded, used) = decode_message(&bytes, cfg).expect("decode");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, msg);
    }
    // A KEEPALIVE with a body is illegal.
    let bloated = frame(4, &[0]);
    assert!(decode_message(&bloated, cfg).is_err());
}

/// Wrap `body` in a syntactically valid header: all-ones marker, correct
/// length, the given type.
fn frame(msg_type: u8, body: &[u8]) -> Vec<u8> {
    let mut out = vec![0xFF; 16];
    out.extend_from_slice(&(19 + body.len() as u16).to_be_bytes());
    out.push(msg_type);
    out.extend_from_slice(body);
    out
}

/// Frame an UPDATE from raw section bytes: withdrawn routes, path
/// attributes, NLRI.
fn frame_update(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
    let mut body = (withdrawn.len() as u16).to_be_bytes().to_vec();
    body.extend_from_slice(withdrawn);
    body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    body.extend_from_slice(attrs);
    body.extend_from_slice(nlri);
    frame(2, &body)
}

#[test]
fn overlong_as_path_claim_is_rejected_not_overread() {
    let cfg = WireConfig::default();
    // A well-formed attribute header whose AS_PATH segment claims 200
    // four-byte ASNs but carries none.
    let as_path_attr = [0x40, 2, 2, /* segment: */ 2, 200];
    let bytes = frame_update(&[], &as_path_attr, &[]);
    let err = decode_message(&bytes, cfg).expect_err("overlong segment accepted");
    let msg = err.to_string();
    assert!(msg.contains("as-path"), "unexpected error: {msg}");

    // Same claim with the attribute length itself lying about the body.
    let lying_attr = [0x40, 2, 60, 2, 200];
    assert!(decode_message(&frame_update(&[], &lying_attr, &[]), cfg).is_err());
}

#[test]
fn giant_as_path_cannot_be_encoded_past_the_size_cap() {
    // 1500 ASNs x 4 bytes blows through the 4096-byte message cap; the
    // encoder must refuse rather than emit an unparseable frame.
    let attrs = Arc::new(PathAttributes {
        as_path: AsPath::from_asns(&(1..=1500u32).map(Asn).collect::<Vec<_>>()),
        ..Default::default()
    });
    let update = UpdateMessage::announce(attrs, vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
    let result = encode_message(&BgpMessage::Update(update), WireConfig::default());
    // Refusing (`Err`) is the expected outcome; a successful encode must
    // at least respect the cap.
    if let Ok(bytes) = result {
        assert!(bytes.len() <= MAX_MESSAGE, "oversized frame emitted");
    }
}

#[test]
fn degenerate_nlri_lengths() {
    let cfg = WireConfig::default();
    // Prefix length 33 is out of range for v4.
    assert!(decode_message(&frame_update(&[], &[], &[33, 0, 0, 0, 0, 0]), cfg).is_err());
    // Length byte claims 4 body bytes that are not there.
    assert!(decode_message(&frame_update(&[], &[], &[32, 1, 2]), cfg).is_err());
    // A zero-length NLRI (0.0.0.0/0, no body bytes) is *valid* — it must
    // decode, not crash, and carry the default route. Attributes must be
    // present for an announcement to be well-formed.
    let origin = [0x40, 1, 1, 0];
    let as_path = [0x40, 2, 0];
    let next_hop = [0x40, 3, 4, 10, 0, 0, 1];
    let mut attrs = Vec::new();
    attrs.extend_from_slice(&origin);
    attrs.extend_from_slice(&as_path);
    attrs.extend_from_slice(&next_hop);
    let (decoded, _) =
        decode_message(&frame_update(&[], &attrs, &[0]), cfg).expect("default route NLRI");
    let BgpMessage::Update(u) = decoded else {
        panic!("wrong type");
    };
    assert_eq!(u.announced.len(), 1);
    assert_eq!(u.announced[0].prefix, Prefix::v4(0, 0, 0, 0, 0));
    // In ADD-PATH mode the same NLRI without its 4-byte path id is
    // truncated garbage.
    assert!(decode_message(
        &frame_update(&[], &attrs, &[0]),
        WireConfig { add_path: true }
    )
    .is_err());
}

/// Raw UPDATE body (no header) from the three sections — the input
/// shape `decode_update_revised` takes.
fn update_body(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
    let mut body = (withdrawn.len() as u16).to_be_bytes().to_vec();
    body.extend_from_slice(withdrawn);
    body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
    body.extend_from_slice(attrs);
    body.extend_from_slice(nlri);
    body
}

/// A well-formed mandatory attribute set: ORIGIN IGP, empty AS_PATH,
/// NEXT_HOP 10.0.0.1 — the base the corpus corrupts one attribute at a
/// time.
fn base_attrs() -> Vec<u8> {
    let mut attrs = Vec::new();
    attrs.extend_from_slice(&[0x40, 1, 1, 0]); // ORIGIN
    attrs.extend_from_slice(&[0x40, 2, 0]); // AS_PATH
    attrs.extend_from_slice(&[0x40, 3, 4, 10, 0, 0, 1]); // NEXT_HOP
    attrs
}

/// RFC 7606 corpus: each entry is (name, extra attribute bytes appended
/// after the valid mandatory set, expected classification).
#[test]
fn revised_decode_classifies_the_malformed_attribute_corpus() {
    let cfg = WireConfig::default();
    let nlri = [24, 10, 1, 2];
    let corpus: &[(&str, &[u8], ErrorTreatment)] = &[
        // ORIGIN with an undefined value: affects selection, routes go.
        (
            "origin value 9",
            &[0x40, 1, 1, 9],
            ErrorTreatment::TreatAsWithdraw,
        ),
        // ORIGIN with a wrong length claim inside a framed value.
        (
            "origin length 2",
            &[0x40, 1, 2, 0, 0],
            ErrorTreatment::TreatAsWithdraw,
        ),
        // MED shorter than 4 bytes.
        (
            "short med",
            &[0x80, 4, 2, 0, 1],
            ErrorTreatment::TreatAsWithdraw,
        ),
        // ATOMIC_AGGREGATE must be empty; a body is discardable noise.
        (
            "fat atomic-aggregate",
            &[0xC0, 6, 1, 7],
            ErrorTreatment::AttributeDiscard,
        ),
        // AGGREGATOR with a truncated body cannot affect selection.
        (
            "short aggregator",
            &[0xC0, 7, 3, 0, 1, 10],
            ErrorTreatment::AttributeDiscard,
        ),
    ];
    for (name, extra, want) in corpus {
        assert_eq!(
            treatment_for_attr(extra[1]),
            *want,
            "{name}: classification"
        );
        let mut attrs = base_attrs();
        attrs.extend_from_slice(extra);
        let body = update_body(&[], &attrs, &nlri);
        let revised = decode_update_revised(&body, cfg)
            .unwrap_or_else(|e| panic!("{name}: revised decode must not reset: {e}"));
        match want {
            ErrorTreatment::TreatAsWithdraw => {
                assert!(revised.treat_as_withdraw, "{name}: must treat as withdraw");
            }
            ErrorTreatment::AttributeDiscard => {
                assert!(!revised.treat_as_withdraw, "{name}: route must survive");
                assert_eq!(revised.discarded, vec![extra[1]], "{name}: discard list");
            }
            ErrorTreatment::SessionReset => unreachable!("corpus is recoverable-only"),
        }
        // Either way the NLRI itself parsed: the announced set is intact
        // so the receiver knows exactly which routes to drop or keep.
        assert_eq!(revised.update.announced.len(), 1, "{name}: NLRI preserved");
        // The strict decoder must refuse the same bytes — that is the
        // pre-7606 behavior the revised path exists to replace.
        assert!(
            decode_message(&frame_update(&[], &attrs, &nlri), cfg).is_err(),
            "{name}: strict decode accepted malformed input"
        );
    }
}

/// Framing damage stays fatal under RFC 7606: a lying attribute-section
/// length desynchronizes the NLRI and only a session reset is safe.
#[test]
fn revised_decode_still_resets_on_framing_errors() {
    let cfg = WireConfig::default();
    // Attribute section length overruns the body.
    let mut body = 0u16.to_be_bytes().to_vec();
    body.extend_from_slice(&500u16.to_be_bytes());
    body.push(0);
    assert!(decode_update_revised(&body, cfg).is_err());
    // An attribute whose own length claim overruns the section.
    let mut attrs = base_attrs();
    attrs.extend_from_slice(&[0x40, 2, 60, 2, 1]);
    assert!(decode_update_revised(&update_body(&[], &attrs, &[24, 10, 1, 2]), cfg).is_err());
}

proptest! {
    /// Random attribute-section garbage behind valid framing: the
    /// revised decoder never panics, and when it accepts, announced
    /// routes only ride along with intact framing.
    #[test]
    fn revised_decode_never_panics_on_attr_garbage(
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let body = update_body(&[], &garbage, &[24, 10, 1, 2]);
        let _ = decode_update_revised(&body, WireConfig::default());
        let _ = decode_update_revised(&body, WireConfig { add_path: true });
    }

    /// On well-formed input the revised path is a no-op: no withdraw
    /// flag, no discards, same announced set as the strict decoder.
    #[test]
    fn revised_decode_agrees_with_strict_on_valid_updates(n_routes in 1usize..4) {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(65000)]),
            ..Default::default()
        });
        let routes: Vec<Nlri> = (0..n_routes)
            .map(|i| Nlri::plain(Prefix::v4(10, i as u8, 0, 0, 16)))
            .collect();
        let update = UpdateMessage::announce(attrs, routes);
        let cfg = WireConfig::default();
        let bytes = encode_message(&BgpMessage::Update(update.clone()), cfg).expect("encode");
        // Strip the 19-byte header to get the body the revised API takes.
        let revised = decode_update_revised(&bytes[19..], cfg).expect("valid update");
        prop_assert!(!revised.treat_as_withdraw);
        prop_assert!(revised.discarded.is_empty());
        prop_assert_eq!(revised.update.announced.len(), update.announced.len());
    }
}

#[test]
fn truncated_withdrawn_and_attr_sections_error() {
    let cfg = WireConfig::default();
    // Withdrawn-routes length larger than the remaining body.
    let mut body = 200u16.to_be_bytes().to_vec();
    body.push(24);
    assert!(decode_message(&frame(2, &body), cfg).is_err());
    // Attribute section length larger than the remaining body.
    let mut body = 0u16.to_be_bytes().to_vec();
    body.extend_from_slice(&500u16.to_be_bytes());
    body.push(0);
    assert!(decode_message(&frame(2, &body), cfg).is_err());
}
