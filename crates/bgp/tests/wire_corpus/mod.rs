//! The wire encoder's fixed corpus: one message per encoder branch —
//! every message type, every `Capability`, v4 and v6 NLRI with and
//! without ADD-PATH, each optional attribute, both extended-length
//! boundaries — plus the two UPDATEs the encoder must refuse. Shared by
//! the byte golden (`wire_golden.rs`) and the allocation contract
//! (`wire_allocs.rs`).

use peering_bgp::wire::WireConfig;
use peering_bgp::{
    AsPath, AsPathSegment, Asn, BgpMessage, Capability, Community, Nlri, NotifCode,
    NotificationMessage, OpenMessage, Origin, PathAttributes, Prefix, UpdateMessage,
};
use std::net::Ipv4Addr;
use std::sync::Arc;

const PLAIN: WireConfig = WireConfig { add_path: false };
const ADD_PATH: WireConfig = WireConfig { add_path: true };

/// One corpus entry: a name for the golden, the message, the session's
/// encoding options.
pub struct Case {
    pub name: &'static str,
    pub msg: BgpMessage,
    pub cfg: WireConfig,
}

fn case(name: &'static str, msg: BgpMessage, cfg: WireConfig) -> Case {
    Case { name, msg, cfg }
}

fn update(withdrawn: Vec<Nlri>, attrs: Option<PathAttributes>, announced: Vec<Nlri>) -> BgpMessage {
    BgpMessage::Update(UpdateMessage {
        withdrawn,
        attrs: attrs.map(Arc::new),
        announced,
        trace: None,
    })
}

/// ORIGIN, a two-AS path and a next hop: the mandatory set.
fn basic() -> PathAttributes {
    PathAttributes {
        as_path: AsPath::from_asns(&[Asn(65001), Asn(3356)]),
        next_hop: Ipv4Addr::new(192, 0, 2, 1),
        ..Default::default()
    }
}

fn v6(s: &str) -> Prefix {
    s.parse().expect("corpus prefix")
}

/// `prefixes` as NLRI; with ADD-PATH, path ids count up from `first_id`.
fn nlri(prefixes: impl IntoIterator<Item = Prefix>, ids: bool, first_id: u32) -> Vec<Nlri> {
    (first_id..)
        .zip(prefixes)
        .map(|(id, p)| {
            if ids {
                Nlri::with_path_id(p, id)
            } else {
                Nlri::plain(p)
            }
        })
        .collect()
}

/// v4 NLRI of every byte width: /0, /8, /24, /25, /32.
fn v4_nlri(ids: bool) -> Vec<Nlri> {
    let prefixes = [
        Prefix::v4(0, 0, 0, 0, 0),
        Prefix::v4(10, 0, 0, 0, 8),
        Prefix::v4(192, 0, 2, 0, 24),
        Prefix::v4(203, 0, 113, 128, 25),
        Prefix::v4(198, 51, 100, 7, 32),
    ];
    nlri(prefixes, ids, 1000)
}

fn v4_withdrawn(ids: bool) -> Vec<Nlri> {
    let prefixes = [Prefix::v4(172, 16, 0, 0, 12), Prefix::v4(100, 64, 1, 0, 24)];
    nlri(prefixes, ids, 7)
}

fn v6_nlri(ids: bool, prefixes: &[&str]) -> Vec<Nlri> {
    nlri(prefixes.iter().map(|s| v6(s)), ids, 2000)
}

fn opens() -> Vec<Case> {
    let mut every = OpenMessage::new(Asn(4_200_000_042), 180, Ipv4Addr::new(192, 0, 2, 1))
        .with_add_path(true, false)
        .with_graceful_restart(120);
    every.capabilities.push(Capability::MpIpv6Unicast);
    let mut bare = OpenMessage::new(Asn(65000), 90, Ipv4Addr::new(10, 0, 0, 1));
    bare.capabilities.clear();
    let receive_only = OpenMessage::new(Asn(64512), 0, Ipv4Addr::new(10, 0, 0, 2))
        .with_add_path(false, true)
        .with_graceful_restart(0x0FFF);
    vec![
        case("open, every capability", BgpMessage::Open(every), PLAIN),
        case("open, no capabilities", BgpMessage::Open(bare), PLAIN),
        case(
            "open, add-path receive, restart time 4095",
            BgpMessage::Open(receive_only),
            PLAIN,
        ),
    ]
}

fn others() -> Vec<Case> {
    vec![
        case("keepalive", BgpMessage::Keepalive, PLAIN),
        case("route-refresh", BgpMessage::RouteRefresh, PLAIN),
        case(
            "notification, cease with data",
            BgpMessage::Notification(NotificationMessage {
                code: NotifCode::Cease,
                subcode: 2,
                data: vec![1, 2, 3],
            }),
            PLAIN,
        ),
        case(
            "notification, hold timer expired",
            BgpMessage::Notification(NotificationMessage::new(NotifCode::HoldTimerExpired, 0)),
            PLAIN,
        ),
        case("end-of-rib", update(vec![], None, vec![]), PLAIN),
    ]
}

fn v4_updates() -> Vec<Case> {
    let mut cases = Vec::new();
    for (ids, cfg) in [(false, PLAIN), (true, ADD_PATH)] {
        let tag = |plain: &'static str, add_path: &'static str| if ids { add_path } else { plain };
        cases.push(case(
            tag("v4 announce", "v4 announce, add-path"),
            update(vec![], Some(basic()), v4_nlri(ids)),
            cfg,
        ));
        cases.push(case(
            tag("v4 withdraw", "v4 withdraw, add-path"),
            update(v4_withdrawn(ids), None, vec![]),
            cfg,
        ));
        cases.push(case(
            tag("v4 mixed", "v4 mixed, add-path"),
            update(v4_withdrawn(ids), Some(basic()), v4_nlri(ids)),
            cfg,
        ));
    }
    cases.push(case(
        "attributes without NLRI",
        update(vec![], Some(basic()), vec![]),
        PLAIN,
    ));
    cases
}

fn v6_updates() -> Vec<Case> {
    let announce = [
        "2001:db8::/32",
        "2001:db8:1::/48",
        "::/0",
        "2001:db8::1/128",
    ];
    let withdraw = ["2001:db8:dead::/48", "2001:db8:beef:1::/64"];
    let many: Vec<String> = (0..40).map(|i| format!("2001:db8:{i:x}::/64")).collect();
    let many: Vec<&str> = many.iter().map(String::as_str).collect();
    let mut cases = Vec::new();
    for (ids, cfg) in [(false, PLAIN), (true, ADD_PATH)] {
        let tag = |plain: &'static str, add_path: &'static str| if ids { add_path } else { plain };
        cases.push(case(
            tag(
                "v6 announce and withdraw",
                "v6 announce and withdraw, add-path",
            ),
            update(
                v6_nlri(ids, &withdraw),
                Some(basic()),
                v6_nlri(ids, &announce),
            ),
            cfg,
        ));
    }
    cases.push(case(
        "v6 withdraw only",
        update(v6_nlri(false, &withdraw), None, vec![]),
        PLAIN,
    ));
    // The families alternate in the input; each keeps its own order.
    let (v4_wd, v6_wd) = (v4_withdrawn(false), v6_nlri(false, &withdraw));
    let mixed_wd = vec![v4_wd[0], v6_wd[0], v4_wd[1], v6_wd[1]];
    let v6_an = v6_nlri(false, &announce[..2]);
    let mixed_an = [&v6_an[..1], &v4_nlri(false), &v6_an[1..]].concat();
    cases.push(case(
        "v4 and v6 interleaved",
        update(mixed_wd, Some(basic()), mixed_an),
        PLAIN,
    ));
    cases.push(case(
        "v6 announce, extended-length mp-reach",
        update(vec![], Some(basic()), v6_nlri(false, &many)),
        PLAIN,
    ));
    cases.push(case(
        "v6 withdraw, extended-length mp-unreach",
        update(v6_nlri(false, &many), None, vec![]),
        PLAIN,
    ));
    cases
}

fn attribute_updates() -> Vec<Case> {
    let one = || vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))];
    let with = |attrs: PathAttributes| update(vec![], Some(attrs), one());
    let path = |segments| PathAttributes {
        as_path: AsPath { segments },
        ..basic()
    };
    let asns = |n: u32| (1..=n).map(Asn).collect::<Vec<_>>();
    let communities = |n: u32| PathAttributes {
        communities: (0..n).map(|i| Community::new(3356, i as u16)).collect(),
        ..basic()
    };
    let full = PathAttributes {
        origin: Origin::Egp,
        as_path: AsPath::from_asns(&[Asn(64512), Asn(3356), Asn(1299)]),
        next_hop: Ipv4Addr::new(10, 9, 8, 7),
        med: Some(50),
        local_pref: Some(120),
        atomic_aggregate: true,
        aggregator: Some((Asn(3356), Ipv4Addr::new(4, 4, 4, 4))),
        communities: vec![Community::new(3356, 100), Community::NO_EXPORT],
    };
    vec![
        case("empty as-path", with(path(vec![])), PLAIN),
        case(
            "empty as-path segment",
            with(path(vec![AsPathSegment::Sequence(vec![])])),
            PLAIN,
        ),
        case(
            "as-set",
            with(path(vec![
                AsPathSegment::Sequence(vec![Asn(65001), Asn(3356)]),
                AsPathSegment::Set(vec![Asn(64500), Asn(64501), Asn(64502)]),
            ])),
            PLAIN,
        ),
        case(
            "255-as path, one segment",
            with(path(vec![AsPathSegment::Sequence(asns(255))])),
            PLAIN,
        ),
        case(
            "600-as path, chunked and extended length",
            with(path(vec![AsPathSegment::Sequence(asns(600))])),
            PLAIN,
        ),
        case(
            "600-as set, chunked",
            with(path(vec![AsPathSegment::Set(asns(600))])),
            PLAIN,
        ),
        case("63 communities", with(communities(63)), PLAIN),
        case(
            "64 communities, extended length",
            with(communities(64)),
            PLAIN,
        ),
        case(
            "med, local-pref, atomic-aggregate, aggregator",
            with(full),
            PLAIN,
        ),
        case(
            "origin incomplete, med only",
            with(PathAttributes {
                origin: Origin::Incomplete,
                med: Some(0),
                ..basic()
            }),
            PLAIN,
        ),
    ]
}

fn refused() -> Vec<Case> {
    let too_many: Vec<Nlri> = (0..2000u32)
        .map(|i| Nlri::plain(Prefix::v4(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24)))
        .collect();
    vec![
        case("too large", update(vec![], Some(basic()), too_many), PLAIN),
        case(
            "announcement without attributes",
            update(vec![], None, v4_nlri(false)),
            PLAIN,
        ),
        case(
            "v6 announcement without attributes",
            update(vec![], None, v6_nlri(false, &["2001:db8::/32"])),
            PLAIN,
        ),
    ]
}

/// Every corpus entry, in golden order.
pub fn corpus() -> Vec<Case> {
    let mut all = opens();
    all.extend(others());
    all.extend(v4_updates());
    all.extend(v6_updates());
    all.extend(attribute_updates());
    all.extend(refused());
    all
}
