//! `digest_routes` against its model: the `format!`-sort-hash form every
//! pinned RIB digest was taken with. The production writer builds the
//! same lines byte by byte in one buffer; on seeded route sets covering
//! both families, AS_SETs, MEDs, aggregators, communities and ADD-PATH
//! paths sharing a prefix, the two digests must be equal.

use peering_bgp::{
    digest_routes, AdjRibIn, AsPath, AsPathSegment, Asn, Community, Ipv4Net, Ipv6Net, Origin,
    PathAttributes, PeerId, Prefix, Route, RouteSource,
};
use peering_netsim::{Fnv1a, SimRng, SimTime};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// The digest as it was first defined: one `format!`ed line per route,
/// sorted as strings, each hashed with a `;` after it.
fn model<'a>(routes: impl IntoIterator<Item = &'a Route>) -> u64 {
    let mut lines: Vec<String> = routes
        .into_iter()
        .map(|r| {
            format!(
                "{:?} peer={:?} path_id={} source={:?} igp={} attrs={:?}",
                r.prefix, r.peer, r.path_id, r.source, r.igp_cost, r.attrs
            )
        })
        .collect();
    lines.sort();
    let mut h = Fnv1a::legacy();
    for line in &lines {
        h.write(line.as_bytes());
        h.write(b";");
    }
    h.finish()
}

fn digest<'a>(routes: impl IntoIterator<Item = &'a Route>) -> u64 {
    let mut h = Fnv1a::legacy();
    digest_routes(&mut h, routes);
    h.finish()
}

/// A number that is small, at a width boundary, or anything.
fn number(rng: &mut SimRng) -> u32 {
    match rng.below(4) {
        0 => rng.below(10) as u32,
        1 => [9, 10, 99, 100, 65_535, 65_536, u32::MAX][rng.index(7)],
        _ => rng.below(1 << 32) as u32,
    }
}

fn ipv4(rng: &mut SimRng) -> Ipv4Addr {
    Ipv4Addr::from(number(rng))
}

fn prefix(rng: &mut SimRng) -> Prefix {
    // A small pool, so sets hold equal prefixes.
    let pick = rng.below(8);
    let mut pool = SimRng::new(pick);
    if pick < 5 {
        let len = pool.below(33) as u8;
        Prefix::V4(Ipv4Net::new(ipv4(&mut pool), len))
    } else {
        let addr = (u128::from(pool.below(1 << 63)) << 64) | u128::from(pool.below(1 << 63));
        let len = pool.below(129) as u8;
        Prefix::V6(Ipv6Net::new(Ipv6Addr::from(addr), len))
    }
}

fn optional(rng: &mut SimRng) -> Option<u32> {
    rng.chance(0.5).then(|| number(rng))
}

fn attrs(rng: &mut SimRng) -> PathAttributes {
    let segments = (0..rng.below(4))
        .map(|_| {
            let asns = (0..rng.below(4)).map(|_| Asn(number(rng))).collect();
            if rng.chance(0.3) {
                AsPathSegment::Set(asns)
            } else {
                AsPathSegment::Sequence(asns)
            }
        })
        .collect();
    let well_known = [
        Community::NO_EXPORT,
        Community::NO_ADVERTISE,
        Community::new(65001, 2),
    ];
    let communities = (0..rng.below(4))
        .map(|_| match rng.chance(0.3) {
            true => well_known[rng.index(3)],
            false => Community(number(rng)),
        })
        .collect();
    PathAttributes {
        origin: [Origin::Igp, Origin::Egp, Origin::Incomplete][rng.index(3)],
        as_path: AsPath { segments },
        next_hop: ipv4(rng),
        med: optional(rng),
        local_pref: optional(rng),
        atomic_aggregate: rng.chance(0.5),
        aggregator: rng.chance(0.5).then(|| (Asn(number(rng)), ipv4(rng))),
        communities,
    }
}

fn route(rng: &mut SimRng) -> Route {
    Route {
        prefix: prefix(rng),
        attrs: Arc::new(attrs(rng)),
        peer: if rng.chance(0.2) {
            PeerId::LOCAL
        } else {
            PeerId(number(rng))
        },
        path_id: number(rng),
        source: [RouteSource::Ebgp, RouteSource::Ibgp, RouteSource::Local][rng.index(3)],
        igp_cost: number(rng),
        learned_at: SimTime::from_micros(rng.below(1 << 40)),
        trace: None,
    }
}

#[test]
fn digest_routes_hashes_the_formatted_lines() {
    let mut rng = SimRng::new(0x5eed);
    for case in 0..2_000 {
        let mut routes: Vec<Route> = (0..rng.below(9)).map(|_| route(&mut rng)).collect();
        if rng.chance(0.2) {
            // The same line twice.
            if let Some(r) = routes.first().cloned() {
                routes.push(r);
            }
        }
        for r in &routes {
            assert_eq!(digest([r]), model([r]), "case {case}: one route {r:?}");
        }
        assert_eq!(digest(&routes), model(&routes), "case {case}: {routes:?}");
    }
}

#[test]
fn digest_routes_matches_the_model_on_multi_path_adj_ribs() {
    let mut rng = SimRng::new(7);
    for case in 0..300 {
        let mut rib = AdjRibIn::new();
        for _ in 0..rng.below(12) {
            let mut r = route(&mut rng);
            // Few path ids on few prefixes: prefixes carry several paths.
            r.path_id = rng.below(3) as u32;
            rib.insert(r);
        }
        assert_eq!(digest(rib.iter()), model(rib.iter()), "case {case}");
    }
}
