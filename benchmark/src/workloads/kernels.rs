//! Layer kernels: each layer's public functions called in isolation on
//! feeder 0's route set of `router_feed`, fixed work, ns per route.
//!
//! These are the per-layer ledger lines. A kernel that gets faster must
//! show up again in the matching `router_feed` span, or the layer is not
//! on the blocking path. Every kernel runs on fresh state three times
//! and reports the median.

use super::router::{Inputs, WIRE};
use crate::stats::median_of;
use peering_bgp::decision::best_route;
use peering_bgp::rib::AdjRib;
use peering_bgp::wire::{decode_message, encode_message};
use peering_bgp::{
    Action, AttrInterner, BgpMessage, Community, DecisionConfig, LocRib, Match, PathAttributes,
    PeerId, Policy, Prefix, Route, RouteSource,
};
use peering_core::SafetyConfig;
use peering_netsim::{EventQueue, PrefixTrie, SimRng, SimTime};
use std::hint::black_box;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

/// Fresh-state passes per kernel.
const PASSES: usize = 3;
/// Candidate routes per prefix in the decision kernel.
const CANDIDATES: u32 = 4;

/// Median over [`PASSES`] of `pass`'s nanoseconds, per route.
fn per_route(routes: usize, mut pass: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..PASSES).map(|_| pass() as f64).collect();
    median_of(&samples) / routes as f64
}

/// Nanoseconds `f` takes; whatever it built is dropped after the clock
/// is read.
fn timed<T>(f: impl FnOnce() -> T) -> u64 {
    let t = Instant::now();
    let built = black_box(f());
    let ns = t.elapsed().as_nanos() as u64;
    drop(built);
    ns
}

fn route(prefix: Prefix, attrs: &Arc<PathAttributes>, peer: u32) -> Route {
    Route {
        prefix,
        attrs: attrs.clone(),
        peer: PeerId(peer),
        path_id: 0,
        source: RouteSource::Ebgp,
        igp_cost: 0,
        learned_at: SimTime::ZERO,
        trace: None,
    }
}

/// The import policy the `internet_*` speakers run on a customer
/// session: set the preference, tag the route, accept.
fn gao_rexford_import() -> Policy {
    Policy::accept_all().rule(
        Match::Any,
        vec![
            Action::SetLocalPref(200),
            Action::AddCommunity(Community::new(65001, 1)),
            Action::Accept,
        ],
    )
}

/// Run every kernel; `(metric, ns per route)` pairs.
pub(crate) fn run(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let encoded: Vec<&[u8]> = inputs.feeder0().collect();
    let messages: Vec<BgpMessage> = encoded
        .iter()
        .map(|b| decode_message(b, WIRE).expect("benchmark input").0)
        .collect();
    let table: Vec<(Prefix, Arc<PathAttributes>)> = messages
        .iter()
        .flat_map(|m| match m {
            BgpMessage::Update(u) => {
                let attrs = u.attrs.clone().expect("announcement carries attributes");
                u.announced
                    .iter()
                    .map(|n| (n.prefix, attrs.clone()))
                    .collect()
            }
            _ => Vec::new(),
        })
        .collect();
    let n = table.len();
    let routes: Vec<Route> = table.iter().map(|(p, a)| route(*p, a, 0)).collect();
    let addrs: Vec<IpAddr> = table
        .iter()
        .filter_map(|(p, _)| p.as_v4().map(|net| IpAddr::V4(net.addr_at(1))))
        .collect();
    // Candidates differ in path length, so the decision runs its first
    // steps and stops, as it does for most real prefixes.
    let candidates: Vec<Vec<Route>> = table
        .iter()
        .map(|(prefix, attrs)| {
            (0..CANDIDATES)
                .map(|peer| {
                    let mut a = (**attrs).clone();
                    a.as_path
                        .prepend(peering_netsim::Asn(100 + peer), peer as usize);
                    route(*prefix, &Arc::new(a), peer)
                })
                .collect()
        })
        .collect();

    let policy_kernel = |policy: &Policy| {
        per_route(n, || {
            timed(|| {
                table
                    .iter()
                    .filter(|(prefix, attrs)| {
                        // The copy is the importer's too: policy edits
                        // attributes in place.
                        let mut a = (**attrs).clone();
                        policy.apply(prefix, &mut a)
                    })
                    .count()
            })
        })
    };
    let decision = DecisionConfig::default();
    let loc_full = {
        let mut loc = LocRib::new();
        for r in &routes {
            loc.set_best(r.clone());
        }
        loc
    };
    let trie_full = {
        let mut trie = PrefixTrie::new();
        for (i, (p, _)) in table.iter().enumerate() {
            trie.insert(*p, i as u32);
        }
        trie
    };
    let mut times = SimRng::new(n as u64).fork("queue");
    let due: Vec<SimTime> = (0..n)
        .map(|_| SimTime::from_micros(times.below(1_000_000)))
        .collect();

    vec![
        (
            "kernel.wire_decode_ns",
            per_route(n, || {
                timed(|| {
                    encoded
                        .iter()
                        .map(|b| decode_message(b, WIRE).expect("benchmark input").1)
                        .sum::<usize>()
                })
            }),
        ),
        (
            "kernel.wire_encode_ns",
            per_route(n, || {
                timed(|| {
                    messages
                        .iter()
                        .map(|m| encode_message(m, WIRE).expect("decoded input").len())
                        .sum::<usize>()
                })
            }),
        ),
        (
            "kernel.policy_import_ns",
            policy_kernel(&gao_rexford_import()),
        ),
        (
            "kernel.policy_safety_ns",
            policy_kernel(&SafetyConfig::peering_default().client_import_policy()),
        ),
        (
            "kernel.decision_best_ns",
            per_route(n, || {
                timed(|| {
                    candidates
                        .iter()
                        .filter_map(|c| best_route(c.iter(), &decision))
                        .map(|r| r.peer.0)
                        .sum::<u32>()
                })
            }),
        ),
        (
            "kernel.adj_in_insert_ns",
            per_route(n, || {
                let fresh = routes.clone();
                timed(|| {
                    let mut rib = AdjRib::new();
                    for r in fresh {
                        rib.insert(r);
                    }
                    rib
                })
            }),
        ),
        (
            "kernel.intern_ns",
            per_route(n, || {
                let fresh: Vec<PathAttributes> = table.iter().map(|(_, a)| (**a).clone()).collect();
                timed(|| {
                    let mut interner = AttrInterner::new();
                    let held: Vec<Arc<PathAttributes>> =
                        fresh.into_iter().map(|a| interner.intern(a)).collect();
                    (interner, held)
                })
            }),
        ),
        (
            "kernel.loc_set_best_ns",
            per_route(n, || {
                let fresh = routes.clone();
                timed(|| {
                    let mut loc = LocRib::new();
                    for r in fresh {
                        loc.set_best(r);
                    }
                    loc
                })
            }),
        ),
        (
            "kernel.loc_lpm_ns",
            per_route(n, || {
                timed(|| {
                    addrs
                        .iter()
                        .filter(|a| loc_full.longest_match(**a).is_some())
                        .count()
                })
            }),
        ),
        (
            "kernel.trie_insert_ns",
            per_route(n, || {
                timed(|| {
                    let mut trie = PrefixTrie::new();
                    for (i, (p, _)) in table.iter().enumerate() {
                        trie.insert(*p, i as u32);
                    }
                    trie
                })
            }),
        ),
        (
            "kernel.trie_lpm_ns",
            per_route(n, || {
                timed(|| {
                    addrs
                        .iter()
                        .filter(|a| trie_full.longest_match(**a).is_some())
                        .count()
                })
            }),
        ),
        (
            "kernel.queue_push_pop_ns",
            per_route(n, || {
                timed(|| {
                    let mut q = EventQueue::new();
                    for (i, t) in due.iter().enumerate() {
                        q.push(*t, i as u32);
                    }
                    let mut popped = 0usize;
                    while q.pop().is_some() {
                        popped += 1;
                    }
                    popped
                })
            }),
        ),
    ]
}
