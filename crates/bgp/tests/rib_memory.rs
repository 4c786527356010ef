//! What an Adj-RIB and the Loc-RIB keep per prefix. Every speaker holds
//! one Adj-RIB-In per peer and every export group one shared Adj-RIB-Out,
//! so at Internet scale the bytes per (peer, prefix) are most of a
//! speaker's route state. A prefix's path set is a `Vec` sorted by path
//! id; a prefix with one path must cost one route-sized allocation, not
//! an inner B-tree leaf (eleven slots) nor a `Vec` at its minimum growth
//! capacity (four routes, 288 bytes). Speakers that share one attribute
//! table, as one engine shard's do, hold one copy of a route's attribute
//! set between them. A test binary of its own because it installs a
//! counting global allocator.

mod counting_alloc;

use counting_alloc::live_bytes;
use peering_bgp::rib::{AdjRib, LocRib};
use peering_bgp::{
    AsPath, AttrInterner, BgpMessage, Input, Output, PathAttributes, PeerConfig, PeerId, Route,
    RouteSource, Speaker, SpeakerConfig,
};
use peering_netsim::{Asn, Prefix, SimTime};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Prefixes per table: enough that the outer map's node overhead is
/// amortized as it is in a full table.
const PREFIXES: u32 = 4_096;

/// Live bytes per prefix with one path (path id 0). Measured 156 bytes
/// (x86-64, glibc): the 72-byte route plus the prefix's share of the
/// outer map's nodes, whose 20-byte keys are `Prefix`es. With a `u128`
/// v6 address (a 48-byte `Prefix`, a 96-byte route) it was 233; an inner
/// `BTreeMap` costs 1,257, and a `Vec` grown from empty by its first
/// insert costs 521.
const BYTES_ONE_PATH: i64 = 172;

/// Live bytes per prefix with two ADD-PATH paths (ids 1 and 0, inserted
/// in that order). Measured 228 bytes (329 with a 48-byte `Prefix`): the
/// second path grows the set to exactly two slots. Growing it to `Vec`'s
/// minimum of four costs 521, and an inner `BTreeMap` 1,257.
const BYTES_TWO_PATHS: i64 = 251;

/// Live bytes per Loc-RIB prefix, one best route each. Measured 191
/// bytes: a radix trie over the /24s holds about two nodes per prefix
/// (a leaf and its share of the branch nodes), and a v4 node with its
/// inline route slot is 96 bytes (128 with a 48-byte `Prefix`: 255).
const BYTES_LOC_RIB: i64 = 210;

/// Live bytes a speaker keeps for one route it imports (its Adj-RIB-In,
/// Loc-RIB and export state) when another speaker on its attribute table
/// imported the route first. Measured 2,840 bytes (x86-64, glibc); with
/// a table of its own it is 3,184: the imported attribute set, the set
/// it stages toward the origin, and its own table's first slots.
const BYTES_SHARED_IMPORT: i64 = 3_000;

fn route(prefix: Prefix, path_id: u32, attrs: &Arc<PathAttributes>) -> Route {
    Route {
        prefix,
        attrs: Arc::clone(attrs),
        peer: PeerId(1),
        path_id,
        source: RouteSource::Ebgp,
        igp_cost: 0,
        learned_at: SimTime::ZERO,
        trace: None,
    }
}

/// Live bytes per prefix of a table holding `path_ids` for each of
/// [`PREFIXES`] /24s. The routes and their shared attributes are built
/// before the count starts, so only the table's own allocations count.
fn bytes_per_prefix(path_ids: &[u32]) -> i64 {
    let attrs = Arc::new(PathAttributes {
        as_path: AsPath::from_asns(&[Asn(64512)]),
        ..Default::default()
    });
    let routes: Vec<Route> = (0..PREFIXES)
        .flat_map(|i| {
            let prefix = Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24);
            path_ids.iter().map(move |&id| (prefix, id))
        })
        .map(|(prefix, id)| route(prefix, id, &attrs))
        .collect();
    let mut rib = AdjRib::new();
    let before = live_bytes();
    for r in routes.iter().cloned() {
        rib.insert(r);
    }
    let per_prefix = (live_bytes() - before) / i64::from(PREFIXES);
    assert_eq!(rib.len(), routes.len());
    assert_eq!(rib.check_invariants(), Ok(()));
    per_prefix
}

/// Live bytes per prefix of a Loc-RIB holding one best route for each
/// of [`PREFIXES`] /24s, counted like [`bytes_per_prefix`].
fn loc_rib_bytes_per_prefix() -> i64 {
    let attrs = Arc::new(PathAttributes::default());
    let routes: Vec<Route> = (0..PREFIXES)
        .map(|i| route(Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24), 0, &attrs))
        .collect();
    let mut rib = LocRib::new();
    let before = live_bytes();
    for r in routes.iter().cloned() {
        rib.set_best(r);
    }
    let per_prefix = (live_bytes() - before) / i64::from(PREFIXES);
    assert_eq!(rib.len(), routes.len());
    per_prefix
}

#[test]
fn a_one_path_prefix_costs_about_one_route() {
    let per_prefix = bytes_per_prefix(&[0]);
    assert!(
        per_prefix <= BYTES_ONE_PATH,
        "a one-path prefix keeps {per_prefix} bytes, over the budget of {BYTES_ONE_PATH}"
    );
}

#[test]
fn a_two_path_prefix_costs_one_small_path_set() {
    let per_prefix = bytes_per_prefix(&[1, 0]);
    assert!(
        per_prefix <= BYTES_TWO_PATHS,
        "a two-path prefix keeps {per_prefix} bytes, over the budget of {BYTES_TWO_PATHS}"
    );
}

#[test]
fn a_loc_rib_prefix_costs_two_trie_nodes() {
    let per_prefix = loc_rib_bytes_per_prefix();
    assert!(
        per_prefix <= BYTES_LOC_RIB,
        "a Loc-RIB prefix keeps {per_prefix} bytes, over the budget of {BYTES_LOC_RIB}"
    );
}

/// Apply `input` to `a`, then carry messages both ways between the two
/// speakers' peer 0 until they are quiet. Returns what `a` sent `b`.
fn pump(a: &mut Speaker, b: &mut Speaker, input: Input) -> Vec<BgpMessage> {
    let sends = |out: Vec<Output>| -> Vec<BgpMessage> {
        let msg = |o| match o {
            Output::Send(_, m) => Some(m),
            Output::Event(_) => None,
        };
        out.into_iter().filter_map(msg).collect()
    };
    let mut out = Vec::new();
    a.apply(input, SimTime::ZERO, &mut out);
    let (mut to_b, mut sent) = (sends(out), Vec::new());
    while !to_b.is_empty() {
        let mut to_a = Vec::new();
        for m in to_b.drain(..) {
            sent.push(m.clone());
            let mut out = Vec::new();
            b.apply(Input::Message(PeerId(0), m), SimTime::ZERO, &mut out);
            to_a.extend(sends(out));
        }
        for m in to_a {
            let mut out = Vec::new();
            a.apply(Input::Message(PeerId(0), m), SimTime::ZERO, &mut out);
            to_b.extend(sends(out));
        }
    }
    sent
}

fn listener_config() -> SpeakerConfig {
    SpeakerConfig::new(Asn(2), Ipv4Addr::new(10, 0, 0, 2))
}

/// An AS 2 speaker on `table` with an established session to an AS 1
/// origin, and the UPDATE that origin sends it for one prefix.
fn listener_and_update(table: &AttrInterner) -> (Speaker, BgpMessage) {
    let mut origin = Speaker::new(SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1)));
    let to_listener = PeerConfig::new(PeerId(0), Asn(2));
    origin.add_peer(to_listener).expect("a new peer");
    let mut listener = Speaker::with_interner(listener_config(), table);
    let passive = PeerConfig::new(PeerId(0), Asn(1)).passive();
    listener.add_peer(passive).expect("a new peer");
    listener.apply(Input::StartPeer(PeerId(0)), SimTime::ZERO, &mut Vec::new());
    pump(&mut origin, &mut listener, Input::StartPeer(PeerId(0)));
    pump(&mut origin, &mut listener, Input::Tick);
    assert!(listener.peer_established(PeerId(0)));
    let mut out = Vec::new();
    let originate = Input::Originate(Prefix::v4(10, 10, 0, 0, 16), Vec::new());
    origin.apply(originate, SimTime::ZERO, &mut out);
    let mut sent = out.into_iter().filter_map(|o| match o {
        Output::Send(_, m) => Some(m),
        Output::Event(_) => None,
    });
    let update = sent.next().expect("the origin sends an UPDATE");
    assert!(sent.next().is_none());
    (listener, update)
}

/// Live bytes each of `k` listeners on tables from `table_for` keeps
/// after importing the one route, in the order they import it.
fn import_bytes(k: usize, table_for: impl Fn() -> AttrInterner) -> Vec<i64> {
    let mut listeners: Vec<(Speaker, BgpMessage)> =
        (0..k).map(|_| listener_and_update(&table_for())).collect();
    listeners
        .iter_mut()
        .map(|(listener, update)| {
            let update = Input::Message(PeerId(0), update.clone());
            let before = live_bytes();
            let mut out = Vec::new();
            listener.apply(update, SimTime::ZERO, &mut out);
            drop(out);
            live_bytes() - before
        })
        .collect()
}

#[test]
fn speakers_on_one_table_hold_one_copy_of_a_route_they_share() {
    let table = AttrInterner::new();
    let shared = import_bytes(4, || table.share());
    let private = import_bytes(4, AttrInterner::new);
    // One attribute set's allocation: the set behind the `Arc`'s two
    // counters. The later listeners on the shared table skip at least
    // the imported set; the one each stages toward the origin is shared
    // too.
    let set = (2 * std::mem::size_of::<usize>() + std::mem::size_of::<PathAttributes>()) as i64;
    for (k, (&kept, &alone)) in shared.iter().zip(&private).enumerate().skip(1) {
        assert!(
            kept + set <= alone,
            "listener {k} keeps {kept} bytes on a shared table, {alone} on its own"
        );
        assert!(
            kept <= BYTES_SHARED_IMPORT,
            "listener {k} keeps {kept} bytes, over the budget of {BYTES_SHARED_IMPORT}"
        );
    }
}

#[test]
fn a_speaker_on_a_shared_table_allocates_no_table() {
    let table = AttrInterner::new();
    let idle = |make: &dyn Fn() -> Speaker| {
        let before = live_bytes();
        let speaker = make();
        let kept = live_bytes() - before;
        drop(speaker);
        kept
    };
    let shared = idle(&|| Speaker::with_interner(listener_config(), &table));
    let own = idle(&|| Speaker::new(listener_config()));
    assert!(
        shared < own,
        "a speaker on a shared table keeps {shared} bytes idle, Speaker::new {own}"
    );
}
