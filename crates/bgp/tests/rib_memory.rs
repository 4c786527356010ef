//! What an Adj-RIB and the Loc-RIB keep per prefix. Every speaker holds
//! one Adj-RIB-In per peer and every export group one shared Adj-RIB-Out,
//! so at Internet scale the bytes per (peer, prefix) are most of a
//! speaker's route state. A prefix's path set is a `Vec` sorted by path
//! id; a prefix with one path must cost one route-sized allocation, not
//! an inner B-tree leaf (eleven slots) nor a `Vec` at its minimum growth
//! capacity (four routes, 288 bytes). A test binary of its own because
//! it installs a counting global allocator.

mod counting_alloc;

use counting_alloc::live_bytes;
use peering_bgp::rib::{AdjRib, LocRib};
use peering_bgp::{AsPath, PathAttributes, PeerId, Route, RouteSource};
use peering_netsim::{Asn, Prefix, SimTime};
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
