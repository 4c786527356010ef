//! Routing information bases: per-peer Adj-RIB-In / Adj-RIB-Out and the
//! Loc-RIB, plus the shared-attribute interner.
//!
//! A PEERING server holds a full Adj-RIB-In per upstream peer — at AMS-IX
//! that is hundreds of tables — and per-client Adj-RIB-Outs. Figure 2 of
//! the paper measures exactly this: how much memory one router's tables
//! consume as peers × routes grow. The interner reproduces the attribute
//! sharing real BGP implementations rely on to keep that curve sane. Its
//! table is a flat set of attribute sets, one per distinct value, and it
//! can be shared: a router keeps one of its own, while every speaker of
//! one engine shard of the simulated Internet interns into the shard's
//! table, so a route that k speakers import is one allocation.

use crate::attrs::{AsPathSegment, Origin, PathAttributes};
use peering_netsim::{Fnv1a, Prefix, PrefixTrie, SimTime, TraceId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

/// Identifies a BGP peer within one speaker.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Pseudo-peer for locally originated routes.
    pub const LOCAL: PeerId = PeerId(u32::MAX);
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PeerId::LOCAL {
            write!(f, "local")
        } else {
            write!(f, "peer{}", self.0)
        }
    }
}

/// Where a route was learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteSource {
    /// From an external peer.
    Ebgp,
    /// From an internal peer.
    Ibgp,
    /// Locally originated (static / redistributed).
    Local,
}

/// A route: a prefix plus its path attributes and bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Shared path attributes.
    pub attrs: Arc<PathAttributes>,
    /// The peer this route was learned from ([`PeerId::LOCAL`] if local).
    pub peer: PeerId,
    /// ADD-PATH identifier (0 when unused).
    pub path_id: u32,
    /// eBGP / iBGP / local.
    pub source: RouteSource,
    /// IGP cost to the next hop (decision-process step).
    pub igp_cost: u32,
    /// When the route was installed.
    pub learned_at: SimTime,
    /// Provenance id of the originated change this route descends from.
    /// Minted deterministically at origination and carried through every
    /// RIB so the collector can rebuild per-prefix propagation DAGs; it
    /// plays no part in the decision process or convergence digests.
    pub trace: Option<TraceId>,
}

// Equality deliberately ignores `trace`: a route is defined by what BGP
// exchanged and decided, not by the observational provenance riding along.
impl PartialEq for Route {
    fn eq(&self, other: &Self) -> bool {
        self.prefix == other.prefix
            && self.attrs == other.attrs
            && self.peer == other.peer
            && self.path_id == other.path_id
            && self.source == other.source
            && self.igp_cost == other.igp_cost
            && self.learned_at == other.learned_at
    }
}

impl Route {
    /// A locally originated route.
    pub fn local(prefix: Prefix, attrs: Arc<PathAttributes>, now: SimTime) -> Self {
        Route {
            prefix,
            attrs,
            peer: PeerId::LOCAL,
            path_id: 0,
            source: RouteSource::Local,
            igp_cost: 0,
            learned_at: now,
            trace: None,
        }
    }

    /// Tag the route with a provenance id.
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }
}

/// One peer's Adj-RIB (used for both In and Out directions): the set of
/// routes exchanged with that peer, keyed by prefix and ADD-PATH id.
///
/// A `BTreeMap` from prefix to that prefix's paths, held in a `Vec`
/// sorted by path id. Most prefixes have one path (path id 0), which
/// costs one exactly-sized allocation of one [`Route`]; an inner
/// `BTreeMap` would spend an eleven-slot leaf on it. Every iteration
/// surface ([`iter`](Self::iter), [`paths`](Self::paths),
/// [`prefixes`](Self::prefixes), [`clear`](Self::clear)) yields
/// prefix-then-path-id order — a determinism-contract requirement
/// (`nd-hash-iter`): Adj-RIB walks feed digests, MRT dumps, and the
/// decision process.
#[derive(Debug, Clone, Default)]
pub struct AdjRib {
    routes: BTreeMap<Prefix, Vec<Route>>,
    entries: usize,
}

/// Adj-RIB-In: routes learned from a peer, after import policy.
pub type AdjRibIn = AdjRib;
/// Adj-RIB-Out: routes advertised to a peer, after export policy.
pub type AdjRibOut = AdjRib;

/// Where `path_id` sits in a prefix's path set: `Ok` at its index, or
/// `Err` at the index that keeps the set sorted.
fn find(paths: &[Route], path_id: u32) -> Result<usize, usize> {
    paths.binary_search_by_key(&path_id, |r| r.path_id)
}

/// Insert or replace `route` in a sorted path set, returning the route
/// it replaced. A second path grows the set to exactly two slots rather
/// than to `Vec`'s minimum of four; later growth is amortized.
fn upsert(paths: &mut Vec<Route>, route: Route) -> Option<Route> {
    match find(paths, route.path_id) {
        Ok(i) => Some(std::mem::replace(&mut paths[i], route)),
        Err(i) => {
            if paths.len() == 1 {
                paths.reserve_exact(1);
            }
            paths.insert(i, route);
            None
        }
    }
}

impl AdjRib {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a route (keyed by `prefix` + `path_id`).
    pub fn insert(&mut self, route: Route) -> Option<Route> {
        let old = match self.routes.entry(route.prefix) {
            Entry::Vacant(slot) => {
                slot.insert(vec![route]);
                None
            }
            Entry::Occupied(slot) => upsert(slot.into_mut(), route),
        };
        if old.is_none() {
            self.entries += 1;
        }
        old
    }

    /// Remove one path for a prefix.
    pub fn remove(&mut self, prefix: &Prefix, path_id: u32) -> Option<Route> {
        let paths = self.routes.get_mut(prefix)?;
        let old = paths.remove(find(paths, path_id).ok()?);
        self.entries -= 1;
        if paths.is_empty() {
            self.routes.remove(prefix);
        }
        Some(old)
    }

    /// Remove every path for a prefix (plain withdraw), in path-id order.
    pub fn remove_prefix(&mut self, prefix: &Prefix) -> Vec<Route> {
        let paths = self.routes.remove(prefix).unwrap_or_default();
        self.entries -= paths.len();
        paths
    }

    /// All paths currently held for a prefix, in path-id order.
    pub fn paths(&self, prefix: &Prefix) -> impl Iterator<Item = &Route> {
        self.routes.get(prefix).into_iter().flatten()
    }

    /// A specific path.
    pub fn get(&self, prefix: &Prefix, path_id: u32) -> Option<&Route> {
        let paths = self.routes.get(prefix)?;
        find(paths, path_id).ok().map(|i| &paths[i])
    }

    /// All `(prefix, route)` entries.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.values().flatten()
    }

    /// Distinct prefixes present.
    pub fn prefixes(&self) -> impl Iterator<Item = &Prefix> {
        self.routes.keys()
    }

    /// Number of `(prefix, path)` entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no routes are held.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct prefixes.
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }

    /// Replace every path held for `prefix` with `routes` in one step.
    /// The peer-group export engine uses this to commit a staged export
    /// computation into the group's shared Adj-RIB-Out base. A prefix's
    /// new path set starts exactly sized; in a held one, paths that stay
    /// are overwritten where they sit, so the common commit — one path
    /// replaced by its successor — allocates nothing.
    pub fn set_prefix<'a>(
        &mut self,
        prefix: &Prefix,
        routes: impl Iterator<Item = &'a Route> + Clone,
    ) {
        let mut rest = routes.clone();
        let Some(first) = rest.next() else {
            self.remove_prefix(prefix);
            return;
        };
        debug_assert!(
            routes.clone().all(|r| r.prefix == *prefix),
            "route committed under wrong prefix"
        );
        match self.routes.entry(*prefix) {
            Entry::Vacant(slot) => {
                let paths = slot.insert(vec![first.clone()]);
                for route in rest {
                    upsert(paths, route.clone());
                }
                self.entries += paths.len();
            }
            Entry::Occupied(slot) => {
                let paths = slot.into_mut();
                let before = paths.len();
                paths.retain(|held| routes.clone().any(|r| r.path_id == held.path_id));
                for route in routes {
                    upsert(paths, route.clone());
                }
                self.entries = self.entries - before + paths.len();
            }
        }
    }

    /// Drop everything, returning the affected prefixes (for re-decision).
    pub fn clear(&mut self) -> Vec<Prefix> {
        let prefixes: Vec<Prefix> = self.routes.keys().copied().collect();
        self.routes.clear();
        self.entries = 0;
        prefixes
    }

    /// Structural invariants of the table. Called behind `debug_assert!`
    /// by the speaker after RIB mutations; returns the first violated
    /// invariant as text so failures are self-describing.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0;
        for (prefix, paths) in &self.routes {
            if paths.is_empty() {
                return Err(format!("empty path set retained for {prefix}"));
            }
            for route in paths {
                if route.prefix != *prefix {
                    return Err(format!(
                        "route keyed under {prefix} carries prefix {}",
                        route.prefix
                    ));
                }
            }
            if let Some(pair) = paths.windows(2).find(|w| w[0].path_id >= w[1].path_id) {
                return Err(format!(
                    "path ids under {prefix} not strictly increasing: {} then {}",
                    pair[0].path_id, pair[1].path_id
                ));
            }
            counted += paths.len();
        }
        if counted != self.entries {
            return Err(format!(
                "entry counter {} disagrees with stored routes {counted}",
                self.entries
            ));
        }
        Ok(())
    }
}

/// The Loc-RIB: the best route per prefix after the decision process.
///
/// Backed by a binary radix trie ([`PrefixTrie`]) so exact lookup,
/// longest-prefix match, and covered-range walks are `O(prefix length)`
/// instead of map scans at full-table scale. The trie's preorder
/// iteration equals the old `BTreeMap<Prefix, Route>` order bit for bit,
/// so [`iter`](Self::iter) — the source of convergence digests and
/// collector RIB dumps (`nd-hash-iter` contract) — is unchanged.
#[derive(Debug, Clone, Default)]
pub struct LocRib {
    best: PrefixTrie<Route>,
}

impl LocRib {
    /// Create an empty Loc-RIB.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install `route` as best for its prefix, returning the previous best.
    pub fn set_best(&mut self, route: Route) -> Option<Route> {
        self.best.insert(route.prefix, route)
    }

    /// Remove the best route for a prefix.
    pub fn remove(&mut self, prefix: &Prefix) -> Option<Route> {
        self.best.remove(prefix)
    }

    /// The best route for a prefix.
    pub fn get(&self, prefix: &Prefix) -> Option<&Route> {
        self.best.get(prefix)
    }

    /// The most specific best route covering `addr`.
    pub fn longest_match(&self, addr: std::net::IpAddr) -> Option<&Route> {
        self.best.longest_match(addr).map(|(_, r)| r)
    }

    /// All best routes covered by `prefix` (including the exact entry),
    /// in prefix order.
    pub fn covered<'a>(&'a self, prefix: &Prefix) -> impl Iterator<Item = &'a Route> {
        self.best.covered(prefix).map(|(_, r)| r)
    }

    /// All best routes whose prefix covers `prefix`, shortest first.
    pub fn covering(&self, prefix: &Prefix) -> Vec<&Route> {
        self.best
            .covering(prefix)
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    /// All best routes, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.best.values()
    }

    /// Number of prefixes with a best route.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }

    /// Trie nodes backing the table (memory accounting).
    pub fn node_count(&self) -> usize {
        self.best.node_count()
    }

    /// Bytes held in trie nodes (memory accounting, excluding allocator
    /// headers).
    pub fn node_bytes(&self) -> usize {
        self.best.node_bytes()
    }

    /// Structural invariants: every best route is stored under its own
    /// prefix.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (prefix, route) in self.best.iter() {
            if route.prefix != prefix {
                return Err(format!(
                    "best route keyed under {prefix} carries prefix {}",
                    route.prefix
                ));
            }
        }
        Ok(())
    }
}

/// Mix a route set ([`LocRib::iter`], [`AdjRib::iter`]) into `h` in
/// canonical form: one line per route, sorted, each followed by `;`.
/// `learned_at` and `trace` are left out, so the digest depends on what
/// BGP decided and never on arrival timing or observational provenance.
/// This is the one definition behind every convergence, bystander and
/// chaos digest pinned in the goldens and `results/`.
///
/// A line is exactly the bytes of
/// `format!("{:?} peer={:?} path_id={} source={:?} igp={} attrs={:?}",
/// prefix, peer, path_id, source, igp_cost, attrs)`, the form the pinned
/// digests were taken with, but every line is written straight into one
/// buffer and sorted as a byte range, without a `String` or a formatter
/// per route. `crates/bgp/tests/digest_model.rs` holds the `format!`
/// form as the model and checks the two agree on seeded route sets.
pub fn digest_routes<'a>(h: &mut Fnv1a, routes: impl IntoIterator<Item = &'a Route>) {
    let routes: Vec<&Route> = routes.into_iter().collect();
    let mut buf = Vec::new();
    let mut lines: Vec<(usize, usize)> = Vec::with_capacity(routes.len());
    for route in &routes {
        let start = buf.len();
        write_digest_line(&mut buf, route);
        if start == 0 {
            // A table's lines differ mostly by a few AS numbers: size the
            // buffer once from the first, rather than doubling up to it.
            let per_line = buf.len() + buf.len() / 4;
            buf.reserve_exact(per_line * (routes.len() - 1));
        }
        lines.push((start, buf.len()));
    }
    // Equal ranges hold equal bytes, so an unstable sort hashes the same.
    lines.sort_unstable_by(|&(a, b), &(c, d)| buf[a..b].cmp(&buf[c..d]));
    for &(start, end) in &lines {
        h.write(&buf[start..end]);
        h.write(b";");
    }
}

/// Append `route`'s digest line to `buf`: what the derived (and, for
/// prefixes and addresses, hand-written) `Debug` forms print.
fn write_digest_line(buf: &mut Vec<u8>, route: &Route) {
    match route.prefix {
        Prefix::V4(p) => {
            write_ipv4(buf, p.network());
            buf.push(b'/');
            write_u32(buf, u32::from(p.len()));
        }
        Prefix::V6(p) => {
            use std::io::Write as _;
            // Writing into a `Vec` cannot fail.
            let _ = write!(buf, "{p}");
        }
    }
    buf.extend_from_slice(b" peer=PeerId(");
    write_u32(buf, route.peer.0);
    buf.extend_from_slice(b") path_id=");
    write_u32(buf, route.path_id);
    buf.extend_from_slice(match route.source {
        RouteSource::Ebgp => b" source=Ebgp igp=",
        RouteSource::Ibgp => b" source=Ibgp igp=",
        RouteSource::Local => b" source=Local igp=",
    });
    write_u32(buf, route.igp_cost);
    let attrs = &*route.attrs;
    buf.extend_from_slice(match attrs.origin {
        Origin::Igp => b" attrs=PathAttributes { origin: Igp, as_path: AsPath { segments: [",
        Origin::Egp => b" attrs=PathAttributes { origin: Egp, as_path: AsPath { segments: [",
        Origin::Incomplete => {
            b" attrs=PathAttributes { origin: Incomplete, as_path: AsPath { segments: ["
        }
    });
    for (k, segment) in attrs.as_path.segments.iter().enumerate() {
        if k > 0 {
            buf.extend_from_slice(b", ");
        }
        let (head, asns): (&[u8], _) = match segment {
            AsPathSegment::Sequence(asns) => (b"Sequence([", asns),
            AsPathSegment::Set(asns) => (b"Set([", asns),
        };
        buf.extend_from_slice(head);
        write_list(buf, asns, b"Asn(", |a| a.0);
        buf.extend_from_slice(b"])");
    }
    buf.extend_from_slice(b"] }, next_hop: ");
    write_ipv4(buf, attrs.next_hop);
    buf.extend_from_slice(b", med: ");
    write_option_u32(buf, attrs.med);
    buf.extend_from_slice(b", local_pref: ");
    write_option_u32(buf, attrs.local_pref);
    buf.extend_from_slice(match attrs.atomic_aggregate {
        true => b", atomic_aggregate: true, aggregator: ",
        false => b", atomic_aggregate: false, aggregator: ",
    });
    match attrs.aggregator {
        None => buf.extend_from_slice(b"None"),
        Some((asn, router)) => {
            buf.extend_from_slice(b"Some((Asn(");
            write_u32(buf, asn.0);
            buf.extend_from_slice(b"), ");
            write_ipv4(buf, router);
            buf.extend_from_slice(b"))");
        }
    }
    buf.extend_from_slice(b", communities: [");
    write_list(buf, &attrs.communities, b"Community(", |c| c.0);
    buf.extend_from_slice(b"] }");
}

/// `[a, b]`'s inside as `Debug` prints a list of one-field tuple structs:
/// `Name(1), Name(2)`, `name` being `Name(`.
fn write_list<T>(buf: &mut Vec<u8>, items: &[T], name: &[u8], field: impl Fn(&T) -> u32) {
    for (k, item) in items.iter().enumerate() {
        if k > 0 {
            buf.extend_from_slice(b", ");
        }
        buf.extend_from_slice(name);
        write_u32(buf, field(item));
        buf.push(b')');
    }
}

fn write_option_u32(buf: &mut Vec<u8>, value: Option<u32>) {
    match value {
        None => buf.extend_from_slice(b"None"),
        Some(v) => {
            buf.extend_from_slice(b"Some(");
            write_u32(buf, v);
            buf.push(b')');
        }
    }
}

fn write_ipv4(buf: &mut Vec<u8>, addr: std::net::Ipv4Addr) {
    let [a, b, c, d] = addr.octets();
    for (k, octet) in [a, b, c, d].into_iter().enumerate() {
        if k > 0 {
            buf.push(b'.');
        }
        write_u32(buf, u32::from(octet));
    }
}

/// `v` in decimal, as `Display` prints it.
fn write_u32(buf: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// One interned attribute set. It hashes and compares by value, and
/// borrows as [`PathAttributes`], so the table can be probed with a
/// decoded set before any `Arc` exists.
#[derive(Debug)]
struct Interned(Arc<PathAttributes>);

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        *self.0 == *other.0
    }
}

impl Eq for Interned {}

impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl std::borrow::Borrow<PathAttributes> for Interned {
    fn borrow(&self) -> &PathAttributes {
        &self.0
    }
}

/// A handle on a table of interned path attributes, so identical
/// attribute sets share one allocation across RIB entries, sessions and
/// every speaker that holds a handle on the same table.
///
/// [`new`](Self::new) makes a table of its own; [`share`](Self::share)
/// makes another handle on the same table, as the engine shards of
/// `peering_workloads::ScaleTopo` hand one to each speaker they build.
/// Handles are cheap (`Rc<RefCell<…>>`, as `Telemetry` is), and each
/// counts its own [`hits`](Self::hits) and [`misses`](Self::misses).
///
/// Disabling interning ([`disabled`](Self::disabled)) is the ablation for
/// the Figure 2 experiment: every route then carries a private copy,
/// which is how a naive implementation's memory curve would look.
#[derive(Debug, Default)]
pub struct AttrInterner {
    /// The shared set; `None` when interning is disabled.
    table: Option<Rc<RefCell<HashSet<Interned>>>>,
    /// Times this handle reused an existing allocation.
    pub hits: u64,
    /// Times this handle created a new allocation.
    pub misses: u64,
}

impl AttrInterner {
    /// A working interner on a table of its own.
    pub fn new() -> Self {
        AttrInterner {
            table: Some(Rc::default()),
            ..Default::default()
        }
    }

    /// An interner that always allocates (ablation mode).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Another handle on this interner's table, with counters of its
    /// own. A disabled interner's handles are disabled too.
    pub fn share(&self) -> Self {
        AttrInterner {
            table: self.table.clone(),
            ..Default::default()
        }
    }

    /// Whether interning is active.
    pub fn is_enabled(&self) -> bool {
        self.table.is_some()
    }

    /// Return a shared allocation equal to `attrs`.
    pub fn intern(&mut self, attrs: PathAttributes) -> Arc<PathAttributes> {
        let Some(table) = &self.table else {
            self.misses += 1;
            return Arc::new(attrs);
        };
        let mut table = table.borrow_mut();
        if let Some(held) = table.get(&attrs) {
            self.hits += 1;
            return Arc::clone(&held.0);
        }
        self.misses += 1;
        let arc = Arc::new(attrs);
        table.insert(Interned(Arc::clone(&arc)));
        arc
    }

    /// Drop the table's entries that nothing else references, whichever
    /// handle interned them: a set stays while any speaker holds it.
    pub fn gc(&mut self) -> usize {
        let Some(table) = &self.table else {
            return 0;
        };
        let mut table = table.borrow_mut();
        let before = table.len();
        // Hash order: each entry is kept by its refcount alone, so visit
        // order cannot alter the surviving set.
        table.retain(|held| Arc::strong_count(&held.0) > 1);
        before - table.len()
    }

    /// Number of distinct attribute sets in the table, interned through
    /// any of its handles.
    pub fn len(&self) -> usize {
        self.table.as_ref().map_or(0, |t| t.borrow().len())
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum `charge` over the table's attribute sets (memory accounting).
    pub fn sum_over_sets(&self, charge: impl Fn(&PathAttributes) -> usize) -> usize {
        let Some(table) = &self.table else {
            return 0;
        };
        // Hash order: an integer sum, which order cannot reach.
        table.borrow().iter().map(|held| charge(&held.0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use peering_netsim::Asn;

    #[test]
    fn a_route_is_72_bytes() {
        // A 20-byte `Prefix` keeps it at 72; a `u128` v6 address made it 96.
        assert_eq!(std::mem::size_of::<Route>(), 72);
    }

    fn route(prefix: Prefix, path_id: u32, first_as: u32) -> Route {
        Route {
            prefix,
            attrs: Arc::new(PathAttributes {
                as_path: AsPath::from_asns(&[Asn(first_as)]),
                ..Default::default()
            }),
            peer: PeerId(1),
            path_id,
            source: RouteSource::Ebgp,
            igp_cost: 0,
            learned_at: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn adj_rib_insert_replace_remove() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        assert!(rib.insert(route(p, 0, 1)).is_none());
        assert_eq!(rib.len(), 1);
        // Replacement keeps entry count.
        let old = rib.insert(route(p, 0, 2)).unwrap();
        assert_eq!(old.attrs.as_path.first_as(), Some(Asn(1)));
        assert_eq!(rib.len(), 1);
        assert_eq!(
            rib.get(&p, 0).unwrap().attrs.as_path.first_as(),
            Some(Asn(2))
        );
        assert!(rib.remove(&p, 0).is_some());
        assert!(rib.is_empty());
        assert!(rib.remove(&p, 0).is_none());
    }

    #[test]
    fn adj_rib_multiple_paths_per_prefix() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        rib.insert(route(p, 1, 100));
        rib.insert(route(p, 2, 200));
        rib.insert(route(p, 3, 300));
        assert_eq!(rib.len(), 3);
        assert_eq!(rib.prefix_count(), 1);
        assert_eq!(rib.paths(&p).count(), 3);
        // Paths iterate in path-id order.
        let ids: Vec<u32> = rib.paths(&p).map(|r| r.path_id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        let removed = rib.remove_prefix(&p);
        assert_eq!(removed.len(), 3);
        assert!(rib.is_empty());
    }

    #[test]
    fn adj_rib_clear_reports_prefixes() {
        let mut rib = AdjRib::new();
        rib.insert(route(Prefix::v4(10, 0, 0, 0, 8), 0, 1));
        rib.insert(route(Prefix::v4(20, 0, 0, 0, 8), 0, 1));
        let mut cleared = rib.clear();
        cleared.sort();
        assert_eq!(cleared.len(), 2);
        assert!(rib.is_empty());
        assert_eq!(rib.prefix_count(), 0);
    }

    #[test]
    fn loc_rib_basics() {
        let mut rib = LocRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        assert!(rib.set_best(route(p, 0, 1)).is_none());
        assert!(rib.set_best(route(p, 0, 2)).is_some());
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(&p).unwrap().attrs.as_path.first_as(), Some(Asn(2)));
        assert!(rib.remove(&p).is_some());
        assert!(rib.is_empty());
    }

    #[test]
    fn interner_shares_equal_attrs() {
        let mut int = AttrInterner::new();
        let a1 = PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1), Asn(2)]),
            ..Default::default()
        };
        let a2 = a1.clone();
        let arc1 = int.intern(a1);
        let arc2 = int.intern(a2);
        assert!(Arc::ptr_eq(&arc1, &arc2));
        assert_eq!(int.len(), 1);
        assert_eq!(int.hits, 1);
        assert_eq!(int.misses, 1);
    }

    #[test]
    fn interner_distinguishes_different_attrs() {
        let mut int = AttrInterner::new();
        let arc1 = int.intern(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            ..Default::default()
        });
        let arc2 = int.intern(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(2)]),
            ..Default::default()
        });
        assert!(!Arc::ptr_eq(&arc1, &arc2));
        assert_eq!(int.len(), 2);
    }

    #[test]
    fn interner_disabled_always_allocates() {
        let mut int = AttrInterner::disabled();
        let a = PathAttributes::default();
        let arc1 = int.intern(a.clone());
        let arc2 = int.intern(a);
        assert!(!Arc::ptr_eq(&arc1, &arc2));
        assert!(int.is_empty());
        assert!(!int.is_enabled());
    }

    #[test]
    fn interner_gc_frees_unreferenced() {
        let mut int = AttrInterner::new();
        {
            let _arc = int.intern(PathAttributes::default());
            // _arc dropped here
        }
        let kept = int.intern(PathAttributes {
            med: Some(5),
            ..Default::default()
        });
        assert_eq!(int.len(), 2);
        let freed = int.gc();
        assert_eq!(freed, 1);
        assert_eq!(int.len(), 1);
        drop(kept);
    }

    #[test]
    fn handles_share_one_table_and_count_their_own_lookups() {
        let mut first = AttrInterner::new();
        let mut second = first.share();
        let attrs = PathAttributes {
            med: Some(5),
            ..Default::default()
        };
        let a = first.intern(attrs.clone());
        let b = second.intern(attrs);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((first.hits, first.misses), (0, 1));
        assert_eq!((second.hits, second.misses), (1, 0));
        assert_eq!((first.len(), second.len()), (1, 1));
        assert!(!AttrInterner::disabled().share().is_enabled());
    }

    #[test]
    fn rib_invariants_hold_across_mutations() {
        let mut rib = AdjRib::new();
        let p = Prefix::v4(10, 0, 0, 0, 8);
        rib.check_invariants().unwrap();
        rib.insert(route(p, 1, 100));
        rib.insert(route(p, 2, 200));
        rib.check_invariants().unwrap();
        rib.remove(&p, 1);
        rib.check_invariants().unwrap();
        rib.remove_prefix(&p);
        rib.check_invariants().unwrap();
        let mut loc = LocRib::new();
        loc.set_best(route(p, 0, 1));
        loc.check_invariants().unwrap();
    }

    #[test]
    fn adj_rib_invariants_reject_unsorted_path_ids() {
        let p = Prefix::v4(10, 0, 0, 0, 8);
        for ids in [[2, 1], [1, 1]] {
            let rib = AdjRib {
                routes: BTreeMap::from([(p, ids.map(|id| route(p, id, 1)).to_vec())]),
                entries: 2,
            };
            let err = rib.check_invariants().unwrap_err();
            assert!(err.contains("not strictly increasing"), "{ids:?}: {err}");
        }
    }

    #[test]
    fn peer_id_display() {
        assert_eq!(PeerId(3).to_string(), "peer3");
        assert_eq!(PeerId::LOCAL.to_string(), "local");
    }
}
