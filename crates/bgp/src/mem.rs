//! Deep memory accounting for BGP table structures.
//!
//! Figure 2 of the paper plots "BGP table memory usage as # of prefixes
//! and peers increases" for a Quagga router inside a MinineXt container.
//! To regenerate that figure honestly we measure *our own* structures:
//! every type that participates in a RIB reports its deep size — struct
//! plus owned heap, with container overheads modeled explicitly.

use crate::attrs::{AsPathSegment, PathAttributes};
use crate::rib::{AdjRib, AttrInterner, LocRib, Route};
use std::collections::HashSet;
use std::mem::size_of;
use std::sync::Arc;

/// Approximate per-entry bookkeeping overhead of a `HashMap`
/// (control bytes, capacity slack, bucket metadata).
pub const HASH_ENTRY_OVERHEAD: usize = 48;
/// Approximate per-entry overhead of a `BTreeMap` (node amortization).
pub const BTREE_ENTRY_OVERHEAD: usize = 16;
/// Allocator header cost charged per heap allocation.
pub const ALLOC_HEADER: usize = 16;

/// Types that can report the bytes they own, including heap.
pub trait DeepSize {
    /// Total owned bytes: the value itself plus everything it points to.
    fn deep_size(&self) -> usize;
}

impl DeepSize for PathAttributes {
    fn deep_size(&self) -> usize {
        let mut sz = size_of::<PathAttributes>();
        for seg in &self.as_path.segments {
            sz += size_of::<AsPathSegment>() + ALLOC_HEADER;
            match seg {
                AsPathSegment::Sequence(v) | AsPathSegment::Set(v) => {
                    sz += v.capacity() * size_of::<peering_netsim::Asn>();
                }
            }
        }
        if self.as_path.segments.capacity() > 0 {
            sz += ALLOC_HEADER;
        }
        if self.communities.capacity() > 0 {
            sz += ALLOC_HEADER + self.communities.capacity() * size_of::<crate::attrs::Community>();
        }
        sz
    }
}

impl DeepSize for Route {
    /// The route entry itself. The attribute allocation is *not* charged
    /// here (it is shared); use [`rib_memory`] to account for a whole
    /// table with sharing handled correctly.
    fn deep_size(&self) -> usize {
        size_of::<Route>()
    }
}

impl DeepSize for AdjRib {
    /// A model of the table's old two-level layout, a `BTreeMap` of
    /// per-prefix `BTreeMap`s: each outer entry and each (path id, route)
    /// entry is charged its bytes plus [`BTREE_ENTRY_OVERHEAD`]. The path
    /// sets are sorted `Vec`s now, and the counting allocator measures
    /// 156 B per one-path prefix (`tests/rib_memory.rs`) where the model
    /// charges 128 B and the old inner leaf cost 1,257 B. The model moves
    /// only with its types' sizes (`router_feed.table_bytes_per_route`,
    /// `results/fig2.json`); ROADMAP item 1(d) decides whether Fig. 2
    /// keeps it or takes the allocator's count instead.
    fn deep_size(&self) -> usize {
        let mut sz = size_of::<AdjRib>();
        sz += self.prefix_count() * (size_of::<peering_netsim::Prefix>() + BTREE_ENTRY_OVERHEAD);
        sz += self.len() * (size_of::<u32>() + size_of::<Route>() + BTREE_ENTRY_OVERHEAD);
        sz
    }
}

impl DeepSize for LocRib {
    /// The Loc-RIB is trie-backed: charge every heap node (which embeds
    /// its `Option<Route>` slot inline) plus an allocator header each.
    fn deep_size(&self) -> usize {
        size_of::<LocRib>() + self.node_bytes() + self.node_count() * ALLOC_HEADER
    }
}

impl DeepSize for AttrInterner {
    /// The handle plus its whole table: a table shared by many handles is
    /// charged in full to each of them.
    fn deep_size(&self) -> usize {
        // Per set: its table slot and the shared allocation.
        size_of::<AttrInterner>()
            + self.sum_over_sets(|attrs| HASH_ENTRY_OVERHEAD + ALLOC_HEADER + attrs.deep_size())
    }
}

/// Account for a set of RIBs that share attributes.
///
/// Shared `Arc<PathAttributes>` allocations are charged exactly once no
/// matter how many routes reference them — which is the point of the
/// interning design and the reason the Figure 2 curve stays sub-linear in
/// peers for identical route sets.
pub fn rib_memory<'a>(ribs: impl Iterator<Item = &'a AdjRib>, loc_rib: Option<&LocRib>) -> usize {
    let mut seen: HashSet<*const PathAttributes> = HashSet::new();
    let mut total = 0usize;
    let charge_route = |route: &Route, seen: &mut HashSet<*const PathAttributes>| {
        let ptr = Arc::as_ptr(&route.attrs);
        if seen.insert(ptr) {
            ALLOC_HEADER + route.attrs.deep_size()
        } else {
            0
        }
    };
    for rib in ribs {
        total += rib.deep_size();
        for route in rib.iter() {
            total += charge_route(route, &mut seen);
        }
    }
    if let Some(lr) = loc_rib {
        total += lr.deep_size();
        for route in lr.iter() {
            total += charge_route(route, &mut seen);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::rib::{PeerId, RouteSource};
    use peering_netsim::{Asn, Prefix, SimTime};

    fn attrs(n_hops: u32) -> PathAttributes {
        let asns: Vec<Asn> = (1..=n_hops).map(Asn).collect();
        PathAttributes {
            as_path: AsPath::from_asns(&asns),
            ..Default::default()
        }
    }

    fn route(prefix: Prefix, attrs: Arc<PathAttributes>) -> Route {
        Route {
            prefix,
            attrs,
            peer: PeerId(1),
            path_id: 0,
            source: RouteSource::Ebgp,
            igp_cost: 0,
            learned_at: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn attrs_size_grows_with_path_and_communities() {
        let small = attrs(1).deep_size();
        let big = attrs(20).deep_size();
        assert!(big > small);
        let mut with_comm = attrs(1);
        for i in 0..10 {
            with_comm.add_community(crate::attrs::Community::new(1, i));
        }
        assert!(with_comm.deep_size() > small);
    }

    #[test]
    fn empty_attrs_is_just_the_struct() {
        let a = PathAttributes::default();
        assert_eq!(a.deep_size(), size_of::<PathAttributes>());
    }

    #[test]
    fn adj_rib_memory_linear_in_routes() {
        let shared = Arc::new(attrs(3));
        let mut rib_small = AdjRib::new();
        let mut rib_big = AdjRib::new();
        for i in 0..10u32 {
            rib_small.insert(route(
                Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24),
                Arc::clone(&shared),
            ));
        }
        for i in 0..1000u32 {
            rib_big.insert(route(
                Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24),
                Arc::clone(&shared),
            ));
        }
        let small = rib_small.deep_size();
        let big = rib_big.deep_size();
        assert!(big > small * 50, "big={big} small={small}");
    }

    #[test]
    fn shared_attrs_charged_once() {
        let shared = Arc::new(attrs(5));
        let mut a = AdjRib::new();
        let mut b = AdjRib::new();
        for i in 0..100u32 {
            let p = Prefix::v4(10, 0, i as u8, 0, 24);
            a.insert(route(p, Arc::clone(&shared)));
            b.insert(route(p, Arc::clone(&shared)));
        }
        let together = rib_memory([&a, &b].into_iter(), None);
        // With sharing, the attribute blob appears once; tables dominate.
        let unshared_estimate = a.deep_size() + b.deep_size() + 200 * shared.deep_size();
        assert!(together < unshared_estimate);
        assert!(together >= a.deep_size() + b.deep_size() + shared.deep_size());
    }

    #[test]
    fn unshared_attrs_charged_each() {
        let mut a = AdjRib::new();
        for i in 0..50u32 {
            let p = Prefix::v4(10, 0, i as u8, 0, 24);
            a.insert(route(p, Arc::new(attrs(5)))); // distinct allocations
        }
        let total = rib_memory(std::iter::once(&a), None);
        let one_attr = attrs(5).deep_size();
        assert!(total > a.deep_size() + 50 * one_attr);
    }

    #[test]
    fn loc_rib_counted() {
        let shared = Arc::new(attrs(2));
        let mut lr = LocRib::new();
        for i in 0..10u32 {
            lr.set_best(route(
                Prefix::v4(10, 0, i as u8, 0, 24),
                Arc::clone(&shared),
            ));
        }
        let with = rib_memory(std::iter::empty(), Some(&lr));
        assert!(with > lr.deep_size());
        let without = rib_memory(std::iter::empty(), None);
        assert_eq!(without, 0);
    }

    #[test]
    fn interner_memory_counts_entries() {
        let mut int = AttrInterner::new();
        let a1 = int.intern(attrs(3));
        let empty_sz = AttrInterner::new().deep_size();
        assert!(int.deep_size() > empty_sz);
        drop(a1);
    }
}
