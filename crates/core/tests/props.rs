//! Property tests for the testbed core: the allocator never double-books
//! address space, and the safety filter never lets foreign space out.

use peering_core::{AllocError, PrefixAllocator, SafetyConfig, SafetyFilter, SafetyVerdict};
use peering_netsim::{Asn, Ipv4Net, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

proptest! {
    /// Any interleaving of allocate/release keeps allocations disjoint
    /// and inside the pool, and capacity is conserved.
    #[test]
    fn allocator_never_double_books(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut alloc = PrefixAllocator::peering_default();
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let mut held: Vec<Ipv4Net> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            if op {
                match alloc.allocate(i as u32) {
                    Ok(p) => {
                        prop_assert!(pool.covers(&p));
                        for h in &held {
                            prop_assert!(!h.overlaps(&p), "{h} overlaps {p}");
                        }
                        held.push(p);
                    }
                    Err(AllocError::Exhausted) => {
                        prop_assert_eq!(held.len(), 32);
                    }
                    Err(e) => prop_assert!(false, "unexpected {e}"),
                }
            } else if let Some(p) = held.pop() {
                alloc.release(p).unwrap();
            }
            prop_assert_eq!(alloc.available() + held.len(), 32);
        }
    }

    /// Ownership lookups agree with what was allocated.
    #[test]
    fn owner_of_is_accurate(n in 1usize..32) {
        let mut alloc = PrefixAllocator::peering_default();
        let mut mine = HashSet::new();
        for tag in 0..n as u32 {
            let p = alloc.allocate(tag).unwrap();
            prop_assert_eq!(alloc.owner_of(&p), Some(tag));
            mine.insert(p);
        }
        // Unallocated pool space has no owner.
        let mut probe = None;
        for cand in "184.164.224.0/19".parse::<Ipv4Net>().unwrap().subnets(24) {
            if !mine.contains(&cand) {
                probe = Some(cand);
                break;
            }
        }
        if let Some(p) = probe {
            prop_assert_eq!(alloc.owner_of(&p), None);
        }
    }

    /// The safety filter blocks every announcement outside PEERING space,
    /// for arbitrary prefixes.
    #[test]
    fn foreign_space_never_escapes(addr in any::<u32>(), len in 8u8..=28) {
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let owned: Ipv4Net = "184.164.224.0/24".parse().unwrap();
        let mut filter = SafetyFilter::new(SafetyConfig::new(vec![pool], vec![Asn::PEERING]));
        let prefix = Ipv4Net::new(Ipv4Addr::from(addr), len);
        let verdict = filter.check_announcement(
            1, owned.into(), prefix.into(), Asn::PEERING, 0, 0, SimTime::ZERO,
        );
        if pool.covers(&prefix) && owned.covers(&prefix) {
            prop_assert!(verdict.is_allowed());
        } else {
            prop_assert!(matches!(verdict, SafetyVerdict::Blocked(_)), "{prefix} escaped");
        }
    }

    /// Spoof control: only sources inside the experiment prefix (or an
    /// explicit allowlist) pass.
    #[test]
    fn spoofed_sources_never_escape(src in any::<u32>()) {
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let owned: Ipv4Net = "184.164.230.0/24".parse().unwrap();
        let mut filter = SafetyFilter::new(SafetyConfig::new(vec![pool], vec![Asn::PEERING]));
        let ip = Ipv4Addr::from(src);
        let verdict = filter.check_packet_source(1, &owned, ip);
        prop_assert_eq!(verdict.is_allowed(), owned.contains(ip));
    }
}
