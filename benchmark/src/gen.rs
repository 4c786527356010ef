//! Seeded input generators. The seed feeds only these: the programs
//! under test receive the generated inputs, never the seed's meaning.
//!
//! The *shape* of every input (how many routes, how many distinct
//! attribute sets, path lengths, batch sizes) is fixed, so the work is
//! the same on every seed; the seed picks the values (ASNs, address
//! blocks) and the order things arrive in.

use peering_bgp::{AsPath, Nlri, PathAttributes, Prefix, UpdateMessage};
use peering_netsim::{Asn, SimRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Feeder sessions of `router_feed`.
pub const FEEDERS: usize = 4;
/// Routes each feeder announces: a quarter of the 2014 table.
pub const ROUTES_PER_FEEDER: usize = 131_072;
/// NLRI per UPDATE message.
pub const BATCH: usize = 200;

/// ASN of feeder `p`.
pub fn feeder_asn(p: usize) -> Asn {
    Asn(100 + p as u32)
}

/// Next hop (and router id) of feeder `p`.
pub fn feeder_addr(p: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, 0, p as u8)
}

/// The UPDATE streams of `router_feed`, as messages.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedPlan {
    /// Phase 1, per feeder: announce every route. Paths have Fig. 2's
    /// diversity: a distinct first hop per feeder and one shared tail
    /// per batch; odd feeders are one hop longer.
    pub announce: Vec<Vec<UpdateMessage>>,
    /// Phase 2: feeder 0 withdraws every route.
    pub withdraw: Vec<UpdateMessage>,
    /// Phase 3: feeder 0 re-announces every route over a shorter path.
    pub replace: Vec<UpdateMessage>,
}

/// The `k`-th /24 of the table, in the block starting at `base`.0.0.0.
fn route_prefix(base: u8, k: usize) -> Prefix {
    Prefix::v4(base + (k >> 16) as u8, (k >> 8) as u8, k as u8, 0, 24)
}

impl FeedPlan {
    /// Generate the streams for `seed` at the workload's fixed sizes.
    pub fn generate(seed: u64) -> FeedPlan {
        FeedPlan::sized(seed, FEEDERS, ROUTES_PER_FEEDER)
    }

    /// Generate streams of another size (unit tests use small ones).
    pub fn sized(seed: u64, feeders: usize, routes: usize) -> FeedPlan {
        let rng = SimRng::new(seed).fork("router_feed");
        let mut values = rng.fork("values");
        let base = 20 + 2 * values.below(50) as u8;
        let batches: Vec<Vec<Nlri>> = (0..routes)
            .step_by(BATCH)
            .map(|i| {
                (i..routes.min(i + BATCH))
                    .map(|k| Nlri::plain(route_prefix(base, k)))
                    .collect()
            })
            .collect();
        // One (transit, origin) tail per batch, shared by all feeders:
        // the same origin reached over different first hops.
        let tails: Vec<(Asn, Asn)> = batches
            .iter()
            .map(|_| {
                (
                    Asn(3000 + values.below(700) as u32),
                    Asn(20_000 + values.below(32_768) as u32),
                )
            })
            .collect();
        let attrs = |p: usize, path: &[Asn]| {
            Arc::new(PathAttributes {
                as_path: AsPath::from_asns(path),
                next_hop: feeder_addr(p),
                ..Default::default()
            })
        };
        let shuffled = |label: &str| {
            let mut order: Vec<usize> = (0..batches.len()).collect();
            rng.fork(label).shuffle(&mut order);
            order
        };

        let announce = (0..feeders)
            .map(|p| {
                shuffled(&format!("announce/{p}"))
                    .into_iter()
                    .map(|b| {
                        let (transit, origin) = tails[b];
                        let path = if p % 2 == 1 {
                            vec![feeder_asn(p), Asn(64_000 + p as u32), transit, origin]
                        } else {
                            vec![feeder_asn(p), transit, origin]
                        };
                        UpdateMessage::announce(attrs(p, &path), batches[b].clone())
                    })
                    .collect()
            })
            .collect();
        let withdraw = shuffled("withdraw")
            .into_iter()
            .map(|b| UpdateMessage::withdraw(batches[b].clone()))
            .collect();
        let replace = shuffled("replace")
            .into_iter()
            .map(|b| {
                let path = [feeder_asn(0), tails[b].1];
                UpdateMessage::announce(attrs(0, &path), batches[b].clone())
            })
            .collect();
        FeedPlan {
            announce,
            withdraw,
            replace,
        }
    }
}

/// Tenants of the mux deployment.
pub const MUX_TENANTS: usize = 256;
/// Tenants that announce; the rest are passive identical-view tenants.
pub const MUX_ACTIVE: usize = 32;

/// The seeded choices of the `mux_*` workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MuxPlan {
    /// The active tenants; the `k`-th announces `tenant_prefix(k)`.
    pub active: Vec<usize>,
    /// A passive tenant whose view the output checks sample.
    pub witness: usize,
    /// Order in which the active tenants act within a round, per round
    /// (indices into `active`).
    pub rounds: Vec<Vec<usize>>,
}

impl MuxPlan {
    /// Choose for `seed`, with `rounds` rounds of tenant activity.
    pub fn generate(seed: u64, rounds: usize) -> MuxPlan {
        let rng = SimRng::new(seed).fork("mux");
        let mut picks = rng
            .fork("tenants")
            .distinct_indices(MUX_TENANTS, MUX_ACTIVE + 1);
        let witness = picks.pop().expect("one more pick than active tenants");
        let mut order = rng.fork("rounds");
        let rounds = (0..rounds)
            .map(|_| {
                let mut round: Vec<usize> = (0..MUX_ACTIVE).collect();
                order.shuffle(&mut round);
                round
            })
            .collect();
        MuxPlan {
            active: picks,
            witness,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_plan_is_a_pure_function_of_the_seed() {
        let a = FeedPlan::sized(42, 4, 1000);
        assert_eq!(a, FeedPlan::sized(42, 4, 1000));
        assert_ne!(a, FeedPlan::sized(43, 4, 1000));
    }

    #[test]
    fn feed_plan_has_the_fixed_shape_on_every_seed() {
        for seed in [1, 7, 42] {
            let plan = FeedPlan::sized(seed, 4, 1000);
            assert_eq!(plan.announce.len(), 4);
            for (p, stream) in plan.announce.iter().enumerate() {
                assert_eq!(stream.len(), 5);
                let routes: usize = stream.iter().map(|u| u.announced.len()).sum();
                assert_eq!(routes, 1000);
                let hops = 3 + (p % 2) as u32;
                assert!(stream.iter().all(|u| u
                    .attrs
                    .as_ref()
                    .is_some_and(|a| a.as_path.hop_count() == hops)));
            }
            let withdrawn: usize = plan.withdraw.iter().map(|u| u.withdrawn.len()).sum();
            assert_eq!(withdrawn, 1000);
            assert!(plan
                .replace
                .iter()
                .all(|u| u.attrs.as_ref().is_some_and(|a| a.as_path.hop_count() == 2)));
        }
    }

    #[test]
    fn mux_plan_is_seeded_and_well_formed() {
        let a = MuxPlan::generate(42, 3);
        assert_eq!(a, MuxPlan::generate(42, 3));
        assert_ne!(a, MuxPlan::generate(7, 3));
        assert_eq!(a.active.len(), MUX_ACTIVE);
        assert!(!a.active.contains(&a.witness));
        assert!(a.active.iter().all(|&t| t < MUX_TENANTS));
        for round in &a.rounds {
            let mut sorted = round.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..MUX_ACTIVE).collect::<Vec<_>>());
        }
    }
}
