//! The parallel engine's node partition: which shard runs each node.
//!
//! `run_parallel` cuts a host-supplied node order into equal-count runs;
//! the module doc of [`super`] explains why no order can change a run and
//! why a customer-cone order balances.

use crate::transport::NodeId;

/// Which shard owns each node, and where: shard `s` holds the ids of
/// `order[s·n/shards .. (s+1)·n/shards]` in ascending order.
pub(super) struct Partition {
    /// Per shard, its node ids, ascending; a node's local slot is its
    /// index here.
    pub(super) ids: Vec<Vec<NodeId>>,
    /// Per node id, its owning shard.
    pub(super) shard_of: Vec<u32>,
    /// Per node id, its slot in the owning shard's `ids`.
    pub(super) slot: Vec<u32>,
}

impl Partition {
    /// Cut `order` into `shards` equal-count runs. Panics unless `order`
    /// is a permutation of `0..order.len()`.
    pub(super) fn new(order: &[NodeId], shards: usize) -> Partition {
        let n = order.len();
        let mut shard_of = vec![u32::MAX; n];
        let ids: Vec<Vec<NodeId>> = (0..shards)
            .map(|s| {
                let mut run = order[s * n / shards..(s + 1) * n / shards].to_vec();
                for id in &run {
                    match shard_of.get_mut(id.0 as usize) {
                        Some(o) if *o == u32::MAX => *o = s as u32,
                        _ => panic!(
                            "run_parallel: the node order is not a permutation of 0..{n} \
                             ({id} is out of range or listed twice)"
                        ),
                    }
                }
                run.sort_unstable();
                run
            })
            .collect();
        let mut slot = vec![0; n];
        for run in &ids {
            for (li, id) in run.iter().enumerate() {
                slot[id.0 as usize] = li as u32;
            }
        }
        Partition {
            ids,
            shard_of,
            slot,
        }
    }
}
