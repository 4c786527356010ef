//! A typed message network: nodes exchanging messages over links, driven
//! by the event queue.
//!
//! [`MsgNet`] is the transport that carries BGP messages between simulated
//! speakers. It owns the clock, the links, and the in-flight messages; the
//! caller (a BGP harness, the testbed) pulls deliveries one at a time with
//! [`MsgNet::next`] and feeds them into the receiving node's state machine.
//! Timers are modeled as messages a node sends to itself with a delay.

use crate::link::{Link, LinkParams, TxFailure};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node attached to the message network.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What kind of delivery this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryKind {
    /// A message that traversed a link from another node.
    Message,
    /// A self-scheduled timer firing.
    Timer,
}

/// A message arriving at a node.
#[derive(Debug, Clone)]
pub struct Delivery<M> {
    /// Sender (equals `to` for timers).
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Message or timer payload.
    pub msg: M,
    /// Message vs timer.
    pub kind: DeliveryKind,
    /// When the sender handed this to the network (timer scheduling time
    /// for timers). Together with the delivery timestamp this gives the
    /// collector per-hop propagation latency without re-deriving link
    /// parameters.
    pub sent_at: SimTime,
}

/// Per-direction link counters exported for telemetry. Snapshot of the
/// [`Link`] observability fields at the time of the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets successfully transmitted.
    pub tx_packets: u64,
    /// Packets dropped for any reason (down, MTU, loss, queue full).
    pub dropped: u64,
    /// Of `dropped`, those tail-dropped by a bounded transmit queue.
    pub tail_drops: u64,
    /// Deepest the bounded transmit queue ever got (packets).
    pub queue_peak: usize,
    /// Bytes successfully transmitted.
    pub tx_bytes: u64,
}

/// The message network. `M` is the application message type.
pub struct MsgNet<M> {
    queue: EventQueue<Delivery<M>>,
    links: BTreeMap<(NodeId, NodeId), Link>,
    rng: SimRng,
    /// Count of messages dropped by links (loss, down, MTU).
    pub drops: u64,
    /// Count of sends attempted on nonexistent links.
    pub no_route: u64,
    /// Count of link messages handed to receivers by [`MsgNet::next`].
    pub delivered: u64,
    /// Count of self-timers handed to receivers by [`MsgNet::next`].
    pub timers_fired: u64,
    /// Largest number of simultaneously in-flight deliveries seen.
    pub queue_high_water: usize,
}

impl<M> MsgNet<M> {
    /// Create a network with a deterministic RNG substream.
    pub fn new(rng: SimRng) -> Self {
        MsgNet {
            queue: EventQueue::new(),
            links: BTreeMap::new(),
            rng,
            drops: 0,
            no_route: 0,
            delivered: 0,
            timers_fired: 0,
            queue_high_water: 0,
        }
    }

    /// Current simulation time (time of last delivered event).
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Install a bidirectional link between `a` and `b`.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert((a, b), Link::new(params));
        self.links.insert((b, a), Link::new(params));
    }

    /// Set the operational state of the `a`->`b` and `b`->`a` link.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        if let Some(l) = self.links.get_mut(&(a, b)) {
            l.set_up(up);
        }
        if let Some(l) = self.links.get_mut(&(b, a)) {
            l.set_up(up);
        }
    }

    /// True if a usable (existing and up) link connects `a` to `b`.
    pub fn link_up(&self, a: NodeId, b: NodeId) -> bool {
        self.links.get(&(a, b)).map(Link::is_up).unwrap_or(false)
    }

    /// Direct access to a link's state (for counters/fault injection).
    pub fn link_mut(&mut self, a: NodeId, b: NodeId) -> Option<&mut Link> {
        self.links.get_mut(&(a, b))
    }

    /// Set the operational state of every link touching `node`, in both
    /// directions. Used by fault injection to partition a node off from
    /// (or heal it back into) the topology in one action.
    pub fn set_node_links_up(&mut self, node: NodeId, up: bool) {
        for ((a, b), link) in self.links.iter_mut() {
            if *a == node || *b == node {
                link.set_up(up);
            }
        }
    }

    /// Send `msg` of `size` bytes from `from` to `to` at the current time.
    ///
    /// Returns `true` if the message was accepted for delivery (it may
    /// still be reordered only by differing link delays, never within a
    /// link, because serialization occupies the transmitter FIFO).
    pub fn send(&mut self, from: NodeId, to: NodeId, size: usize, msg: M) -> bool {
        let now = self.queue.now();
        let Some(link) = self.links.get_mut(&(from, to)) else {
            self.no_route += 1;
            return false;
        };
        match link.transmit(now, size, &mut self.rng) {
            Ok(at) => {
                self.queue.push(
                    at,
                    Delivery {
                        from,
                        to,
                        msg,
                        kind: DeliveryKind::Message,
                        sent_at: now,
                    },
                );
                self.queue_high_water = self.queue_high_water.max(self.queue.len());
                true
            }
            Err(
                TxFailure::LinkDown
                | TxFailure::MtuExceeded
                | TxFailure::Lost
                | TxFailure::QueueFull,
            ) => {
                self.drops += 1;
                false
            }
        }
    }

    /// Schedule a timer on `node` to fire after `delay`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, msg: M) {
        let now = self.queue.now();
        self.queue.push(
            now + delay,
            Delivery {
                from: node,
                to: node,
                msg,
                kind: DeliveryKind::Timer,
                sent_at: now,
            },
        );
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
    }

    /// Pop the next delivery, advancing the clock to its timestamp.
    // Not an Iterator: popping mutates the simulated clock, and the
    // event queue refills between calls.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<(SimTime, Delivery<M>)> {
        let popped = self.queue.pop();
        if let Some((_, d)) = &popped {
            match d.kind {
                DeliveryKind::Message => self.delivered += 1,
                DeliveryKind::Timer => self.timers_fired += 1,
            }
        }
        popped
    }

    /// Per-direction link counters, sorted by `(from, to)` so iteration is
    /// deterministic regardless of `HashMap` order.
    pub fn link_stats(&self) -> Vec<((NodeId, NodeId), LinkStats)> {
        let mut out: Vec<_> = self
            .links
            .iter()
            .map(|(&key, link)| {
                (
                    key,
                    LinkStats {
                        tx_packets: link.tx_packets,
                        dropped: link.dropped,
                        tail_drops: link.tail_drops,
                        queue_peak: link.queue_peak,
                        tx_bytes: link.tx_bytes,
                    },
                )
            })
            .collect();
        out.sort_by_key(|(key, _)| *key);
        out
    }

    /// Total bounded-queue tail-drops across all links.
    pub fn tail_drops(&self) -> u64 {
        self.links.values().map(|l| l.tail_drops).sum()
    }

    /// Number of in-flight deliveries (messages plus pending timers).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is in flight.
    pub fn idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> MsgNet<&'static str> {
        MsgNet::new(SimRng::new(42))
    }

    #[test]
    fn delivers_in_order_over_one_link() {
        let mut n = net();
        n.add_link(
            NodeId(1),
            NodeId(2),
            LinkParams::with_delay(SimDuration::from_millis(10)),
        );
        assert!(n.send(NodeId(1), NodeId(2), 10, "a"));
        assert!(n.send(NodeId(1), NodeId(2), 10, "b"));
        let (t1, d1) = n.next().unwrap();
        let (t2, d2) = n.next().unwrap();
        assert_eq!((d1.msg, d2.msg), ("a", "b"));
        assert_eq!(t1, SimTime::from_millis(10));
        assert_eq!(t2, SimTime::from_millis(10));
        assert_eq!(d1.kind, DeliveryKind::Message);
        assert!(n.idle());
    }

    #[test]
    fn send_without_link_fails() {
        let mut n = net();
        assert!(!n.send(NodeId(1), NodeId(2), 10, "x"));
        assert_eq!(n.no_route, 1);
    }

    #[test]
    fn link_down_drops_and_counts() {
        let mut n = net();
        n.add_link(NodeId(1), NodeId(2), LinkParams::default());
        n.set_link_up(NodeId(1), NodeId(2), false);
        assert!(!n.link_up(NodeId(1), NodeId(2)));
        assert!(!n.send(NodeId(1), NodeId(2), 10, "x"));
        assert_eq!(n.drops, 1);
        n.set_link_up(NodeId(1), NodeId(2), true);
        assert!(n.send(NodeId(1), NodeId(2), 10, "x"));
    }

    #[test]
    fn timers_fire_at_requested_time() {
        let mut n = net();
        n.set_timer(NodeId(5), SimDuration::from_secs(30), "keepalive");
        n.set_timer(NodeId(5), SimDuration::from_secs(10), "connect-retry");
        let (t1, d1) = n.next().unwrap();
        assert_eq!(t1, SimTime::from_secs(10));
        assert_eq!(d1.msg, "connect-retry");
        assert_eq!(d1.kind, DeliveryKind::Timer);
        assert_eq!(d1.from, d1.to);
        let (t2, _) = n.next().unwrap();
        assert_eq!(t2, SimTime::from_secs(30));
    }

    #[test]
    fn clock_advances_with_deliveries() {
        let mut n = net();
        n.add_link(
            NodeId(1),
            NodeId(2),
            LinkParams::with_delay(SimDuration::from_millis(7)),
        );
        n.send(NodeId(1), NodeId(2), 1, "x");
        assert_eq!(n.now(), SimTime::ZERO);
        n.next();
        assert_eq!(n.now(), SimTime::from_millis(7));
        // A reply sent now arrives at 14ms.
        n.send(NodeId(2), NodeId(1), 1, "y");
        let (t, d) = n.next().unwrap();
        assert_eq!(t, SimTime::from_millis(14));
        assert_eq!(d.to, NodeId(1));
        // The delivery remembers when it was handed to the network.
        assert_eq!(d.sent_at, SimTime::from_millis(7));
    }

    #[test]
    fn node_wide_link_toggle_partitions_and_heals() {
        let mut n = net();
        n.add_link(NodeId(1), NodeId(2), LinkParams::default());
        n.add_link(NodeId(1), NodeId(3), LinkParams::default());
        n.add_link(NodeId(2), NodeId(3), LinkParams::default());
        n.set_node_links_up(NodeId(1), false);
        assert!(!n.link_up(NodeId(1), NodeId(2)));
        assert!(!n.link_up(NodeId(3), NodeId(1)));
        // The unrelated link stays up.
        assert!(n.link_up(NodeId(2), NodeId(3)));
        n.set_node_links_up(NodeId(1), true);
        assert!(n.link_up(NodeId(1), NodeId(2)));
        assert!(n.link_up(NodeId(1), NodeId(3)));
    }

    #[test]
    fn delivery_counters_and_link_stats() {
        let mut n = net();
        n.add_link(NodeId(1), NodeId(2), LinkParams::default());
        n.send(NodeId(1), NodeId(2), 100, "a");
        n.send(NodeId(1), NodeId(2), 50, "b");
        n.set_timer(NodeId(2), SimDuration::from_secs(1), "t");
        assert_eq!(n.queue_high_water, 3);
        while n.next().is_some() {}
        assert_eq!(n.delivered, 2);
        assert_eq!(n.timers_fired, 1);
        let stats = n.link_stats();
        assert_eq!(stats.len(), 2);
        // Sorted by (from, to): (1,2) before (2,1).
        assert_eq!(stats[0].0, (NodeId(1), NodeId(2)));
        assert_eq!(
            stats[0].1,
            LinkStats {
                tx_packets: 2,
                dropped: 0,
                tail_drops: 0,
                queue_peak: 0,
                tx_bytes: 150
            }
        );
        assert_eq!(stats[1].1.tx_packets, 0);
    }

    #[test]
    fn asymmetric_link_state_is_paired() {
        let mut n = net();
        n.add_link(NodeId(1), NodeId(2), LinkParams::default());
        // set_link_up affects both directions.
        n.set_link_up(NodeId(2), NodeId(1), false);
        assert!(!n.link_up(NodeId(1), NodeId(2)));
        assert!(!n.link_up(NodeId(2), NodeId(1)));
    }
}
