//! Discrete-event network simulation substrate for the PEERING reproduction.
//!
//! The real PEERING testbed runs over the live Internet: OpenVPN tunnels,
//! BGP sessions to commercial routers, and packets crossing real networks.
//! This crate provides the deterministic stand-in for all of that physical
//! machinery:
//!
//! * a virtual clock ([`SimTime`], [`SimDuration`]) and a stable,
//!   monotonic [`EventQueue`];
//! * a seeded, forkable random-number generator ([`SimRng`]) so that every
//!   experiment is reproducible from a single seed;
//! * fundamental network identifiers shared by every higher layer:
//!   [`Asn`], [`Ipv4Net`], [`Ipv6Net`], [`Prefix`];
//! * point-to-point [`Link`]s with delay, jitter, loss, bandwidth and MTU,
//!   plus administrative up/down state for fault injection;
//! * a v4 IP data plane: [`IpPacket`], longest-prefix-match
//!   [`ForwardingTable`]s, and tunnel encapsulation;
//! * a typed message network ([`MsgNet`]) that delivers messages between
//!   simulated nodes in timestamp order, used to carry BGP messages between
//!   speakers;
//! * scripted fault injection ([`FaultPlan`]).
//!
//! Everything is deterministic: there are no sockets and no wall-clock
//! reads anywhere in the simulation core, and the only threads are the
//! parallel [`engine`]'s shards, whose results equal the sequential
//! engine's bit for bit.

pub mod engine;
pub mod fault;
pub mod ip;
pub mod link;
pub mod net;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod sync;
pub mod time;
pub mod trace;
pub mod transport;
pub mod trie;

pub use engine::{
    run_parallel, run_sequential, EngineNode, EngineRun, EpochBarrier, Outbox, SimEvent,
};
pub use fault::{FaultAction, FaultPlan};
pub use ip::{ForwardingTable, IpPacket, Payload};
pub use link::{Link, LinkParams};
pub use net::{Asn, Ipv4Net, Ipv6Net, Prefix, PrefixParseError};
pub use profile::{EngineProfile, ProfileConfig, ProfileSummary, ShardEpoch, ShardEpochWall};
pub use queue::EventQueue;
pub use rng::{Fnv1a, SimRng};
pub use time::{SimDuration, SimTime};
pub use trace::TraceId;
pub use transport::{Delivery, DeliveryKind, LinkStats, MsgNet, NodeId};
pub use trie::{PrefixTrie, RadixTrie, TrieKey};
