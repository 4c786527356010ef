//! Full-scale differential harness: real [`Speaker`]s driven by the
//! generic event engine, sequential vs. parallel, digest-pinned.
//!
//! This is the acceptance oracle for the parallel engine
//! ([`peering_netsim::run_parallel`]): build the *same* topology of BGP
//! speakers, run it once on the sequential engine and once on the
//! sharded engine, and require the per-checkpoint Loc-RIB digests to be
//! bitwise identical. Nothing about the speakers is mocked — sessions
//! handshake, policies run, MRAI timers fire, the decision process
//! picks best paths — so digest equality means the parallel engine
//! preserved *every* delivery order that matters.
//!
//! Topologies come in two families:
//!
//! * flat rings/stars reusing [`ChaosTopology`] adjacency (every
//!   session accept-all, one beacon prefix per node), and
//! * generated Internets from `peering-topology`, with Gao-Rexford
//!   valley-free policies (customer routes preferred and re-exported
//!   everywhere; peer/provider routes kept off peers and providers) and
//!   a handful of beacon origins, which is how the full 2014-scale
//!   preset (~47k ASes) converges inside the scale bench.

use crate::chaos::{origin_prefix, ChaosTopology};
use peering_bgp::{
    digest_routes, Action, Asn, AttrInterner, Community, Input, Match, Output, PeerConfig, PeerId,
    Policy, Prefix, Speaker, SpeakerConfig,
};
use peering_netsim::{
    run_parallel, run_sequential, EngineNode, EngineProfile, EngineRun, Fnv1a, NodeId, Outbox,
    ProfileConfig, SimDuration, SimEvent, SimTime,
};
use peering_topology::{AsIdx, Internet, Relationship};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// Base one-way link delay; also the parallel engine's lookahead. Every
/// link delay is `BASE_DELAY + k * DELAY_STEP` for some `k`, so the
/// conservative-barrier precondition (cross-shard delay ≥ lookahead)
/// holds for any shard assignment.
const BASE_DELAY: SimDuration = SimDuration::from_millis(10);
/// Per-link deterministic delay spread, to exercise event orderings.
const DELAY_STEP: SimDuration = SimDuration::from_micros(250);

/// Communities tagging where a route entered the local AS, for
/// Gao-Rexford export filtering (the classic LOCAL_PREF + community
/// encoding of valley-free routing).
const TAG_CUSTOMER: Community = Community::new(65001, 1);
/// Route learned from a settlement-free peer.
const TAG_PEER: Community = Community::new(65001, 2);
/// Route learned from a transit provider.
const TAG_PROVIDER: Community = Community::new(65001, 3);

// Engine-driven speakers exchange `Input::Message` (on the receiver's
// session) and self-scheduled `Input::Tick`. An in-flight event stays at
// the 104 bytes it took with a two-variant message type of its own.
const _: () = assert!(std::mem::size_of::<SimEvent<Input>>() <= 104);

/// One speaker's place in a [`ScaleTopo`]: config, sessions, beacons.
#[derive(Debug, Clone)]
struct NodeSpec {
    cfg: SpeakerConfig,
    /// Per local `PeerId` (index = `PeerId.0`): session config, the
    /// neighbor's engine node, the neighbor's `PeerId` for this
    /// session, and the one-way link delay.
    peers: Vec<(PeerConfig, NodeId, PeerId, SimDuration)>,
    /// Prefixes this node originates at start.
    origins: Vec<Prefix>,
}

/// A topology of BGP speakers ready to run under either engine.
#[derive(Debug, Clone)]
pub struct ScaleTopo {
    specs: Vec<NodeSpec>,
}

/// Deterministic per-link delay: at least [`BASE_DELAY`], spread by a
/// cheap hash of the endpoints so orderings get exercised.
fn link_delay(a: usize, b: usize) -> SimDuration {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let k = (lo.wrapping_mul(7).wrapping_add(hi.wrapping_mul(13))) % 5;
    BASE_DELAY + DELAY_STEP.saturating_mul(k as u64)
}

impl ScaleTopo {
    /// A flat topology from [`ChaosTopology`] adjacency: private ASNs,
    /// accept-all policies, one beacon prefix per node.
    pub fn from_chaos(topology: &ChaosTopology) -> ScaleTopo {
        let n = topology.node_count();
        let mut specs: Vec<NodeSpec> = (0..n)
            .map(|i| NodeSpec {
                cfg: speaker_config(Asn(65001 + i as u32), i),
                peers: Vec::new(),
                origins: vec![origin_prefix(i)],
            })
            .collect();
        for (a, b) in topology.edges() {
            let delay = link_delay(a, b);
            let pa = PeerId(specs[a].peers.len() as u32);
            let pb = PeerId(specs[b].peers.len() as u32);
            // Lower index initiates, higher index listens — same
            // convention as the chaos emulation.
            let cfg_a = PeerConfig::new(pa, Asn(65001 + b as u32));
            let cfg_b = PeerConfig::new(pb, Asn(65001 + a as u32)).passive();
            specs[a].peers.push((cfg_a, NodeId(b as u32), pb, delay));
            specs[b].peers.push((cfg_b, NodeId(a as u32), pa, delay));
        }
        ScaleTopo { specs }
    }

    /// A generated Internet under Gao-Rexford policies, with `beacons`
    /// origin ASes (spread deterministically across the graph) each
    /// announcing their first assigned prefix.
    pub fn from_internet(net: &Internet, beacons: usize) -> ScaleTopo {
        let g = &net.graph;
        let mut specs: Vec<NodeSpec> = g
            .indices()
            .map(|u| NodeSpec {
                cfg: speaker_config(g.info(u).asn, u.i()),
                peers: Vec::new(),
                origins: Vec::new(),
            })
            .collect();
        let mut wire = |a: AsIdx, b: AsIdx, rel_a: SessionRole, rel_b: SessionRole| {
            let (ai, bi) = (a.i(), b.i());
            let delay = link_delay(ai, bi);
            let pa = PeerId(specs[ai].peers.len() as u32);
            let pb = PeerId(specs[bi].peers.len() as u32);
            let mut cfg_a = session_config(pa, g.info(b).asn, rel_a);
            let mut cfg_b = session_config(pb, g.info(a).asn, rel_b);
            // Lower graph index initiates the TCP connection.
            if ai < bi {
                cfg_b = cfg_b.passive();
            } else {
                cfg_a = cfg_a.passive();
            }
            specs[ai].peers.push((cfg_a, NodeId(bi as u32), pb, delay));
            specs[bi].peers.push((cfg_b, NodeId(ai as u32), pa, delay));
        };
        for (a, b, rel) in net.sessions() {
            match rel {
                // "a is customer of b": a sees b as provider.
                Relationship::CustomerToProvider => {
                    wire(a, b, SessionRole::Provider, SessionRole::Customer)
                }
                Relationship::PeerToPeer => wire(a, b, SessionRole::Peer, SessionRole::Peer),
            }
        }
        // Beacon origins: a deterministic stride over ASes that own at
        // least one prefix, so beacons land in every tier.
        let owners: Vec<AsIdx> = g
            .indices()
            .filter(|&u| !g.info(u).prefixes.is_empty())
            .collect();
        let count = beacons.min(owners.len());
        if let Some(stride) = owners.len().checked_div(count) {
            let stride = stride.max(1);
            for k in 0..count {
                let u = owners[k * stride % owners.len()];
                let p = g.info(u).prefixes[0];
                specs[u.i()].origins.push(p);
            }
        }
        ScaleTopo { specs }
    }

    /// Enable MRAI-style update packing on every speaker.
    pub fn with_mrai(mut self, interval: SimDuration) -> ScaleTopo {
        for spec in &mut self.specs {
            spec.cfg.mrai = Some(interval);
        }
        self
    }

    /// Disable attribute interning on every speaker (ablation: digests
    /// must not change). Each speaker then allocates every attribute
    /// set, and the shard's shared table goes unused.
    pub fn without_interning(mut self) -> ScaleTopo {
        for spec in &mut self.specs {
            spec.cfg.intern_attrs = false;
        }
        self
    }

    /// Disable the peer-group export engine on every speaker, forcing
    /// the naive one-Adj-RIB-Out-per-peer path (ablation: digests must
    /// not change).
    pub fn without_export_groups(mut self) -> ScaleTopo {
        for spec in &mut self.specs {
            spec.cfg.export_groups = false;
        }
        self
    }

    /// Number of engine nodes.
    pub fn node_count(&self) -> usize {
        self.specs.len()
    }

    /// Number of configured sessions (edges).
    pub fn session_count(&self) -> usize {
        self.specs.iter().map(|s| s.peers.len()).sum::<usize>() / 2
    }

    /// Total beacon prefixes originated.
    pub fn beacon_count(&self) -> usize {
        self.specs.iter().map(|s| s.origins.len()).sum()
    }

    /// One engine shard's node builder. The shard's speakers intern into
    /// one attribute table, so a route that k of them import is one
    /// allocation, not k; a sequential run is one shard.
    fn make_shard(&self) -> impl FnMut(NodeId) -> BgpNode + '_ {
        let table = AttrInterner::new();
        move |id| self.make_node(id, &table)
    }

    fn make_node(&self, id: NodeId, table: &AttrInterner) -> BgpNode {
        let spec = &self.specs[id.0 as usize];
        let mut speaker = Speaker::with_interner(spec.cfg.clone(), table);
        let mut links = Vec::with_capacity(spec.peers.len());
        for (cfg, dest, remote, delay) in &spec.peers {
            speaker
                .add_peer(cfg.clone())
                .expect("a speaker's peer ids are distinct");
            links.push(Link {
                dest: *dest,
                remote: *remote,
                delay: *delay,
            });
        }
        BgpNode {
            me: id,
            speaker,
            links,
            origins: spec.origins.clone(),
            ticks: BTreeSet::new(),
        }
    }

    /// Run under the sequential reference engine.
    pub fn run_engine_sequential(&self, checkpoints: &[SimTime], max_time: SimTime) -> EngineRun {
        self.run_engine_sequential_profiled(checkpoints, max_time, ProfileConfig::off())
            .0
    }

    /// Run under the sequential reference engine with profiling.
    pub fn run_engine_sequential_profiled(
        &self,
        checkpoints: &[SimTime],
        max_time: SimTime,
        profile: ProfileConfig,
    ) -> (EngineRun, EngineProfile) {
        run_sequential(
            self.node_count(),
            || self.make_shard(),
            checkpoints,
            max_time,
            profile,
        )
    }

    /// Run under the sharded parallel engine.
    pub fn run_engine_parallel(
        &self,
        shards: usize,
        checkpoints: &[SimTime],
        max_time: SimTime,
    ) -> EngineRun {
        self.run_engine_parallel_profiled(shards, checkpoints, max_time, ProfileConfig::off())
            .0
    }

    /// Run under the sharded parallel engine with profiling.
    pub fn run_engine_parallel_profiled(
        &self,
        shards: usize,
        checkpoints: &[SimTime],
        max_time: SimTime,
        profile: ProfileConfig,
    ) -> (EngineRun, EngineProfile) {
        run_parallel(
            self.node_count(),
            || self.make_shard(),
            shards,
            BASE_DELAY,
            checkpoints,
            max_time,
            profile,
        )
    }
}

/// Which side of a session the local AS is on, for policy assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionRole {
    /// The neighbor is our customer.
    Customer,
    /// The neighbor is a settlement-free peer.
    Peer,
    /// The neighbor is our transit provider.
    Provider,
}

/// Node `i`'s speaker, router id `10.x.y.z` from `i`.
fn speaker_config(asn: Asn, i: usize) -> SpeakerConfig {
    let mut cfg = SpeakerConfig::new(
        asn,
        Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8),
    );
    // Engine runs are event-quiescent: with keepalives disabled the
    // simulation reaches a state with no pending events, which is the
    // engines' convergence criterion.
    cfg.hold_time = SimDuration::ZERO;
    cfg
}

/// Gao-Rexford session config for one side of one session.
fn session_config(id: PeerId, neighbor: Asn, role: SessionRole) -> PeerConfig {
    let (local_pref, tag) = match role {
        SessionRole::Customer => (200, TAG_CUSTOMER),
        SessionRole::Peer => (100, TAG_PEER),
        SessionRole::Provider => (50, TAG_PROVIDER),
    };
    let import = Policy::accept_all().rule(
        Match::Any,
        vec![
            Action::SetLocalPref(local_pref),
            Action::AddCommunity(tag),
            Action::Accept,
        ],
    );
    let export = match role {
        // Customers get the full table.
        SessionRole::Customer => Policy::accept_all(),
        // Peers and providers only hear customer routes and our own:
        // anything that entered via a peer or provider stays put.
        SessionRole::Peer | SessionRole::Provider => Policy::accept_all().rule(
            Match::AnyOf(vec![
                Match::HasCommunity(TAG_PEER),
                Match::HasCommunity(TAG_PROVIDER),
            ]),
            vec![Action::Reject],
        ),
    };
    PeerConfig::new(id, neighbor).import(import).export(export)
}

/// One speaker wired into the event engine.
struct Link {
    dest: NodeId,
    remote: PeerId,
    delay: SimDuration,
}

/// A [`Speaker`] adapted to [`EngineNode`]: messages route over links,
/// timer deadlines become self-scheduled [`Input::Tick`]s, and the
/// digest is an FNV-1a hash of the canonicalized Loc-RIB (same line
/// format as [`crate::chaos::rib_digest`], minus `learned_at`-free
/// fields it already excludes).
struct BgpNode {
    me: NodeId,
    speaker: Speaker,
    /// Indexed by local `PeerId.0`.
    links: Vec<Link>,
    origins: Vec<Prefix>,
    /// Tick self-messages already in flight, by absolute fire time.
    ticks: BTreeSet<SimTime>,
}

impl BgpNode {
    /// Route speaker outputs onto links, then service any timer
    /// deadline that is already due (its outputs refill the drained
    /// vector) and schedule a wake-up for the next future one.
    fn service(&mut self, now: SimTime, mut outputs: Vec<Output>, out: &mut Outbox<Input>) {
        loop {
            for o in outputs.drain(..) {
                if let Output::Send(pid, msg) = o {
                    let link = &self.links[pid.0 as usize];
                    out.send(link.dest, link.delay, Input::Message(link.remote, msg));
                }
            }
            let deadline = self.speaker.next_deadline();
            if deadline <= now {
                self.speaker.apply(Input::Tick, now, &mut outputs);
                if outputs.is_empty() && self.speaker.next_deadline() <= now {
                    // A due deadline `tick` cannot clear would spin; the
                    // speaker never does this (every timer fires or
                    // re-arms strictly later). Fail loudly in every build
                    // profile: a silent `break` would stop scheduling
                    // Ticks and freeze this node's timers, and the engine
                    // already contains shard panics cleanly.
                    panic!(
                        "node {:?}: speaker deadline {:?} did not advance past now {now:?}",
                        self.me,
                        self.speaker.next_deadline(),
                    );
                }
            } else {
                if deadline != SimTime::MAX && self.ticks.insert(deadline) {
                    out.send(self.me, deadline - now, Input::Tick);
                }
                break;
            }
        }
    }
}

impl EngineNode for BgpNode {
    type Msg = Input;

    fn on_start(&mut self, out: &mut Outbox<Input>) {
        let now = SimTime::ZERO;
        let mut outputs = Vec::new();
        for p in std::mem::take(&mut self.origins) {
            let originate = Input::Originate(p, Vec::new());
            self.speaker.apply(originate, now, &mut outputs);
        }
        let ids: Vec<PeerId> = self.speaker.peer_ids().collect();
        for id in ids {
            self.speaker.apply(Input::StartPeer(id), now, &mut outputs);
        }
        self.service(now, outputs, out);
    }

    fn on_event(&mut self, now: SimTime, _from: NodeId, input: Input, out: &mut Outbox<Input>) {
        if let Input::Tick = input {
            self.ticks.remove(&now);
        }
        let mut outputs = Vec::new();
        self.speaker.apply(input, now, &mut outputs);
        self.service(now, outputs, out);
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv1a::legacy();
        digest_routes(&mut h, self.speaker.loc_rib().iter());
        h.finish()
    }
}

/// Convenience: evenly spaced checkpoints across `[0, horizon]`.
pub fn spaced_checkpoints(horizon: SimTime, count: usize) -> Vec<SimTime> {
    let total = horizon.as_micros();
    (1..=count as u64)
        .map(|k| SimTime::from_micros(total * k / count as u64))
        .collect()
}

/// Smoke-sized profiled engine run for the telemetry gate: a small
/// generated Internet with 4 beacons on 2 shards, profiled with
/// [`ProfileConfig::sim`], the profile folded into `telemetry` via
/// [`peering_telemetry::record_engine_profile`]. Deterministic in `seed`.
pub fn engine_profile_smoke(
    seed: u64,
    telemetry: &peering_telemetry::Telemetry,
) -> (EngineRun, EngineProfile) {
    let net = Internet::build(peering_topology::InternetConfig::small(seed));
    let topo = ScaleTopo::from_internet(&net, 4);
    let cks = spaced_checkpoints(SimTime::from_secs(600), 4);
    let (run, profile) =
        topo.run_engine_parallel_profiled(2, &cks, SimTime::MAX, ProfileConfig::sim());
    peering_telemetry::record_engine_profile(telemetry, &profile);
    (run, profile)
}

/// Run the differential oracle: sequential vs. parallel at each shard
/// count, requiring complete [`EngineRun`] equality (event counts, end
/// times, every checkpoint digest, and the final digest).
pub fn differential(
    topo: &ScaleTopo,
    shard_counts: &[usize],
    checkpoints: &[SimTime],
    max_time: SimTime,
) -> (EngineRun, Vec<(usize, bool)>) {
    let reference = topo.run_engine_sequential(checkpoints, max_time);
    let verdicts = shard_counts
        .iter()
        .map(|&s| {
            let run = topo.run_engine_parallel(s, checkpoints, max_time);
            (s, run == reference)
        })
        .collect();
    (reference, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: SimTime = SimTime::from_secs(600);

    #[test]
    fn ring_converges_and_digests_are_nonzero() {
        let topo = ScaleTopo::from_chaos(&ChaosTopology::Ring(5));
        let run = topo.run_engine_sequential(&spaced_checkpoints(HORIZON, 4), SimTime::MAX);
        assert!(run.events > 0);
        assert!(
            run.end_time < HORIZON,
            "ring must quiesce well inside horizon"
        );
        assert_eq!(run.checkpoints.len(), 4);
    }

    #[test]
    fn parallel_ring_matches_sequential() {
        let topo = ScaleTopo::from_chaos(&ChaosTopology::Ring(6));
        let cks = spaced_checkpoints(HORIZON, 3);
        let (reference, verdicts) = differential(&topo, &[1, 2, 4, 8], &cks, SimTime::MAX);
        assert!(reference.events > 0);
        for (shards, ok) in verdicts {
            assert!(ok, "{shards}-shard run diverged from sequential");
        }
    }

    #[test]
    fn star_with_mrai_matches_sequential() {
        let topo =
            ScaleTopo::from_chaos(&ChaosTopology::Star(5)).with_mrai(SimDuration::from_secs(5));
        let cks = spaced_checkpoints(HORIZON, 3);
        let (reference, verdicts) = differential(&topo, &[2, 3], &cks, SimTime::MAX);
        assert!(reference.events > 0);
        for (shards, ok) in verdicts {
            assert!(ok, "{shards}-shard MRAI run diverged from sequential");
        }
    }

    #[test]
    fn mrai_packing_reaches_the_same_tables() {
        // Packing changes how many UPDATEs carry the deltas, never the
        // converged contents: final digests must match the unpacked run.
        let plain = ScaleTopo::from_chaos(&ChaosTopology::Ring(5));
        let packed = plain.clone().with_mrai(SimDuration::from_secs(10));
        let a = plain.run_engine_sequential(&[], SimTime::MAX);
        let b = packed.run_engine_sequential(&[], SimTime::MAX);
        assert_eq!(a.final_digest, b.final_digest);
    }

    #[test]
    fn interning_ablation_leaves_digests_unchanged() {
        let on = ScaleTopo::from_chaos(&ChaosTopology::Ring(4));
        let off = on.clone().without_interning();
        let a = on.run_engine_sequential(&[], SimTime::MAX);
        let b = off.run_engine_sequential(&[], SimTime::MAX);
        assert_eq!(a.final_digest, b.final_digest);
        assert_eq!(a.events, b.events);
    }
}
