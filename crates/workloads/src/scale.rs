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
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::rc::Rc;

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

/// One speaker's place in a [`ScaleTopo`]: its ASN, sessions and
/// beacons. Everything else about it is the topology's to share.
#[derive(Debug, Clone)]
struct NodeSpec {
    asn: Asn,
    /// Per local `PeerId` (index = `PeerId.0`).
    peers: Vec<PeerRow>,
    /// Prefixes this node originates at start.
    origins: Vec<Prefix>,
}

/// One session end: only what differs from session to session. The
/// policies live once per role in [`ScaleTopo::roles`].
#[derive(Debug, Clone, Copy)]
struct PeerRow {
    /// Index into [`ScaleTopo::roles`].
    role: u8,
    /// This end waits for the neighbor to open the session.
    passive: bool,
    /// The neighbor's ASN.
    asn: Asn,
    /// The neighbor's engine node.
    dest: NodeId,
    /// The neighbor's `PeerId` for this session.
    remote: PeerId,
    /// One-way link delay.
    delay: SimDuration,
}

// The full preset has 320,176 session ends: a byte here is 0.3 MB.
const _: () = assert!(std::mem::size_of::<PeerRow>() <= 24);

/// A topology of BGP speakers ready to run under either engine.
#[derive(Debug, Clone)]
pub struct ScaleTopo {
    /// Every speaker's config but for its ASN and router id.
    speaker: SpeakerConfig,
    /// One session config per role, with a placeholder id and neighbor
    /// ASN. A session end's config is its role's clone with the row's id,
    /// ASN and passive side filled in; clones share the policies' rule
    /// lists, so the spec and every speaker built from it hold one copy
    /// of each role's rules, however many sessions there are.
    roles: Vec<PeerConfig>,
    specs: Vec<NodeSpec>,
    /// The node order the parallel engine cuts into equal-count shards: a
    /// permutation of the node ids, the customer-cone order of a generated
    /// Internet ([`cone_order`]) and the index order of a flat topology.
    order: Vec<NodeId>,
}

/// Deterministic per-link delay: at least [`BASE_DELAY`], spread by a
/// cheap hash of the endpoints so orderings get exercised.
fn link_delay(a: usize, b: usize) -> SimDuration {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let k = (lo.wrapping_mul(7).wrapping_add(hi.wrapping_mul(13))) % 5;
    BASE_DELAY + DELAY_STEP.saturating_mul(k as u64)
}

/// Add one session between node `a`, which opens it, and node `b`, which
/// waits; each end takes the next free `PeerId` of its node and the
/// given role.
fn connect(specs: &mut [NodeSpec], (a, role_a): (usize, u8), (b, role_b): (usize, u8)) {
    let delay = link_delay(a, b);
    let pa = PeerId(specs[a].peers.len() as u32);
    let pb = PeerId(specs[b].peers.len() as u32);
    let (asn_a, asn_b) = (specs[a].asn, specs[b].asn);
    specs[a].peers.push(PeerRow {
        role: role_a,
        passive: false,
        asn: asn_b,
        dest: NodeId(b as u32),
        remote: pb,
        delay,
    });
    specs[b].peers.push(PeerRow {
        role: role_b,
        passive: true,
        asn: asn_a,
        dest: NodeId(a as u32),
        remote: pa,
        delay,
    });
}

impl ScaleTopo {
    /// A flat topology from [`ChaosTopology`] adjacency: private ASNs,
    /// accept-all policies, one beacon prefix per node.
    pub fn from_chaos(topology: &ChaosTopology) -> ScaleTopo {
        let n = topology.node_count();
        let mut specs: Vec<NodeSpec> = (0..n)
            .map(|i| NodeSpec {
                asn: Asn(65001 + i as u32),
                peers: Vec::new(),
                origins: vec![origin_prefix(i)],
            })
            .collect();
        for (a, b) in topology.edges() {
            // `a` initiates, `b` listens — same convention as the chaos
            // emulation. Every session has the one accept-all role.
            connect(&mut specs, (a, 0), (b, 0));
        }
        ScaleTopo {
            speaker: speaker_config(),
            roles: vec![PeerConfig::new(PeerId(0), Asn(0))],
            order: (0..n as u32).map(NodeId).collect(),
            specs,
        }
    }

    /// A generated Internet under Gao-Rexford policies, with `beacons`
    /// origin ASes (spread deterministically across the graph) each
    /// announcing their first assigned prefix.
    pub fn from_internet(net: &Internet, beacons: usize) -> ScaleTopo {
        let g = &net.graph;
        let mut specs: Vec<NodeSpec> = g
            .indices()
            .map(|u| NodeSpec {
                asn: g.info(u).asn,
                // Every neighbor is one session end: sized exactly.
                peers: Vec::with_capacity(g.neighbors(u).count()),
                origins: Vec::new(),
            })
            .collect();
        for (a, b, rel) in net.sessions() {
            let (role_a, role_b) = match rel {
                // "a is customer of b": a sees b as provider.
                Relationship::CustomerToProvider => (SessionRole::Provider, SessionRole::Customer),
                Relationship::PeerToPeer => (SessionRole::Peer, SessionRole::Peer),
            };
            let a = (a.i(), role_a as u8);
            let b = (b.i(), role_b as u8);
            // Lower graph index initiates the TCP connection.
            if a.0 < b.0 {
                connect(&mut specs, a, b);
            } else {
                connect(&mut specs, b, a);
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
        ScaleTopo {
            speaker: speaker_config(),
            roles: SessionRole::ALL.map(role_config).to_vec(),
            order: cone_order(&specs),
            specs,
        }
    }

    /// Enable MRAI-style update packing on every speaker.
    pub fn with_mrai(mut self, interval: SimDuration) -> ScaleTopo {
        self.speaker.mrai = Some(interval);
        self
    }

    /// Disable attribute interning on every speaker (ablation: digests
    /// must not change). Each speaker then allocates every attribute
    /// set, and the shard's shared table goes unused.
    pub fn without_interning(mut self) -> ScaleTopo {
        self.speaker.intern_attrs = false;
        self
    }

    /// Disable the peer-group export engine on every speaker, forcing
    /// the naive one-Adj-RIB-Out-per-peer path (ablation: digests must
    /// not change).
    pub fn without_export_groups(mut self) -> ScaleTopo {
        self.speaker.export_groups = false;
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
    /// allocation, not k, and write their outputs into one buffer, which
    /// an event that emits then does not allocate; a sequential run is
    /// one shard.
    fn make_shard(&self) -> impl FnMut(NodeId) -> BgpNode + '_ {
        let table = AttrInterner::new();
        let outputs = Outputs::default();
        move |id| self.make_node(id, &table, &outputs)
    }

    fn make_node(&self, id: NodeId, table: &AttrInterner, outputs: &Outputs) -> BgpNode {
        let i = id.0 as usize;
        let spec = &self.specs[i];
        let mut cfg = self.speaker.clone();
        cfg.asn = spec.asn;
        cfg.router_id = Ipv4Addr::new(10, (i >> 16) as u8, (i >> 8) as u8, i as u8);
        let mut speaker = Speaker::with_interner(cfg, table);
        let mut links = Vec::with_capacity(spec.peers.len());
        for (local, row) in spec.peers.iter().enumerate() {
            let mut peer = self.roles[usize::from(row.role)].clone();
            peer.id = PeerId(local as u32);
            peer.asn = row.asn;
            peer.passive = row.passive;
            speaker
                .add_peer(peer)
                .expect("a speaker's peer ids are distinct");
            links.push(Link {
                dest: row.dest,
                remote: row.remote,
                delay: row.delay,
            });
        }
        BgpNode {
            me: id,
            speaker,
            links,
            origins: spec.origins.clone(),
            ticks: BTreeSet::new(),
            outputs: Rc::clone(outputs),
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
            &self.order,
            || self.make_shard(),
            shards,
            BASE_DELAY,
            checkpoints,
            max_time,
            profile,
        )
    }
}

/// Which side of a session the local AS is on, for policy assignment;
/// its value indexes [`ScaleTopo::roles`] of a generated Internet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionRole {
    /// The neighbor is our customer.
    Customer,
    /// The neighbor is a settlement-free peer.
    Peer,
    /// The neighbor is our transit provider.
    Provider,
}

impl SessionRole {
    /// Every role, in index order.
    const ALL: [SessionRole; 3] = [
        SessionRole::Customer,
        SessionRole::Peer,
        SessionRole::Provider,
    ];
}

/// The customer-cone order of a generated Internet: a depth-first walk
/// down customer edges from each provider-free AS in index order, taking
/// customers in index order, so every AS follows its cone's root and
/// sits right under the first of its providers the walk reaches. ASes
/// the walk never reaches (none in a generated Internet, whose provider
/// edges have no cycle) follow in index order.
///
/// Cut into equal-count runs, this keeps most sessions inside a run and
/// spreads the core over the runs, each core AS followed by its cone
/// (see `peering_netsim::run_parallel`).
fn cone_order(specs: &[NodeSpec]) -> Vec<NodeId> {
    let customer = SessionRole::Customer as u8;
    let provider = SessionRole::Provider as u8;
    let mut seen = vec![false; specs.len()];
    let mut order = Vec::with_capacity(specs.len());
    let mut stack = Vec::new();
    let roots = (0..specs.len()).filter(|&u| specs[u].peers.iter().all(|r| r.role != provider));
    for root in roots {
        stack.push(root);
        // Pre-order with the visit check on pop: the same order a
        // recursive walk gives, without its depth.
        while let Some(u) = stack.pop() {
            if std::mem::replace(&mut seen[u], true) {
                continue;
            }
            order.push(NodeId(u as u32));
            let first = stack.len();
            let rows = specs[u].peers.iter().filter(|r| r.role == customer);
            stack.extend(rows.map(|r| r.dest.0 as usize));
            // Largest index on the bottom, so the smallest pops first.
            stack[first..].sort_unstable_by(|a, b| b.cmp(a));
        }
    }
    let unreached = (0..specs.len()).filter(|&u| !seen[u]);
    order.extend(unreached.map(|u| NodeId(u as u32)));
    order
}

/// Every node's speaker config; [`ScaleTopo::make_node`] fills in the
/// node's ASN and router id.
fn speaker_config() -> SpeakerConfig {
    let mut cfg = SpeakerConfig::new(Asn(0), Ipv4Addr::UNSPECIFIED);
    // Engine runs are event-quiescent: with keepalives disabled the
    // simulation reaches a state with no pending events, which is the
    // engines' convergence criterion.
    cfg.hold_time = SimDuration::ZERO;
    cfg
}

/// The Gao-Rexford session config of one role, built once per topology;
/// every session end of the role clones it.
fn role_config(role: SessionRole) -> PeerConfig {
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
    PeerConfig::new(PeerId(0), Asn(0))
        .import(import)
        .export(export)
}

/// The output buffer the speakers of one engine shard share: a node takes
/// it, empty, for one event and puts it back. A buffer per node would
/// keep a session-count-sized `Vec` on every speaker after its start.
type Outputs = Rc<RefCell<Vec<Output>>>;

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
    /// The shard's output buffer.
    outputs: Outputs,
}

impl BgpNode {
    /// Route the speaker's outputs onto links, then service any timer
    /// deadline that is already due (its outputs refill the drained
    /// buffer) and schedule a wake-up for the next future one.
    fn service(&mut self, now: SimTime, outputs: &mut Vec<Output>, out: &mut Outbox<Input>) {
        loop {
            for o in outputs.drain(..) {
                if let Output::Send(pid, msg) = o {
                    let link = &self.links[pid.0 as usize];
                    out.send(link.dest, link.delay, Input::Message(link.remote, msg));
                }
            }
            let deadline = self.speaker.next_deadline();
            if deadline <= now {
                self.speaker.apply(Input::Tick, now, outputs);
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
        let mut outputs = self.outputs.take();
        for p in std::mem::take(&mut self.origins) {
            let originate = Input::Originate(p, Vec::new());
            self.speaker.apply(originate, now, &mut outputs);
        }
        let ids: Vec<PeerId> = self.speaker.peer_ids().collect();
        for id in ids {
            self.speaker.apply(Input::StartPeer(id), now, &mut outputs);
        }
        self.service(now, &mut outputs, out);
        self.outputs.replace(outputs);
    }

    fn on_event(&mut self, now: SimTime, _from: NodeId, input: Input, out: &mut Outbox<Input>) {
        if let Input::Tick = input {
            self.ticks.remove(&now);
        }
        let mut outputs = self.outputs.take();
        self.speaker.apply(input, now, &mut outputs);
        self.service(now, &mut outputs, out);
        self.outputs.replace(outputs);
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
    fn the_cone_order_lists_every_as_once_after_a_provider() {
        let net = Internet::build(peering_topology::InternetConfig::small(42));
        let topo = ScaleTopo::from_internet(&net, 4);
        let order = &topo.order;
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..topo.node_count() as u32)
                .map(NodeId)
                .collect::<Vec<_>>()
        );
        let mut position = vec![0; order.len()];
        for (k, id) in order.iter().enumerate() {
            position[id.0 as usize] = k;
        }
        let provider = SessionRole::Provider as u8;
        for (u, spec) in topo.specs.iter().enumerate() {
            let mut providers = spec.peers.iter().filter(|r| r.role == provider).peekable();
            let after_one = providers.peek().is_none()
                || providers.any(|r| position[r.dest.0 as usize] < position[u]);
            assert!(after_one, "AS {u} precedes all of its providers");
        }
        assert_ne!(
            *order, sorted,
            "a generated Internet is not in cone order by index"
        );
    }

    #[test]
    fn a_flat_topology_keeps_the_index_order() {
        let topo = ScaleTopo::from_chaos(&ChaosTopology::Star(5));
        let ids: Vec<NodeId> = (0..6).map(NodeId).collect();
        assert_eq!(topo.order, ids);
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
