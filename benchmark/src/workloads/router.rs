//! `router_feed`: the paper's Fig. 2 router as a throughput test.
//!
//! One `Speaker`, four feeder sessions and four accept-all listener
//! sessions. Every input is a wire-encoded UPDATE of 200 NLRI; one op
//! decodes it, hands it to `on_message`, and encodes what the speaker
//! sends to the listeners. No engine and no FSM churn, so the `bgp`
//! layers own the time. Three phases use the tables differently:
//! announce everything, withdraw feeder 0's routes (best paths move to
//! another feeder), re-announce them over a shorter path (they move
//! back).

use super::{kernels, mean_ms, Ctx, Rep, Workload};
use crate::gen::{feeder_addr, feeder_asn, FeedPlan, FEEDERS, ROUTES_PER_FEEDER};
use crate::trace::{LayerTime, Tracer};
use peering_bgp::message::OpenMessage;
use peering_bgp::wire::{decode_message, encode_message, WireConfig};
use peering_bgp::{
    BgpMessage, Output, PeerConfig, PeerId, Policy, Speaker, SpeakerConfig, UpdateMessage,
};
use peering_netsim::{Asn, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Accept-all sessions the speaker exports to.
const LISTENERS: usize = 4;
/// Plain IPv4 unicast on every session.
pub(crate) const WIRE: WireConfig = WireConfig { add_path: false };
/// The instant every message arrives at; no timer is ever due.
const NOW: SimTime = SimTime::from_secs(1);
/// Set-ups per repeat: one takes some 50 ms, too short to sample once.
const SETUPS: usize = 5;
/// MRAI interval of the traced run's flush pass; shorter than the
/// keepalive interval, so the flushing `tick` sends UPDATEs only.
const MRAI: SimDuration = SimDuration::from_secs(5);

/// The `router_feed` workload.
#[derive(Debug)]
pub struct RouterFeed;

fn listener_peer(i: usize) -> PeerId {
    PeerId((FEEDERS + i) as u32)
}

/// A speaker with the feeder and listener sessions established by hand.
fn build_speaker(cfg: SpeakerConfig) -> Speaker {
    let mut s = Speaker::new(cfg);
    let establish = |s: &mut Speaker, peer: PeerConfig, addr: Ipv4Addr| {
        let (id, asn) = (peer.id, peer.asn);
        s.add_peer(peer);
        s.start_peer(id, SimTime::ZERO);
        let open = OpenMessage::new(asn, 90, addr);
        s.on_message(id, BgpMessage::Open(open), SimTime::ZERO);
        s.on_message(id, BgpMessage::Keepalive, SimTime::ZERO);
        assert!(s.peer_established(id), "hand-made handshake must establish");
    };
    for p in 0..FEEDERS {
        // Nothing is exported back to a feeder: the listeners stand for
        // the rest of the router's sessions.
        let peer = PeerConfig::new(PeerId(p as u32), feeder_asn(p)).export(Policy::reject_all());
        establish(&mut s, peer, feeder_addr(p));
    }
    for i in 0..LISTENERS {
        let peer = PeerConfig::new(listener_peer(i), Asn(200 + i as u32));
        establish(&mut s, peer, Ipv4Addr::new(10, 2, 0, i as u8));
    }
    s
}

fn speaker_config() -> SpeakerConfig {
    SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1))
}

fn encode_stream(stream: &[UpdateMessage]) -> Vec<Vec<u8>> {
    stream
        .iter()
        .map(|u| {
            encode_message(&BgpMessage::Update(u.clone()), WIRE)
                .expect("200 /24s fit one UPDATE message")
        })
        .collect()
}

/// One phase of the workload.
struct Phase {
    /// Span name of the phase's `on_message` calls.
    span: &'static str,
    /// Per-route speaker metric of the phase.
    metric: &'static str,
    /// Routes feeder 0 holds, and best paths that sit on it, afterwards.
    feeder0_routes: usize,
}

/// Announce everything; feeder 0 withdraws everything, so best paths
/// move off it; feeder 0 comes back with a shorter path and wins.
const PHASES: [Phase; 3] = [
    Phase {
        span: "speaker.announce",
        metric: "speaker.announce_ns_per_route",
        feeder0_routes: ROUTES_PER_FEEDER,
    },
    Phase {
        span: "speaker.withdraw",
        metric: "speaker.withdraw_ns_per_route",
        feeder0_routes: 0,
    },
    Phase {
        span: "speaker.replace",
        metric: "speaker.replace_ns_per_route",
        feeder0_routes: ROUTES_PER_FEEDER,
    },
];

/// The wire-encoded inputs: per phase, `(sender, message)` in arrival
/// order. Phase 1 goes feeder by feeder; the others come from feeder 0.
pub(crate) struct Inputs {
    phases: [Vec<(PeerId, Vec<u8>)>; 3],
}

impl Inputs {
    fn encode(plan: &FeedPlan) -> Inputs {
        let from = |p: usize, stream: &[UpdateMessage]| -> Vec<(PeerId, Vec<u8>)> {
            encode_stream(stream)
                .into_iter()
                .map(|bytes| (PeerId(p as u32), bytes))
                .collect()
        };
        let announce = plan
            .announce
            .iter()
            .enumerate()
            .flat_map(|(p, stream)| from(p, stream))
            .collect();
        Inputs {
            phases: [announce, from(0, &plan.withdraw), from(0, &plan.replace)],
        }
    }

    /// The first feeder's announcements, for the kernels.
    pub(crate) fn feeder0(&self) -> impl Iterator<Item = &[u8]> {
        self.phases[0]
            .iter()
            .filter(|(p, _)| *p == PeerId(0))
            .map(|(_, bytes)| bytes.as_slice())
    }
}

/// What one phase moved.
#[derive(Debug, Default, Clone, Copy)]
struct Moved {
    routes_in: u64,
    msgs_out: u64,
    bytes_out: u64,
    routes_out: u64,
}

impl Moved {
    fn add(&mut self, other: Moved) {
        self.routes_in += other.routes_in;
        self.msgs_out += other.msgs_out;
        self.bytes_out += other.bytes_out;
        self.routes_out += other.routes_out;
    }
}

fn routes_of(msg: &BgpMessage) -> u64 {
    match msg {
        BgpMessage::Update(u) => (u.announced.len() + u.withdrawn.len()) as u64,
        _ => 0,
    }
}

/// Encode every message the speaker wants sent.
fn encode_outputs(outputs: &[Output]) -> Moved {
    let mut moved = Moved::default();
    for out in outputs {
        if let Output::Send(_, msg) = out {
            let bytes = encode_message(msg, WIRE).expect("speaker output encodes");
            moved.msgs_out += 1;
            moved.bytes_out += bytes.len() as u64;
            moved.routes_out += routes_of(msg);
        }
    }
    moved
}

/// One op: wire in, speaker, wire out.
fn feed_one(
    tracer: &mut Tracer,
    op_id: u64,
    speaker: &mut Speaker,
    span: &'static str,
    from: PeerId,
    bytes: &[u8],
) -> Moved {
    let (msg, _) = tracer
        .layer("wire.decode", op_id, || decode_message(bytes, WIRE))
        .expect("the benchmark encoded this message");
    let routes_in = routes_of(&msg);
    let outputs = tracer.layer(span, op_id, || speaker.on_message(from, msg, NOW));
    let mut moved = tracer.layer("wire.encode", op_id, || encode_outputs(&outputs));
    moved.routes_in = routes_in;
    moved
}

/// Where every best path points after a phase.
fn best_paths(speaker: &Speaker) -> BTreeMap<PeerId, usize> {
    let mut by_peer = BTreeMap::new();
    for route in speaker.loc_rib().iter() {
        *by_peer.entry(route.peer).or_insert(0) += 1;
    }
    by_peer
}

/// Table sizes every phase must leave: feeder 0 holds `feeder0` routes,
/// the other feeders and the Loc-RIB the full set, every listener's
/// Adj-RIB-Out the full set, and the speaker's own invariants hold.
fn tables_ok(speaker: &Speaker, feeder0: usize) -> Result<(), String> {
    let adj_in = |p: usize| {
        speaker
            .adj_rib_in(PeerId(p as u32))
            .map_or(0, |rib| rib.len())
    };
    if adj_in(0) != feeder0 {
        return Err(format!("feeder 0 Adj-RIB-In holds {} routes", adj_in(0)));
    }
    if let Some(p) = (1..FEEDERS).find(|&p| adj_in(p) != ROUTES_PER_FEEDER) {
        return Err(format!("feeder {p} Adj-RIB-In holds {} routes", adj_in(p)));
    }
    if speaker.loc_rib().len() != ROUTES_PER_FEEDER {
        return Err(format!("Loc-RIB holds {} routes", speaker.loc_rib().len()));
    }
    for i in 0..LISTENERS {
        let out = speaker
            .adj_rib_out(listener_peer(i))
            .map_or(0, |rib| rib.len());
        if out != ROUTES_PER_FEEDER {
            return Err(format!("listener {i} Adj-RIB-Out holds {out} routes"));
        }
    }
    speaker.check_invariants()
}

fn span_ns(times: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    times.get(name).map_or(0.0, |t| t.total_ns as f64)
}

impl Workload for RouterFeed {
    fn repeat(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        let mut rep = Rep::default();
        let mark = ctx.tracer.spans().len();

        let (mut speaker, inputs) = rep.time_setup(SETUPS, || {
            let speaker = ctx
                .tracer
                .layer("router.build", 0, || build_speaker(speaker_config()));
            let plan = ctx
                .tracer
                .layer("router.gen_inputs", 0, || FeedPlan::generate(ctx.seed));
            let inputs = ctx
                .tracer
                .layer("router.encode_inputs", 0, || Inputs::encode(&plan));
            (speaker, inputs)
        });
        rep.op_ns.reserve(inputs.phases.iter().map(Vec::len).sum());

        let mut op_id = 0u64;
        let mut moved_by_phase = Vec::with_capacity(PHASES.len());
        for (phase, msgs) in PHASES.iter().zip(&inputs.phases) {
            let mut moved = Moved::default();
            for (from, bytes) in msgs {
                let id = op_id;
                op_id += 1;
                moved.add(rep.time_op(ctx, id, |tracer| {
                    feed_one(tracer, id, &mut speaker, phase.span, *from, bytes)
                }));
            }
            moved_by_phase.push(moved);

            // Output checks; each covers the phase's ops.
            let ops = msgs.len() as u64;
            let tables = tables_ok(&speaker, phase.feeder0_routes);
            rep.check(ops, tables.is_ok(), || {
                format!("after {}: {tables:?}", phase.span)
            });
            let best = best_paths(&speaker);
            let on_feeder0 = best.get(&PeerId(0)).copied().unwrap_or(0);
            rep.check(ops, on_feeder0 == phase.feeder0_routes, || {
                format!("after {} best paths sit on {best:?}", phase.span)
            });

            if phase.span == PHASES[0].span {
                // The tables are fullest now: four feeders' routes.
                let stored = (FEEDERS * ROUTES_PER_FEEDER) as f64;
                let (distinct, hits, misses) = speaker.interner_stats();
                rep.value(
                    "table_bytes_per_route",
                    speaker.table_memory() as f64 / stored,
                );
                rep.value("rib.table_bytes", speaker.table_memory() as f64);
                rep.value("rib.interner_distinct", distinct as f64);
                rep.value(
                    "rib.interner_hit_permille",
                    (hits * 1000).checked_div(hits + misses).unwrap_or(0) as f64,
                );
                rep.value("rib.loc_trie_nodes", speaker.loc_rib().node_count() as f64);
            }
        }

        let mut total = Moved::default();
        for moved in &moved_by_phase {
            total.add(*moved);
        }
        rep.value(
            "speaker.out_msgs_per_route",
            total.msgs_out as f64 / total.routes_in as f64,
        );
        rep.value(
            "speaker.out_bytes_per_route",
            total.bytes_out as f64 / total.routes_in as f64,
        );
        if ctx.traced() {
            let times = ctx.tracer.times_since(mark);
            rep.value(
                "router.encode_inputs_ms",
                mean_ms(&times, "router.encode_inputs"),
            );
            rep.value(
                "wire.decode_ns_per_route",
                span_ns(&times, "wire.decode") / total.routes_in as f64,
            );
            rep.value(
                "wire.encode_ns_per_route",
                span_ns(&times, "wire.encode") / total.routes_out.max(1) as f64,
            );
            for (phase, moved) in PHASES.iter().zip(&moved_by_phase) {
                rep.value(
                    phase.metric,
                    span_ns(&times, phase.span) / moved.routes_in as f64,
                );
            }
        }
        rep
    }

    fn traced_extras(&mut self, ctx: &mut Ctx<'_>) -> Vec<(&'static str, f64)> {
        let inputs = Inputs::encode(&FeedPlan::generate(ctx.seed));
        let mut out = mrai_pass(&inputs);
        out.extend(kernels::run(&inputs));
        out
    }
}

/// One pass with MRAI packing: feeder 0's announcements are staged by
/// `on_message`, then one `tick` flushes them to the listeners.
fn mrai_pass(inputs: &Inputs) -> Vec<(&'static str, f64)> {
    let mut speaker = build_speaker(speaker_config().with_mrai(MRAI));
    let mut staged = 0u64;
    let mut sent_early = 0u64;
    for bytes in inputs.feeder0() {
        let (msg, _) = decode_message(bytes, WIRE).expect("the benchmark encoded this message");
        staged += routes_of(&msg);
        sent_early += encode_outputs(&speaker.on_message(PeerId(0), msg, NOW)).routes_out;
    }
    let t = Instant::now();
    let outputs = speaker.tick(NOW + MRAI);
    let flush_ns = t.elapsed().as_nanos() as f64;
    let flushed = encode_outputs(&outputs);
    assert!(
        flushed.routes_out > sent_early,
        "the MRAI tick must carry the staged routes ({} flushed, {sent_early} sent early)",
        flushed.routes_out
    );
    vec![
        ("speaker.mrai_flush_ns_per_route", flush_ns / staged as f64),
        (
            "speaker.mrai_out_msgs_per_route",
            flushed.msgs_out as f64 / staged as f64,
        ),
    ]
}
