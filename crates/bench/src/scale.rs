//! E10 — the full-scale fast path: engine throughput, convergence, and
//! bytes/route at 2014 Internet scale (~47k ASes, ~524k prefixes).
//!
//! Everything in this module is deterministic — topology construction,
//! engine runs, digests, and memory accounting are pure functions of
//! `(preset, seed)`. Wall-clock numbers (events/sec, milliseconds to
//! convergence) live in the `scale_bench` *example*, outside the
//! determinism contract that `peering-analyze` enforces on `src/`;
//! `tools/check.sh` strips those `timing_*` keys before comparing
//! double runs byte-for-byte.

use peering_netsim::{EngineRun, ProfileSummary, SimTime};
use peering_topology::{Internet, InternetConfig};
use peering_workloads::{spaced_checkpoints, ScaleTopo};
use serde::Serialize;

/// Sim-time horizon checkpoint digests are spread across. Engine runs
/// quiesce far earlier; later checkpoints pin the converged table.
const CHECKPOINT_HORIZON: SimTime = SimTime::from_secs(120);
/// Checkpoints per run.
const CHECKPOINT_COUNT: usize = 4;

/// Resolve a preset name to generator parameters.
///
/// `full` is the paper's 2014 Internet (~47k ASes, ~524k prefixes);
/// `eval` is the 1:8-scaled evaluation topology; `small` is the unit
/// test Internet.
pub fn preset(name: &str, seed: u64) -> InternetConfig {
    match name {
        "full" => InternetConfig::full(seed),
        "eval" => InternetConfig::eval(seed),
        "small" => InternetConfig::small(seed),
        other => panic!("unknown scale preset {other:?} (full|eval|small)"),
    }
}

/// The standard checkpoint schedule for scale runs.
pub fn standard_checkpoints() -> Vec<SimTime> {
    spaced_checkpoints(CHECKPOINT_HORIZON, CHECKPOINT_COUNT)
}

/// One engine run, summarized for the report.
#[derive(Debug, Clone, Serialize)]
pub struct EngineSummary {
    /// Events processed to quiescence.
    pub events: u64,
    /// Sim-time of the last processed event (µs).
    pub sim_end_us: u64,
    /// `(checkpoint µs, Loc-RIB digest)` pairs, digest as fixed-width hex.
    pub checkpoints: Vec<(u64, String)>,
    /// Digest of every Loc-RIB at quiescence.
    pub final_digest: String,
}

impl EngineSummary {
    /// Summarize an [`EngineRun`].
    pub fn from_run(run: &EngineRun) -> EngineSummary {
        EngineSummary {
            events: run.events,
            sim_end_us: run.end_time.as_micros(),
            checkpoints: run
                .checkpoints
                .iter()
                .map(|(t, d)| (t.as_micros(), format!("{d:016x}")))
                .collect(),
            final_digest: format!("{:016x}", run.final_digest),
        }
    }
}

/// Fig. 2-style marginal table cost at a given scale, derived from
/// [`crate::fig2::measure`] (shared-attribute interning vs the naive
/// ablation).
#[derive(Debug, Clone, Serialize)]
pub struct BytesPerRoute {
    /// Peer sessions feeding the measured router.
    pub peers: usize,
    /// Routes per peer (the preset's global table size).
    pub routes: usize,
    /// Total table bytes with attribute interning.
    pub bytes_interned: usize,
    /// Total table bytes with interning disabled.
    pub bytes_uninterned: usize,
    /// Distinct attribute sets the interner ended up holding.
    pub distinct_attrs: usize,
    /// Interned bytes per stored Adj-RIB route.
    pub per_route_interned: f64,
    /// Uninterned bytes per stored Adj-RIB route.
    pub per_route_uninterned: f64,
}

/// Measure bytes/route at `(peers, routes)` scale.
pub fn bytes_per_route(peers: usize, routes: usize) -> BytesPerRoute {
    let p = crate::fig2::measure(peers, routes);
    let stored = (peers * routes) as f64;
    BytesPerRoute {
        peers,
        routes,
        bytes_interned: p.bytes_interned,
        bytes_uninterned: p.bytes_uninterned,
        distinct_attrs: p.distinct_attrs,
        per_route_interned: p.bytes_interned as f64 / stored,
        per_route_uninterned: p.bytes_uninterned as f64 / stored,
    }
}

/// The deterministic part of `results/BENCH_scale.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleReport {
    /// Preset name (`full`, `eval`, `small`).
    pub preset: String,
    /// Generator seed.
    pub seed: u64,
    /// AS count in the generated graph.
    pub ases: usize,
    /// BGP sessions wired into the engine.
    pub sessions: usize,
    /// Global prefix-table size of the preset.
    pub table_prefixes: usize,
    /// Beacon prefixes propagated through the engine.
    pub beacons: usize,
    /// Shard counts the parallel engine ran with.
    pub shard_counts: Vec<usize>,
    /// True when every parallel run equalled the sequential run,
    /// checkpoint digests included, bitwise.
    pub parallel_matches_sequential: bool,
    /// The sequential reference run.
    pub sequential: EngineSummary,
    /// Fig. 2-style table cost at this preset's table size.
    pub bytes_per_route: BytesPerRoute,
    /// Profiler summary of each parallel run, in `shard_counts` order
    /// (sim-time channel only — digest-invariant, so it sits in the
    /// compared report).
    pub engine_profiles: Vec<ProfileSummary>,
}

/// Build the engine topology for a generated Internet.
pub fn build_topo(net: &Internet, beacons: usize) -> ScaleTopo {
    ScaleTopo::from_internet(net, beacons)
}

/// Assemble the deterministic report from measured parts.
#[allow(clippy::too_many_arguments)]
pub fn report(
    preset_name: &str,
    seed: u64,
    net: &Internet,
    topo: &ScaleTopo,
    shard_counts: &[usize],
    all_match: bool,
    sequential: &EngineRun,
    bytes: BytesPerRoute,
    engine_profiles: Vec<ProfileSummary>,
) -> ScaleReport {
    ScaleReport {
        preset: preset_name.to_string(),
        seed,
        ases: net.graph.len(),
        sessions: topo.session_count(),
        table_prefixes: net.graph.total_prefixes(),
        beacons: topo.beacon_count(),
        shard_counts: shard_counts.to_vec(),
        parallel_matches_sequential: all_match,
        sequential: EngineSummary::from_run(sequential),
        bytes_per_route: bytes,
        engine_profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_preset_report_is_consistent() {
        let net = Internet::build(preset("small", 9));
        let topo = build_topo(&net, 4);
        let cks = standard_checkpoints();
        let seq = topo.run_engine_sequential(&cks, SimTime::MAX);
        let (par, prof) = topo.run_engine_parallel_profiled(
            2,
            &cks,
            SimTime::MAX,
            peering_netsim::ProfileConfig::sim(),
        );
        let bytes = bytes_per_route(2, 500);
        let summary = prof.summary();
        let rep = report(
            "small",
            9,
            &net,
            &topo,
            &[2],
            par == seq,
            &seq,
            bytes,
            vec![summary],
        );
        assert!(rep.parallel_matches_sequential);
        assert_eq!(rep.sequential.checkpoints.len(), CHECKPOINT_COUNT);
        assert_eq!(rep.engine_profiles[0].events, seq.events);
        assert!(rep.engine_profiles[0].speedup_ceiling_permille >= 1000);
        assert!(rep.sessions > 0 && rep.beacons > 0);
        assert!(rep.bytes_per_route.per_route_interned > 0.0);
        assert!(rep.bytes_per_route.per_route_uninterned >= rep.bytes_per_route.per_route_interned);
    }

    #[test]
    fn unknown_preset_panics() {
        assert!(std::panic::catch_unwind(|| preset("medium", 1)).is_err());
    }
}
