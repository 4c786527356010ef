//! The catalogue of metric names: unit, direction, and how two runs of
//! the same code are expected to compare.
//!
//! `BENCHMARK.json` mirrors [`END_TO_END`] and [`PER_LAYER`]; a unit test
//! keeps the two in step. `README.md` says what each metric means and
//! which end-to-end metric each layer metric should move.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a metric behaves between two runs on the same commit and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A deterministic count or size: bit-equal between runs and between
    /// the repeats of one run.
    Exact,
    /// Host time or something derived from it: medians of two runs must
    /// agree within this share of the first; reported only when `None`.
    Timed(Option<f64>),
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, unique across both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Exact count or timed value.
    pub kind: Kind,
}

const fn lower(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind,
    }
}

const fn higher(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        kind,
    }
}

const EXACT: Kind = Kind::Exact;
const TIMED: Kind = Kind::Timed(None);

/// Bound of `setup_s`, the largest the contract allows: set-up is short
/// and is sampled once per repeat.
pub const SETUP_BOUND: f64 = 0.25;

/// Bound of the host-time metrics. Across ten seeds the spread between
/// quartiles was 2 to 15 % of the median on the sandbox, whose speed
/// drifts by some 10 % between minutes, so nothing tighter than the
/// contract's maximum would hold; `peak_rss_mb` spreads by at most 6 %
/// (a run that fits a second repeat peaks higher).
pub const HOST_TIME_BOUND: f64 = 0.25;

/// End-to-end metrics every workload reports from the untraced binary.
/// All name **host** time; none is ever 0.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s", Kind::Timed(Some(SETUP_BOUND))),
    lower("wall_s", "s", Kind::Timed(Some(HOST_TIME_BOUND))),
    higher("ops_per_s", "1/s", Kind::Timed(Some(HOST_TIME_BOUND))),
    lower("op_p50_us", "us", Kind::Timed(Some(HOST_TIME_BOUND))),
    lower("op_p90_us", "us", Kind::Timed(Some(HOST_TIME_BOUND))),
    lower("peak_rss_mb", "MB", Kind::Timed(Some(0.2))),
];

/// Metrics of the traced run. The first two are end-to-end metrics that
/// only some workloads have (`sim_converge_ms` needs simulated time,
/// `table_bytes_per_route` needs a table the benchmark can reach), so
/// they cannot sit in [`END_TO_END`], which every workload must fill
/// with a non-zero value; the untraced run prints them all the same.
/// A workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[MetricDef] = &[
    lower("sim_converge_ms", "sim_ms", EXACT),
    lower("table_bytes_per_route", "bytes", EXACT),
    // Set-up, by layer.
    lower("topology.build_ms", "ms", TIMED),
    lower("scale.topo_build_ms", "ms", TIMED),
    lower("mux.build_ms", "ms", TIMED),
    lower("mux.preload_us_per_route", "us", TIMED),
    lower("router.encode_inputs_ms", "ms", TIMED),
    // netsim::engine, from the engine's own profiler.
    lower("engine.events", "count", EXACT),
    lower("engine.sim_end_us", "sim_us", EXACT),
    lower("engine.epochs", "count", EXACT),
    lower("engine.sent_local", "count", EXACT),
    lower("engine.sent_remote", "count", EXACT),
    lower("engine.remote_send_permille", "permille", EXACT),
    lower("engine.imbalance_permille", "permille", EXACT),
    higher("engine.speedup_ceiling_permille", "permille", EXACT),
    lower("engine.barrier_idle_events", "count", EXACT),
    lower("engine.ns_per_event", "ns", TIMED),
    lower("engine.drain_ns", "ns", TIMED),
    lower("engine.barrier_ns", "ns", TIMED),
    lower("engine.decision_ns", "ns", TIMED),
    lower("engine.flush_ns", "ns", TIMED),
    higher("engine.par2_speedup_permille", "permille", TIMED),
    // bgp::wire / bgp::speaker / bgp::rib, spans of router_feed.
    lower("wire.decode_ns_per_route", "ns", TIMED),
    lower("wire.encode_ns_per_route", "ns", TIMED),
    lower("speaker.announce_ns_per_route", "ns", TIMED),
    lower("speaker.withdraw_ns_per_route", "ns", TIMED),
    lower("speaker.replace_ns_per_route", "ns", TIMED),
    lower("speaker.out_msgs_per_route", "count", EXACT),
    lower("speaker.out_bytes_per_route", "bytes", EXACT),
    lower("speaker.mrai_flush_ns_per_route", "ns", TIMED),
    lower("speaker.mrai_out_msgs_per_route", "count", EXACT),
    lower("rib.interner_distinct", "count", EXACT),
    higher("rib.interner_hit_permille", "permille", EXACT),
    lower("rib.loc_trie_nodes", "count", EXACT),
    lower("rib.table_bytes", "bytes", EXACT),
    // Layer kernels: public functions in isolation, fixed work.
    lower("kernel.wire_decode_ns", "ns", TIMED),
    lower("kernel.wire_encode_ns", "ns", TIMED),
    lower("kernel.policy_import_ns", "ns", TIMED),
    lower("kernel.policy_safety_ns", "ns", TIMED),
    lower("kernel.decision_best_ns", "ns", TIMED),
    lower("kernel.adj_in_insert_ns", "ns", TIMED),
    lower("kernel.intern_ns", "ns", TIMED),
    lower("kernel.loc_set_best_ns", "ns", TIMED),
    lower("kernel.loc_lpm_ns", "ns", TIMED),
    lower("kernel.trie_insert_ns", "ns", TIMED),
    lower("kernel.trie_lpm_ns", "ns", TIMED),
    lower("kernel.queue_push_pop_ns", "ns", TIMED),
    // core::mux / emulation, telemetry deltas over the timed ops.
    lower("mux.updates_in_per_op", "count", EXACT),
    lower("mux.updates_out_per_op", "count", EXACT),
    lower("mux.decision_runs_per_op", "count", EXACT),
    lower("mux.deliveries_per_op", "count", EXACT),
    lower("mux.ns_per_delivery", "ns", TIMED),
    lower("mux.export_group_computed_per_op", "count", EXACT),
    lower("mux.export_group_shared_per_op", "count", EXACT),
    higher("mux.export_share_permille", "permille", EXACT),
    lower("mux.safety_blocked", "count", EXACT),
    // plan / verify, child spans of each scenario.
    lower("plan.search_us", "us", TIMED),
    lower("plan.certify_us", "us", TIMED),
    lower("plan.exec_build_us", "us", TIMED),
    lower("plan.exec_run_us", "us", TIMED),
    lower("plan.chaos_us", "us", TIMED),
    lower("plan.oracle_checks", "count", EXACT),
    lower("plan.search_visited", "count", EXACT),
    lower("plan.faults_injected", "count", EXACT),
    // Cross-cutting.
    lower("alloc.count_per_op", "count", EXACT),
    lower("alloc.bytes_per_op", "bytes", EXACT),
    lower("cpu.user_s", "s", TIMED),
    lower("cpu.sys_s", "s", TIMED),
    lower("op_p99_us", "us", TIMED),
    lower("op_max_us", "us", TIMED),
    lower("trace.overhead_permille", "permille", TIMED),
    lower("trace.unattributed_permille", "permille", TIMED),
];

/// Look a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One workload of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Memory a helper process touches and frees before the run, in MB:
    /// about 1.25 times the workload's peak resident size. Under the
    /// sandbox's hypervisor the first touch of a page the host has taken
    /// back costs tens of microseconds, which put 1 to 11 s of system
    /// time into identical runs; pages a process has just freed are
    /// cheap to fault in again.
    pub prewarm_mb: usize,
}

/// The workloads, in run order.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "internet_full_bringup",
        why: "Session bring-up of 47k speakers and 160k sessions: FSM, OPEN/KEEPALIVE, queue and engine do the work, the UPDATE path none; the bypass for speaker hot-path work.",
        prewarm_mb: 1300,
    },
    WorkloadDef {
        name: "internet_eval_table",
        why: "UPDATE-dominated convergence of 24 origins over 6k ASes on the sequential engine: decode, import policy, Adj-RIB-In, decision, Loc-RIB, export staging.",
        prewarm_mb: 750,
    },
    WorkloadDef {
        name: "internet_eval_table_par2",
        why: "The same speakers on 2 shard threads: barrier, cross-shard sends and shard imbalance matter here and nowhere else.",
        prewarm_mb: 1400,
    },
    WorkloadDef {
        name: "router_feed",
        why: "The paper's Fig. 2 router as a throughput test: 4 feeders x 131072 routes into one Speaker, wire to wire; no engine, so the bgp layers own the time.",
        prewarm_mb: 1300,
    },
    WorkloadDef {
        name: "mux_tenant_churn",
        why: "Tenant-update-to-converged latency through a 256-tenant mux: safety import, containment hook, emulation step loop, upstream export.",
        prewarm_mb: 650,
    },
    WorkloadDef {
        name: "mux_upstream_fanout",
        why: "The mux's other direction: one upstream route fans out to 256 tenants through the peer-group export engine; the read side to the tenant write side.",
        prewarm_mb: 650,
    },
    WorkloadDef {
        name: "plan_catalog",
        why: "Plan search, certification, execution and chaos replay of every migration scenario; the only workload verify and plan dominate.",
        prewarm_mb: 0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract() {
        for m in END_TO_END {
            match m.kind {
                Kind::Timed(Some(b)) => assert!(b > 0.0 && b <= 0.25, "{}", m.name),
                _ => panic!("{} needs a bound", m.name),
            }
        }
        assert_eq!(find("setup_s").map(|m| m.better), Some(Better::Lower));
    }

    /// `BENCHMARK.json` is exactly what the catalogue generates
    /// (`run.sh --catalogue > BENCHMARK.json` after changing it).
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, crate::report::benchmark_json(crate::RUN_SECONDS));
    }

    #[test]
    fn per_layer_metrics_carry_no_bound() {
        assert!(PER_LAYER
            .iter()
            .all(|m| matches!(m.kind, Kind::Exact | Kind::Timed(None))));
    }
}
