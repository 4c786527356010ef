//! The comparable-metric catalog: every metric `perf_report` reads from
//! `results/`, and how it is judged.

use super::{Extract, Gate, Metric, Seg};

/// The comparable-metric catalog. Order is report order.
///
/// Sim-time event counts, digest-bearing run shapes, and the analyzer's
/// shrink-only allowlist are pinned exactly (`Drift(0)` /
/// `LowerIsBetter(0)`); memory-accounting and grouping ratios get small
/// tolerances so refactors with sub-percent cost don't trip the gate;
/// `timing_*` keys and the analyzer's source-size counts are reported
/// with no gate.
pub const CATALOG: &[Metric] = &[
    Metric {
        key: "scale.sequential_events",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("sequential"), Seg::Key("events")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "scale.sim_end_us",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("sequential"), Seg::Key("sim_end_us")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "scale.bytes_per_speaker_prefix",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("bytes_per_speaker_prefix")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "scale.idle_bytes_per_speaker",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("idle_bytes_per_speaker")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "scale.topo_bytes_per_session",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("topo_bytes_per_session")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "scale.bytes_per_route_interned",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("bytes_per_route"), Seg::Key("per_route_interned")]),
        gate: Some(Gate::LowerIsBetter(50)),
    },
    Metric {
        key: "scale.bytes_per_route_uninterned",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[
            Seg::Key("bytes_per_route"),
            Seg::Key("per_route_uninterned"),
        ]),
        gate: Some(Gate::LowerIsBetter(50)),
    },
    // The partition's shape on the widest run: `engine_profiles` follows
    // `scale_bench`'s shard counts 2, 4, 8, so index 2 is 8 shards.
    Metric {
        key: "scale.speedup_ceiling_permille",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[
            Seg::Key("engine_profiles"),
            Seg::Idx(2),
            Seg::Key("speedup_ceiling_permille"),
        ]),
        gate: Some(Gate::HigherIsBetter(100)),
    },
    Metric {
        key: "scale.imbalance_permille",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[
            Seg::Key("engine_profiles"),
            Seg::Idx(2),
            Seg::Key("imbalance_permille"),
        ]),
        gate: Some(Gate::LowerIsBetter(100)),
    },
    Metric {
        key: "scale.remote_send_permille",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[
            Seg::Key("engine_profiles"),
            Seg::Idx(2),
            Seg::Key("remote_send_permille"),
        ]),
        gate: Some(Gate::LowerIsBetter(100)),
    },
    Metric {
        key: "scale.timing_wall_ms_sequential",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("timing_wall_ms_sequential")]),
        gate: None,
    },
    Metric {
        key: "scale.timing_events_per_sec_sequential",
        file: "BENCH_scale.json",
        extract: Extract::Path(&[Seg::Key("timing_events_per_sec_sequential")]),
        gate: None,
    },
    Metric {
        key: "mux_scale.ppe_marginal_bytes_per_route",
        file: "BENCH_mux_scale.json",
        extract: Extract::Path(&[
            Seg::Key("designs"),
            Seg::Idx(0),
            Seg::Key("grouped_marginal_bytes_per_route"),
        ]),
        gate: Some(Gate::LowerIsBetter(100)),
    },
    Metric {
        key: "mux_scale.ppe_marginal_ratio",
        file: "BENCH_mux_scale.json",
        extract: Extract::Path(&[Seg::Key("designs"), Seg::Idx(0), Seg::Key("marginal_ratio")]),
        gate: Some(Gate::HigherIsBetter(100)),
    },
    Metric {
        key: "mux_scale.addpath_marginal_bytes_per_route",
        file: "BENCH_mux_scale.json",
        extract: Extract::Path(&[
            Seg::Key("designs"),
            Seg::Idx(1),
            Seg::Key("grouped_marginal_bytes_per_route"),
        ]),
        gate: Some(Gate::LowerIsBetter(100)),
    },
    Metric {
        key: "telemetry.counter_total",
        file: "BENCH_telemetry.json",
        extract: Extract::SumMap(&[Seg::Key("counters")]),
        gate: Some(Gate::Drift(200)),
    },
    Metric {
        key: "telemetry.dropped_events",
        file: "BENCH_telemetry.json",
        extract: Extract::Path(&[Seg::Key("dropped_events")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "analysis.allowlist_size",
        file: "BENCH_analysis.json",
        extract: Extract::Path(&[Seg::Key("allowlist_size")]),
        gate: Some(Gate::LowerIsBetter(0)),
    },
    Metric {
        key: "analysis.ok",
        file: "BENCH_analysis.json",
        extract: Extract::Path(&[Seg::Key("ok")]),
        gate: Some(Gate::Drift(0)),
    },
    // Source size is a trajectory, not a gate: a PR that deletes a file
    // or a thousand lines must not fail the perf report for it.
    Metric {
        key: "analysis.files_scanned",
        file: "BENCH_analysis.json",
        extract: Extract::Path(&[Seg::Key("files_scanned")]),
        gate: None,
    },
    Metric {
        key: "analysis.lines_scanned",
        file: "BENCH_analysis.json",
        extract: Extract::Path(&[Seg::Key("lines_scanned")]),
        gate: None,
    },
    // The one source-size key that is gated: no file may outgrow the
    // largest one (tests excluded), so a module split stays split.
    Metric {
        key: "analysis.largest_file_lines",
        file: "BENCH_analysis.json",
        extract: Extract::Path(&[Seg::Key("largest_file"), Seg::Key("lines")]),
        gate: Some(Gate::LowerIsBetter(0)),
    },
    Metric {
        key: "abuse.scenarios",
        file: "BENCH_abuse.json",
        extract: Extract::Count(&[]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan.scenarios",
        file: "BENCH_plan.json",
        extract: Extract::Count(&[Seg::Key("scenarios")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan.total_steps",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("total_steps")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan.oracle_checks",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("oracle_checks")]),
        gate: Some(Gate::LowerIsBetter(0)),
    },
    Metric {
        key: "plan.search_visited",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("search_visited")]),
        gate: Some(Gate::LowerIsBetter(0)),
    },
    Metric {
        key: "plan.chaos_replays",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("chaos_replays")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan.faults_injected",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("faults_injected")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan.timing_wall_ms",
        file: "BENCH_plan.json",
        extract: Extract::Path(&[Seg::Key("timing_wall_ms")]),
        gate: None,
    },
    Metric {
        key: "collector.feed_records",
        file: "BENCH_collector.json",
        extract: Extract::Path(&[Seg::Key("feed_records")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "collector.archive_bytes",
        file: "BENCH_collector.json",
        extract: Extract::Path(&[Seg::Key("archive_bytes")]),
        gate: Some(Gate::Drift(0)),
    },
    // The exact counters of one traced `benchmark/run.sh --workload
    // router_feed` run (see `exact_counters`): allocations are the
    // machine-independent proxy for the Speaker's per-route cost and may
    // only fall; what goes on the wire and into the tables may not move.
    Metric {
        key: "router_feed.alloc_count_per_op",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "router_feed.alloc_bytes_per_op",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "router_feed.out_msgs_per_route",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("speaker.out_msgs_per_route")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "router_feed.out_bytes_per_route",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[
            Seg::Key("counters"),
            Seg::Key("speaker.out_bytes_per_route"),
        ]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "router_feed.table_bytes_per_route",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("table_bytes_per_route")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "router_feed.interner_distinct",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("rib.interner_distinct")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "router_feed.interner_hit_permille",
        file: "BENCH_router_feed.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("rib.interner_hit_permille")]),
        gate: Some(Gate::Drift(0)),
    },
    // The same for one traced `plan_catalog` run: allocations and bytes
    // allocated per scenario may only fall; the simulated time to
    // converge, the faults the chaos replays inject and the oracle's work
    // may not move.
    Metric {
        key: "plan_catalog.alloc_count_per_op",
        file: "BENCH_plan_catalog.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "plan_catalog.alloc_bytes_per_op",
        file: "BENCH_plan_catalog.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "plan_catalog.sim_converge_ms",
        file: "BENCH_plan_catalog.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan_catalog.faults_injected",
        file: "BENCH_plan_catalog.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("plan.faults_injected")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "plan_catalog.oracle_checks",
        file: "BENCH_plan_catalog.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("plan.oracle_checks")]),
        gate: Some(Gate::Drift(0)),
    },
    // And for one traced `internet_full_bringup` run: allocations and
    // bytes allocated per event may only fall; the engine's event count
    // and the simulated time to converge may not move.
    Metric {
        key: "internet_full_bringup.alloc_count_per_op",
        file: "BENCH_internet_full_bringup.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_full_bringup.alloc_bytes_per_op",
        file: "BENCH_internet_full_bringup.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_full_bringup.engine_events",
        file: "BENCH_internet_full_bringup.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("engine.events")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_full_bringup.sim_converge_ms",
        file: "BENCH_internet_full_bringup.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
    // The same for the two traced `eval` runs, which carry a routing
    // table; the sharded one also may not move its round count or how
    // many sends cross shards.
    Metric {
        key: "internet_eval_table.alloc_count_per_op",
        file: "BENCH_internet_eval_table.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_eval_table.alloc_bytes_per_op",
        file: "BENCH_internet_eval_table.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_eval_table.engine_events",
        file: "BENCH_internet_eval_table.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("engine.events")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_eval_table.sim_converge_ms",
        file: "BENCH_internet_eval_table.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_eval_table_par2.alloc_count_per_op",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_eval_table_par2.alloc_bytes_per_op",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "internet_eval_table_par2.engine_events",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("engine.events")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_eval_table_par2.sim_converge_ms",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_eval_table_par2.engine_epochs",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("engine.epochs")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "internet_eval_table_par2.engine_sent_remote",
        file: "BENCH_internet_eval_table_par2.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("engine.sent_remote")]),
        gate: Some(Gate::Drift(0)),
    },
    // And for the two traced mux runs: allocations and bytes allocated
    // per op may only fall; the deliveries, decision runs and UPDATEs out
    // per op and the simulated time to converge may not move.
    Metric {
        key: "mux_tenant_churn.alloc_count_per_op",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "mux_tenant_churn.alloc_bytes_per_op",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "mux_tenant_churn.deliveries_per_op",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.deliveries_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_tenant_churn.decision_runs_per_op",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.decision_runs_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_tenant_churn.updates_out_per_op",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.updates_out_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_tenant_churn.sim_converge_ms",
        file: "BENCH_mux_tenant_churn.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_upstream_fanout.alloc_count_per_op",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.count_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "mux_upstream_fanout.alloc_bytes_per_op",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("alloc.bytes_per_op")]),
        gate: Some(Gate::LowerIsBetter(10)),
    },
    Metric {
        key: "mux_upstream_fanout.deliveries_per_op",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.deliveries_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_upstream_fanout.decision_runs_per_op",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.decision_runs_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_upstream_fanout.updates_out_per_op",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("mux.updates_out_per_op")]),
        gate: Some(Gate::Drift(0)),
    },
    Metric {
        key: "mux_upstream_fanout.sim_converge_ms",
        file: "BENCH_mux_upstream_fanout.json",
        extract: Extract::Path(&[Seg::Key("counters"), Seg::Key("sim_converge_ms")]),
        gate: Some(Gate::Drift(0)),
    },
];
