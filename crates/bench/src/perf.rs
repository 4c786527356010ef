//! Perf-regression harness over the `results/BENCH_*.json` suite.
//!
//! Every benchmark in `tools/check.sh` writes a deterministic JSON
//! snapshot, but a snapshot has no trajectory: nothing notices when a PR
//! quietly doubles bytes/route or halves the parallel speedup ceiling.
//! This module gives the suite a gate. A catalog ([`CATALOG`]) names the
//! comparable metrics, says how to extract each one from its file, and
//! declares a direction and tolerance; [`build_report`] extracts the
//! current values, compares them against the checked-in baseline
//! (`results/BENCH_PERF_BASELINE.json`), and renders a schema'd report
//! (`results/BENCH_PERF.json`) whose `ok` field the gate enforces.
//!
//! Two rules keep this inside the determinism contract:
//!
//! * **Wall-clock keys are reported, never gated.** `timing_*` values
//!   ride along in the report for humans, with no gate attached — the
//!   machine only compares sim-time and memory-accounting quantities,
//!   which are bitwise reproducible.
//! * **The report is a pure function of its inputs.** Running
//!   `perf_report` twice over the same `results/` directory produces
//!   byte-identical output, so `tools/check.sh` double-runs it like
//!   every other bench.

mod catalog;

pub use catalog::CATALOG;
use serde_json::Value;
use std::collections::BTreeMap;

/// Schema tag of `results/BENCH_PERF.json`.
pub const REPORT_SCHEMA: &str = "peering-perf/v1";
/// Schema tag of the checked-in baseline.
pub const BASELINE_SCHEMA: &str = "peering-perf-baseline/v1";

/// One step into a JSON value tree.
#[derive(Debug, Clone, Copy)]
pub enum Seg {
    /// Map key.
    Key(&'static str),
    /// Sequence index.
    Idx(usize),
}

/// How to pull a number out of a parsed results file.
#[derive(Debug, Clone, Copy)]
pub enum Extract {
    /// The numeric (or boolean, as 0/1) value at a path.
    Path(&'static [Seg]),
    /// The length of the sequence at a path (`&[]` = the root).
    Count(&'static [Seg]),
    /// The sum of all numeric values in the map at a path.
    SumMap(&'static [Seg]),
}

/// Direction and tolerance of a gated metric, in permille of baseline.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Fail when current exceeds baseline by more than the tolerance.
    LowerIsBetter(u64),
    /// Fail when current falls short of baseline by more than the
    /// tolerance.
    HigherIsBetter(u64),
    /// Fail when current moves away from baseline in *either* direction
    /// by more than the tolerance (0 = must match exactly).
    Drift(u64),
}

/// One catalog entry: where a metric lives and how it is judged.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable report key, `<bench>.<name>`.
    pub key: &'static str,
    /// Results file the metric is read from.
    pub file: &'static str,
    /// Extraction recipe.
    pub extract: Extract,
    /// `None` = reported only (the wall-clock seam, source-size
    /// counts), never gated.
    pub gate: Option<Gate>,
}

fn lookup<'a>(mut v: &'a Value, path: &[Seg]) -> Option<&'a Value> {
    for seg in path {
        v = match (seg, v) {
            (Seg::Key(k), Value::Map(entries)) => &entries.iter().find(|(name, _)| name == k)?.1,
            (Seg::Idx(i), Value::Seq(items)) => items.get(*i)?,
            _ => return None,
        };
    }
    Some(v)
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
        _ => None,
    }
}

/// Run one extraction recipe against a parsed results file.
pub fn extract(root: &Value, recipe: &Extract) -> Option<f64> {
    match recipe {
        Extract::Path(path) => as_number(lookup(root, path)?),
        Extract::Count(path) => match lookup(root, path)? {
            Value::Seq(items) => Some(items.len() as f64),
            _ => None,
        },
        Extract::SumMap(path) => match lookup(root, path)? {
            Value::Map(entries) => {
                let mut sum = 0.0;
                for (_, v) in entries {
                    sum += as_number(v)?;
                }
                Some(sum)
            }
            _ => None,
        },
    }
}

/// Verdict on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Gated, within tolerance of baseline.
    Ok,
    /// Gated, beyond tolerance in the bad direction.
    Regressed,
    /// Ungated metric (wall-clock, source size), informational only.
    Reported,
    /// Gated but absent from the current results files.
    MissingCurrent,
    /// Gated but absent from the baseline — regenerate the baseline.
    MissingBaseline,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Reported => "reported",
            Status::MissingCurrent => "missing_current",
            Status::MissingBaseline => "missing_baseline",
        }
    }
}

/// One evaluated metric.
#[derive(Debug, Clone)]
pub struct Reading {
    /// Catalog key.
    pub key: &'static str,
    /// Current value, when extractable.
    pub value: Option<f64>,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Verdict.
    pub status: Status,
}

/// The full report: every catalog metric evaluated, plus baseline keys
/// the catalog no longer knows (stale — also a failure, so the baseline
/// shrinks with the catalog instead of rotting).
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Catalog-order readings.
    pub readings: Vec<Reading>,
    /// Baseline keys absent from the catalog.
    pub stale_baseline_keys: Vec<String>,
}

fn gate_verdict(gate: Gate, current: f64, baseline: f64) -> Status {
    let (tol, delta) = match gate {
        Gate::LowerIsBetter(t) => (t, current - baseline),
        Gate::HigherIsBetter(t) => (t, baseline - current),
        Gate::Drift(t) => (t, (current - baseline).abs()),
    };
    let allowed = baseline.abs() * tol as f64 / 1000.0;
    if delta > allowed {
        Status::Regressed
    } else {
        Status::Ok
    }
}

impl PerfReport {
    /// True when no gated metric regressed or went missing and the
    /// baseline carries no stale keys.
    pub fn ok(&self) -> bool {
        self.stale_baseline_keys.is_empty()
            && self
                .readings
                .iter()
                .all(|r| matches!(r.status, Status::Ok | Status::Reported))
    }

    /// The current values of every extractable gated metric, keyed for
    /// the baseline file.
    pub fn baseline_metrics(&self) -> BTreeMap<String, f64> {
        self.readings
            .iter()
            .filter(|r| r.status != Status::Reported)
            .filter_map(|r| Some((r.key.to_string(), r.value?)))
            .collect()
    }

    /// Render as the `peering-perf/v1` report value. Deterministic:
    /// catalog order, integer-friendly float formatting, no wall-clock
    /// reads.
    pub fn to_value(&self) -> Value {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                let m = vec![
                    ("value".to_string(), r.value.map_or(Value::Null, Value::F64)),
                    (
                        "baseline".to_string(),
                        r.baseline.map_or(Value::Null, Value::F64),
                    ),
                    (
                        "status".to_string(),
                        Value::Str(r.status.as_str().to_string()),
                    ),
                ];
                (r.key.to_string(), Value::Map(m))
            })
            .collect();
        Value::Map(vec![
            ("schema".to_string(), Value::Str(REPORT_SCHEMA.to_string())),
            ("metrics".to_string(), Value::Map(metrics)),
            (
                "stale_baseline_keys".to_string(),
                Value::Seq(
                    self.stale_baseline_keys
                        .iter()
                        .map(|k| Value::Str(k.clone()))
                        .collect(),
                ),
            ),
            ("ok".to_string(), Value::Bool(self.ok())),
        ])
    }
}

/// Evaluate the catalog over parsed results files (keyed by file name,
/// e.g. `"BENCH_scale.json"`) against an optional baseline map.
///
/// With no baseline (first run ever), gated metrics report
/// `missing_baseline` and the report is not ok — the gate demands an
/// explicit `--update-baseline` rather than silently blessing a first
/// run.
pub fn build_report(
    results: &BTreeMap<String, Value>,
    baseline: Option<&BTreeMap<String, f64>>,
) -> PerfReport {
    let mut readings = Vec::new();
    for metric in CATALOG {
        let value = results
            .get(metric.file)
            .and_then(|root| extract(root, &metric.extract));
        let base = baseline.and_then(|b| b.get(metric.key).copied());
        let status = match metric.gate {
            None => Status::Reported,
            Some(gate) => match (value, base) {
                (None, _) => Status::MissingCurrent,
                (_, None) => Status::MissingBaseline,
                (Some(v), Some(b)) => gate_verdict(gate, v, b),
            },
        };
        readings.push(Reading {
            key: metric.key,
            value,
            baseline: base,
            status,
        });
    }
    let stale_baseline_keys = baseline
        .map(|b| {
            b.keys()
                .filter(|k| CATALOG.iter().all(|m| m.key != k.as_str()))
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    PerfReport {
        readings,
        stale_baseline_keys,
    }
}

/// Render a baseline map as the `peering-perf-baseline/v1` value.
pub fn baseline_to_value(metrics: &BTreeMap<String, f64>) -> Value {
    Value::Map(vec![
        (
            "schema".to_string(),
            Value::Str(BASELINE_SCHEMA.to_string()),
        ),
        (
            "metrics".to_string(),
            Value::Map(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::F64(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Parse a baseline file's contents. Errors on schema mismatch or a
/// non-numeric metric value.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("bad baseline: {e:?}"))?;
    let schema = lookup(&root, &[Seg::Key("schema")]);
    match schema {
        Some(Value::Str(s)) if s == BASELINE_SCHEMA => {}
        other => return Err(format!("baseline schema mismatch: {other:?}")),
    }
    let Some(Value::Map(entries)) = lookup(&root, &[Seg::Key("metrics")]) else {
        return Err("baseline has no metrics map".to_string());
    };
    let mut out = BTreeMap::new();
    for (k, v) in entries {
        let n = as_number(v).ok_or_else(|| format!("baseline metric {k:?} is not a number"))?;
        out.insert(k.clone(), n);
    }
    Ok(out)
}

/// Schema tag of a `results/BENCH_<workload>.json` counters file.
pub const COUNTERS_SCHEMA: &str = "peering-bench-counters/v1";

/// The exact per-layer counters of one traced `benchmark/run.sh` result
/// file (`traced_<workload>.json`), as `tools/check.sh` installs them
/// under `results/`. Timed values, quartiles and repeat times are left
/// out, so what is installed is a function of the code and the seed and
/// can be byte-compared between runs. Errors when the run failed an
/// output check: counters of a wrong run are not worth keeping.
pub fn exact_counters(traced: &Value) -> Result<Value, String> {
    let field = |name: &'static str| {
        lookup(traced, &[Seg::Key(name)]).ok_or_else(|| format!("result file has no {name:?}"))
    };
    if field("correct")? != &Value::Bool(true) {
        return Err(format!(
            "the run failed its output checks: {:?}",
            field("failures")?
        ));
    }
    let Value::Map(per_layer) = field("per_layer")? else {
        return Err("per_layer is not a map".to_string());
    };
    let exact =
        |entry: &Value| lookup(entry, &[Seg::Key("kind")]) == Some(&Value::Str("exact".into()));
    let counters = per_layer
        .iter()
        .filter(|(_, entry)| exact(entry))
        .map(|(name, entry)| {
            let value = lookup(entry, &[Seg::Key("value")]).and_then(as_number);
            let value = value.ok_or_else(|| format!("counter {name:?} has no numeric value"))?;
            Ok((name.clone(), Value::F64(value)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Value::Map(vec![
        (
            "schema".to_string(),
            Value::Str(COUNTERS_SCHEMA.to_string()),
        ),
        ("workload".to_string(), field("workload")?.clone()),
        ("seed".to_string(), field("seed")?.clone()),
        ("counters".to_string(), Value::Map(counters)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn scale_file(events: u64, interned: f64) -> Value {
        map(vec![
            (
                "sequential",
                map(vec![
                    ("events", Value::U64(events)),
                    ("sim_end_us", Value::U64(156500)),
                ]),
            ),
            (
                "bytes_per_route",
                map(vec![
                    ("per_route_interned", Value::F64(interned)),
                    ("per_route_uninterned", Value::F64(431.8)),
                ]),
            ),
            (
                "engine_profiles",
                Value::Seq(
                    [1500, 2800, 4000]
                        .map(|ceiling| {
                            map(vec![
                                ("speedup_ceiling_permille", Value::U64(ceiling)),
                                ("imbalance_permille", Value::U64(1500)),
                                ("remote_send_permille", Value::U64(300)),
                            ])
                        })
                        .to_vec(),
                ),
            ),
            ("bytes_per_speaker_prefix", Value::F64(682.8)),
            ("idle_bytes_per_speaker", Value::F64(6_553.5)),
            ("topo_bytes_per_session", Value::F64(68.1)),
            ("timing_wall_ms_sequential", Value::F64(25000.0)),
            ("timing_events_per_sec_sequential", Value::F64(59585.5)),
        ])
    }

    /// A traced benchmark result file, cut down to what the import reads:
    /// `(name, kind, value)` per-layer metrics.
    fn traced(workload: &str, correct: bool, per_layer: &[(&str, &str, f64)]) -> Value {
        let metric = |kind: &str, value: f64| {
            map(vec![
                ("value", Value::F64(value)),
                ("kind", Value::Str(kind.into())),
                ("q1", Value::F64(value)),
            ])
        };
        map(vec![
            ("workload", Value::Str(workload.into())),
            ("seed", Value::U64(42)),
            ("correct", Value::Bool(correct)),
            ("failures", Value::Seq(vec![])),
            (
                "repeat_times",
                Value::Seq(vec![map(vec![("wall_s", Value::F64(5.1))])]),
            ),
            (
                "per_layer",
                map(per_layer
                    .iter()
                    .map(|&(name, kind, value)| (name, metric(kind, value)))
                    .collect()),
            ),
        ])
    }

    fn traced_router_feed(correct: bool) -> Value {
        traced(
            "router_feed",
            correct,
            &[
                ("table_bytes_per_route", "exact", 298.152),
                ("speaker.announce_ns_per_route", "timed", 1300.0),
                ("speaker.out_msgs_per_route", "exact", 2.0),
                ("speaker.out_bytes_per_route", "exact", 115.33),
                ("rib.interner_distinct", "exact", 3280.0),
                ("rib.interner_hit_permille", "exact", 994.0),
                ("alloc.count_per_op", "exact", 6217.8),
                ("alloc.bytes_per_op", "exact", 654066.4),
                ("cpu.user_s", "timed", 8.7),
            ],
        )
    }

    fn traced_plan_catalog() -> Value {
        traced(
            "plan_catalog",
            true,
            &[
                ("sim_converge_ms", "exact", 200006.0),
                ("plan.chaos_us", "timed", 3627.8),
                ("plan.oracle_checks", "exact", 44.0),
                ("plan.search_visited", "exact", 15.0),
                ("plan.faults_injected", "exact", 84.0),
                ("alloc.count_per_op", "exact", 19314.9),
                ("alloc.bytes_per_op", "exact", 3935459.9),
            ],
        )
    }

    /// The engine workloads with exact counters: name, simulated time to
    /// converge and event count.
    const ENGINE_RUNS: [(&str, f64, f64); 3] = [
        ("internet_full_bringup", 44.0, 960528.0),
        ("internet_eval_table", 156.5, 353542.0),
        ("internet_eval_table_par2", 156.5, 353542.0),
    ];

    /// Installed counters of one engine workload allocating
    /// `bytes_per_op` per event.
    fn traced_engine_run(
        workload: &str,
        converge_ms: f64,
        events: f64,
        bytes_per_op: f64,
    ) -> Value {
        let run = traced(
            workload,
            true,
            &[
                ("sim_converge_ms", "exact", converge_ms),
                ("engine.events", "exact", events),
                ("engine.epochs", "exact", 15.0),
                ("engine.sent_remote", "exact", 120629.0),
                ("engine.ns_per_event", "timed", 5800.0),
                ("alloc.count_per_op", "exact", 7.43),
                ("alloc.bytes_per_op", "exact", bytes_per_op),
            ],
        );
        exact_counters(&run).unwrap()
    }

    /// Installed counters of every [`ENGINE_RUNS`] workload, by file.
    fn traced_engine_runs() -> Vec<(String, Value)> {
        ENGINE_RUNS
            .iter()
            .map(|&(workload, converge_ms, events)| {
                let run = traced_engine_run(workload, converge_ms, events, 1726.1);
                (format!("BENCH_{workload}.json"), run)
            })
            .collect()
    }

    /// Installed counters of both mux workloads, by file.
    fn traced_mux_runs() -> Vec<(String, Value)> {
        ["mux_tenant_churn", "mux_upstream_fanout"]
            .iter()
            .map(|&workload| {
                let run = traced(
                    workload,
                    true,
                    &[
                        ("sim_converge_ms", "exact", 2.0),
                        ("mux.updates_in_per_op", "exact", 268.0),
                        ("mux.updates_out_per_op", "exact", 268.0),
                        ("mux.decision_runs_per_op", "exact", 269.0),
                        ("mux.deliveries_per_op", "exact", 268.0),
                        ("mux.tenant_update_us", "timed", 480.0),
                        ("alloc.count_per_op", "exact", 2049.2),
                        ("alloc.bytes_per_op", "exact", 653070.3),
                    ],
                );
                let file = format!("BENCH_{workload}.json");
                (file, exact_counters(&run).unwrap())
            })
            .collect()
    }

    #[test]
    fn benchmark_import_keeps_exact_counters_only() {
        let installed = exact_counters(&traced_router_feed(true)).unwrap();
        let Some(Value::Map(counters)) = lookup(&installed, &[Seg::Key("counters")]) else {
            panic!("no counters map in {installed:?}");
        };
        let names: Vec<&str> = counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names.len(), 7, "{names:?}");
        assert!(!names
            .iter()
            .any(|n| n.ends_with("_ns_per_route") || n.starts_with("cpu.")));
        assert!(lookup(&installed, &[Seg::Key("repeat_times")]).is_none());
        // Every catalog entry of an imported workload finds its counter.
        let plan_catalog = exact_counters(&traced_plan_catalog()).unwrap();
        let mut imported = traced_engine_runs();
        imported.extend(traced_mux_runs());
        imported.push(("BENCH_router_feed.json".to_string(), installed));
        imported.push(("BENCH_plan_catalog.json".to_string(), plan_catalog));
        for (file, installed) in &imported {
            for m in CATALOG.iter().filter(|m| m.file == file) {
                assert!(extract(installed, &m.extract).is_some(), "{}", m.key);
            }
        }
        // A run that failed its output checks installs nothing.
        assert!(exact_counters(&traced_router_feed(false)).is_err());
    }

    fn full_results() -> BTreeMap<String, Value> {
        let mut r = BTreeMap::new();
        r.insert("BENCH_scale.json".to_string(), scale_file(1000, 252.8));
        r.insert(
            "BENCH_mux_scale.json".to_string(),
            map(vec![(
                "designs",
                Value::Seq(vec![
                    map(vec![
                        ("grouped_marginal_bytes_per_route", Value::F64(2.28)),
                        ("marginal_ratio", Value::F64(80.75)),
                    ]),
                    map(vec![
                        ("grouped_marginal_bytes_per_route", Value::F64(0.4)),
                        ("marginal_ratio", Value::F64(452.0)),
                    ]),
                ]),
            )]),
        );
        r.insert(
            "BENCH_telemetry.json".to_string(),
            map(vec![
                (
                    "counters",
                    map(vec![("a", Value::U64(10)), ("b", Value::U64(5))]),
                ),
                ("dropped_events", Value::U64(0)),
            ]),
        );
        r.insert(
            "BENCH_analysis.json".to_string(),
            map(vec![
                ("allowlist_size", Value::U64(6)),
                ("ok", Value::Bool(true)),
                ("files_scanned", Value::U64(120)),
                ("lines_scanned", Value::U64(40000)),
                ("largest_file", map(vec![("lines", Value::U64(900))])),
            ]),
        );
        r.insert(
            "BENCH_abuse.json".to_string(),
            Value::Seq(vec![map(vec![]), map(vec![]), map(vec![]), map(vec![])]),
        );
        r.insert(
            "BENCH_collector.json".to_string(),
            map(vec![
                ("feed_records", Value::U64(70)),
                ("archive_bytes", Value::U64(9000)),
            ]),
        );
        r.insert(
            "BENCH_router_feed.json".to_string(),
            exact_counters(&traced_router_feed(true)).unwrap(),
        );
        r.insert(
            "BENCH_plan_catalog.json".to_string(),
            exact_counters(&traced_plan_catalog()).unwrap(),
        );
        r.extend(traced_engine_runs());
        r.extend(traced_mux_runs());
        r.insert(
            "BENCH_plan.json".to_string(),
            map(vec![
                ("total_steps", Value::U64(15)),
                ("oracle_checks", Value::U64(44)),
                ("search_visited", Value::U64(15)),
                ("chaos_replays", Value::U64(32)),
                ("faults_injected", Value::U64(84)),
                ("timing_wall_ms", Value::F64(50.0)),
                (
                    "scenarios",
                    Value::Seq(vec![map(vec![]), map(vec![]), map(vec![])]),
                ),
            ]),
        );
        r
    }

    #[test]
    fn extraction_recipes() {
        let results = full_results();
        let scale = &results["BENCH_scale.json"];
        assert_eq!(
            extract(scale, &CATALOG[0].extract),
            Some(1000.0),
            "path into nested map"
        );
        let abuse = &results["BENCH_abuse.json"];
        assert_eq!(extract(abuse, &Extract::Count(&[])), Some(4.0));
        let tel = &results["BENCH_telemetry.json"];
        assert_eq!(
            extract(tel, &Extract::SumMap(&[Seg::Key("counters")])),
            Some(15.0)
        );
        assert_eq!(extract(scale, &Extract::Path(&[Seg::Key("nope")])), None);
    }

    #[test]
    fn matching_baseline_is_ok_and_round_trips() {
        let results = full_results();
        let no_base = build_report(&results, None);
        assert!(!no_base.ok(), "gated metrics demand a baseline");
        let baseline = no_base.baseline_metrics();
        let report = build_report(&results, Some(&baseline));
        assert!(report.ok(), "{:?}", report.readings);
        // Baseline file round-trip.
        let text = serde_json::to_string_pretty(&baseline_to_value(&baseline)).unwrap();
        assert_eq!(parse_baseline(&text).unwrap(), baseline);
        // Report rendering is deterministic.
        let a = serde_json::to_string_pretty(&report.to_value()).unwrap();
        let b = serde_json::to_string_pretty(&build_report(&results, Some(&baseline)).to_value())
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn regressions_fail_in_the_declared_direction_only() {
        let mut results = full_results();
        let baseline = build_report(&results, None).baseline_metrics();
        // bytes/route up 10% > 50 permille tolerance: regression.
        results.insert("BENCH_scale.json".to_string(), scale_file(1000, 278.1));
        let report = build_report(&results, Some(&baseline));
        let r = report
            .readings
            .iter()
            .find(|r| r.key == "scale.bytes_per_route_interned")
            .unwrap();
        assert_eq!(r.status, Status::Regressed);
        assert!(!report.ok());
        // bytes/route *down* 10%: an improvement, not a regression.
        results.insert("BENCH_scale.json".to_string(), scale_file(1000, 227.5));
        assert!(build_report(&results, Some(&baseline)).ok());
        // Drift(0) metric moved: regression either way.
        results.insert("BENCH_scale.json".to_string(), scale_file(1001, 252.8));
        let report = build_report(&results, Some(&baseline));
        let r = report
            .readings
            .iter()
            .find(|r| r.key == "scale.sequential_events")
            .unwrap();
        assert_eq!(r.status, Status::Regressed);
    }

    #[test]
    fn bringup_bytes_per_event_may_only_fall() {
        let key = "internet_full_bringup.alloc_bytes_per_op";
        let mut results = full_results();
        let baseline = build_report(&results, None).baseline_metrics();
        assert_eq!(baseline.get(key), Some(&1726.1));
        // Up 2 % against a 10 permille tolerance: a regression; down by
        // a third: an improvement.
        for (bytes, status) in [(1760.6, Status::Regressed), (1150.7, Status::Ok)] {
            let (workload, converge_ms, events) = ENGINE_RUNS[0];
            let run = traced_engine_run(workload, converge_ms, events, bytes);
            results.insert(format!("BENCH_{workload}.json"), run);
            let report = build_report(&results, Some(&baseline));
            let reading = report.readings.iter().find(|r| r.key == key).unwrap();
            assert_eq!(reading.status, status, "{bytes} bytes per event");
        }
    }

    #[test]
    fn missing_and_stale_metrics_fail() {
        let mut results = full_results();
        let mut baseline = build_report(&results, None).baseline_metrics();
        results.remove("BENCH_collector.json");
        let report = build_report(&results, Some(&baseline));
        assert!(report
            .readings
            .iter()
            .any(|r| r.status == Status::MissingCurrent));
        assert!(!report.ok());
        // A baseline key the catalog no longer knows is also a failure.
        baseline.insert("old.metric".to_string(), 1.0);
        let report = build_report(&full_results(), Some(&baseline));
        assert_eq!(report.stale_baseline_keys, vec!["old.metric".to_string()]);
        assert!(!report.ok());
    }

    #[test]
    fn wall_clock_and_source_size_keys_are_never_gated() {
        for m in CATALOG {
            let report_only = m.key.contains("timing_")
                || matches!(m.key, "analysis.files_scanned" | "analysis.lines_scanned");
            assert_eq!(
                m.gate.is_none(),
                report_only,
                "{}: timing and source-size keys exactly are the ungated set",
                m.key
            );
        }
        // Even absent, a reported metric cannot fail the gate.
        let mut results = full_results();
        let baseline = build_report(&results, None).baseline_metrics();
        let Value::Map(entries) = results.get_mut("BENCH_scale.json").unwrap() else {
            panic!()
        };
        entries.retain(|(k, _)| !k.starts_with("timing_"));
        assert!(build_report(&results, Some(&baseline)).ok());
        // Deleting source (fewer files, fewer lines) is not a regression.
        let Value::Map(entries) = results.get_mut("BENCH_analysis.json").unwrap() else {
            panic!()
        };
        for (k, v) in entries.iter_mut() {
            if k.ends_with("_scanned") {
                *v = Value::U64(1);
            }
        }
        assert!(build_report(&results, Some(&baseline)).ok());
        // One file outgrowing the largest is.
        let Value::Map(entries) = results.get_mut("BENCH_analysis.json").unwrap() else {
            panic!()
        };
        for (k, v) in entries.iter_mut() {
            if k == "largest_file" {
                *v = map(vec![("lines", Value::U64(901))]);
            }
        }
        assert!(!build_report(&results, Some(&baseline)).ok());
    }
}
