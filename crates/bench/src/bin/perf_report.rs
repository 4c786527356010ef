//! Perf-regression gate over the `results/BENCH_*.json` suite.
//!
//! Usage:
//!
//! ```text
//! perf_report [OUT.json] [RESULTS_DIR] [BASELINE.json] [--update-baseline]
//! perf_report --import-exact TRACED.json OUT.json
//! ```
//!
//! The second form turns one traced `benchmark/run.sh` result file into
//! the counters file the catalog reads (`results/BENCH_<workload>.json`):
//! its exact counters only, see [`peering_bench::perf::exact_counters`].
//!
//! Reads every results file named by the metric catalog
//! ([`peering_bench::perf::CATALOG`]) from `RESULTS_DIR` (default
//! `results/`), evaluates the catalog against the checked-in baseline
//! (default `RESULTS_DIR/BENCH_PERF_BASELINE.json`), and writes the
//! `peering-perf/v1` report to `OUT.json` (default
//! `RESULTS_DIR/BENCH_PERF.json`). Exits non-zero when a gated metric
//! regressed past its tolerance, is missing on either side, or the
//! baseline holds stale keys. `--update-baseline` rewrites the baseline
//! from the current values instead of judging against it — run it when
//! a PR intentionally moves a gated metric, and commit the result.
//!
//! The report is a pure function of the results files: running this
//! twice over the same directory yields byte-identical output, which
//! `tools/check.sh` verifies.

use peering_bench::perf::{
    baseline_to_value, build_report, exact_counters, parse_baseline, CATALOG,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// `--import-exact TRACED.json OUT.json`.
fn import_exact(traced_path: &str, out_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(traced_path).map_err(|e| format!("{traced_path}: {e}"))?;
    let traced: Value =
        serde_json::from_str(&text).map_err(|e| format!("{traced_path}: unparsable: {e:?}"))?;
    let counters = exact_counters(&traced).map_err(|e| format!("{traced_path}: {e}"))?;
    let rendered = serde_json::to_string_pretty(&counters).expect("counters render") + "\n";
    std::fs::write(out_path, rendered).map_err(|e| format!("{out_path}: {e}"))
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--import-exact") {
        let [_, traced, out] = args.as_slice() else {
            eprintln!("usage: perf_report --import-exact TRACED.json OUT.json");
            return ExitCode::FAILURE;
        };
        return match import_exact(traced, out) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perf_report: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let update_baseline = if let Some(i) = args.iter().position(|a| a == "--update-baseline") {
        args.remove(i);
        true
    } else {
        false
    };
    let out_path = args
        .first()
        .cloned()
        .unwrap_or_else(|| "results/BENCH_PERF.json".to_string());
    let results_dir = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "results".to_string());
    let baseline_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| format!("{results_dir}/BENCH_PERF_BASELINE.json"));

    // Parse each catalog-referenced results file once. A missing or
    // unparsable file is not an immediate error: the affected gated
    // metrics report missing_current and fail the gate below, while a
    // partial tree can still be inspected.
    let mut results: BTreeMap<String, Value> = BTreeMap::new();
    for metric in CATALOG {
        if results.contains_key(metric.file) {
            continue;
        }
        let path = Path::new(&results_dir).join(metric.file);
        let Ok(text) = std::fs::read_to_string(&path) else {
            eprintln!("perf_report: missing {}", path.display());
            continue;
        };
        match serde_json::from_str::<Value>(&text) {
            Ok(v) => {
                results.insert(metric.file.to_string(), v);
            }
            Err(e) => eprintln!("perf_report: unparsable {}: {e:?}", path.display()),
        }
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_baseline(&text) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("perf_report: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(_) => {
            eprintln!("perf_report: no baseline at {baseline_path}");
            None
        }
    };

    let report = build_report(&results, baseline.as_ref());

    if update_baseline {
        let fresh = report.baseline_metrics();
        let rendered = serde_json::to_string_pretty(&baseline_to_value(&fresh))
            .expect("baseline renders")
            + "\n";
        if let Err(e) = std::fs::write(&baseline_path, rendered) {
            eprintln!("perf_report: cannot write {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "perf_report: baseline {} updated ({} metrics)",
            baseline_path,
            fresh.len()
        );
        // Judge against the fresh baseline so the written report is
        // coherent with what future runs will compare against.
        let report = build_report(&results, Some(&fresh));
        let rendered =
            serde_json::to_string_pretty(&report.to_value()).expect("report renders") + "\n";
        if let Err(e) = std::fs::write(&out_path, rendered) {
            eprintln!("perf_report: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    let rendered = serde_json::to_string_pretty(&report.to_value()).expect("report renders") + "\n";
    if let Err(e) = std::fs::write(&out_path, rendered) {
        eprintln!("perf_report: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }

    let mut failed = false;
    for r in &report.readings {
        match r.status {
            peering_bench::perf::Status::Ok | peering_bench::perf::Status::Reported => {}
            status => {
                failed = true;
                eprintln!(
                    "perf_report: {} {:?} (current {:?}, baseline {:?})",
                    r.key, status, r.value, r.baseline
                );
            }
        }
    }
    for k in &report.stale_baseline_keys {
        failed = true;
        eprintln!("perf_report: stale baseline key {k:?} — regenerate the baseline");
    }
    if failed {
        eprintln!("perf_report: FAILED — see {out_path}; if intentional, rerun with --update-baseline and commit the new baseline");
        return ExitCode::FAILURE;
    }
    println!(
        "perf_report: ok ({} metrics gated, {} reported) -> {}",
        report
            .readings
            .iter()
            .filter(|r| r.status != peering_bench::perf::Status::Reported)
            .count(),
        report
            .readings
            .iter()
            .filter(|r| r.status == peering_bench::perf::Status::Reported)
            .count(),
        out_path
    );
    ExitCode::SUCCESS
}
