//! `--selfcheck`: do two sets of runs of the same code agree?
//!
//! A set holds several runs of every workload (`run1/`, `run2/`, …).
//! Exact metrics must be bit-equal in every run of both sets; a timed
//! metric that has a bound must have medians (over the runs of a set)
//! within that share of the first set's; timed metrics without a bound
//! are listed with their spread and not judged. Single runs are not
//! compared: on a shared machine one run in a few lands in a slow spell.

use crate::stats::median_of;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn entries(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| Some(entry.ok()?.path()))
        .collect();
    paths.sort();
    Ok(paths)
}

/// One metric of one result file, over the runs of a set.
#[derive(Debug, Default)]
struct Series {
    values: Vec<f64>,
    exact: bool,
    bound: Option<f64>,
}

/// `(result file, metric)` → its values over the runs of `set`.
fn load_set(set: &Path) -> Result<BTreeMap<(String, String), Series>, String> {
    let mut out: BTreeMap<(String, String), Series> = BTreeMap::new();
    for run in entries(set)?.iter().filter(|p| p.is_dir()) {
        for file in entries(run)? {
            let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            if stem.starts_with("trace_") {
                continue;
            }
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            let doc: Value =
                serde_json::from_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            for section in ["end_to_end", "per_layer"] {
                for (metric, m) in doc.get(section).as_map().unwrap_or(&[]) {
                    let value = number(m.get("value"))
                        .ok_or_else(|| format!("{}: {metric} has no value", file.display()))?;
                    let series = out.entry((stem.to_string(), metric.clone())).or_default();
                    series.values.push(value);
                    series.exact = matches!(m.get("kind"), Value::Str(k) if k == "exact");
                    series.bound = number(m.get("bound"));
                }
            }
        }
    }
    if out.is_empty() {
        return Err(format!(
            "{}: no result files in its run directories",
            set.display()
        ));
    }
    Ok(out)
}

/// Compare set `a` with set `b`, write `spread.json` into `out`, and
/// return the printable table and whether every judged metric agreed.
pub fn compare_sets(a: &Path, b: &Path, out: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let mut table = String::new();
    let mut rows = Vec::new();
    let mut all_ok = true;
    for ((file, metric), sa) in &set_a {
        let sb = set_b
            .get(&(file.clone(), metric.clone()))
            .ok_or_else(|| format!("{file}: {metric} is missing from {}", b.display()))?;
        let (ma, mb) = (median_of(&sa.values), median_of(&sb.values));
        let spread = if ma == mb {
            0.0
        } else {
            (mb - ma).abs() / ma.abs()
        };
        let (verdict, ok) = match (sa.exact, sa.bound) {
            (true, _) => {
                let first = sa.values[0].to_bits();
                let same = |s: &Series| s.values.iter().all(|v| v.to_bits() == first);
                ("exact", same(sa) && same(sb))
            }
            (false, Some(bound)) => ("bound", spread <= bound),
            (false, None) => ("reported", true),
        };
        all_ok &= ok;
        let _ = writeln!(
            table,
            "{} {file:<34} {metric:<36} {ma:>18.6} {mb:>18.6} spread={spread:.4} {verdict} n={}+{}",
            if ok { "ok  " } else { "FAIL" },
            sa.values.len(),
            sb.values.len(),
        );
        rows.push(Value::Map(vec![
            ("run".to_string(), Value::Str(file.clone())),
            ("metric".to_string(), Value::Str(metric.clone())),
            ("first".to_string(), Value::F64(ma)),
            ("second".to_string(), Value::F64(mb)),
            ("spread".to_string(), Value::F64(spread)),
            ("judged_as".to_string(), Value::Str(verdict.to_string())),
            ("ok".to_string(), Value::Bool(ok)),
        ]));
    }
    let doc = serde_json::to_string_pretty(&Value::Seq(rows)).map_err(|e| e.to_string())?;
    let path = out.join("spread.json");
    std::fs::write(&path, doc + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((table, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_run(set: &Path, run: &str, wall: f64, events: u64) {
        let dir = set.join(run);
        std::fs::create_dir_all(&dir).unwrap();
        let doc = format!(
            r#"{{"end_to_end": {{"wall_s": {{"value": {wall}, "kind": "timed", "bound": 0.25}}}},
                "per_layer": {{"engine.events": {{"value": {events}, "kind": "exact", "bound": null}},
                               "cpu.user_s": {{"value": {wall}, "kind": "timed", "bound": null}}}}}}"#
        );
        std::fs::write(dir.join("e2e_w.json"), doc).unwrap();
    }

    #[test]
    fn medians_within_bound_and_equal_counts_agree() {
        // Under the package's ignored results directory.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("results")
            .join(format!("test-compare-{}", std::process::id()));
        let (a, b) = (root.join("first"), root.join("second"));
        // One slow run in the second set does not move its median.
        for (set, walls) in [(&a, [1.0, 1.1, 0.9]), (&b, [1.2, 3.0, 1.1])] {
            for (i, wall) in walls.into_iter().enumerate() {
                write_run(set, &format!("run{i}"), wall, 7);
            }
        }
        let (table, ok) = compare_sets(&a, &b, &root).unwrap();
        assert!(ok, "{table}");
        assert!(root.join("spread.json").exists());

        // A count that differs in a single run is a disagreement.
        write_run(&b, "run1", 1.2, 8);
        let (table, ok) = compare_sets(&a, &b, &root).unwrap();
        assert!(!ok && table.contains("FAIL e2e_w"), "{table}");

        // So is a median outside the bound.
        for i in 0..3 {
            write_run(&b, &format!("run{i}"), 1.5, 7);
        }
        let (_, ok) = compare_sets(&a, &b, &root).unwrap();
        assert!(!ok);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
