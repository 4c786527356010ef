//! The machine-readable analysis report (`results/BENCH_analysis.json`).
//!
//! Everything is ordered: maps are `BTreeMap`, lists are sorted before
//! serialization, and no wall-clock data is recorded — two runs over
//! the same tree must produce byte-identical JSON (the gate `cmp`s
//! them to pin the analyzer's own determinism).

use serde::Serialize;
use std::collections::BTreeMap;

/// Per-lint tallies.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct LintCounts {
    /// Total findings (allowlisted + not).
    pub findings: usize,
    /// Findings covered by an `allow` annotation.
    pub allowed: usize,
}

/// One finding in the report.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReportFinding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Lint id.
    pub lint: String,
    /// Matcher detail (method name, inventory kind, ...).
    pub detail: String,
}

/// One allowlist entry in the report.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReportAllow {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the code the entry covers.
    pub line: usize,
    /// Lint id allowed there.
    pub lint: String,
    /// The reviewed justification.
    pub reason: String,
}

/// A problem with the allowlist itself.
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReportProblem {
    /// Workspace-relative path.
    pub file: String,
    /// Line of the annotation.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

/// The file with the most lines outside `#[cfg(test)]` items.
#[derive(Debug, Clone, Default, Serialize, PartialEq, Eq)]
pub struct LargestFile {
    /// Workspace-relative path (the first in path order on a tie).
    pub path: String,
    /// Its non-test line count.
    pub lines: usize,
}

/// The full analysis report.
#[derive(Debug, Clone, Serialize, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Report format version.
    pub schema: &'static str,
    /// Files scanned.
    pub files_scanned: usize,
    /// Source lines scanned.
    pub lines_scanned: usize,
    /// The largest scanned file, tests excluded: the ceiling on how much
    /// one file asks a reader to hold.
    pub largest_file: LargestFile,
    /// Per-lint counts, keyed by lint id.
    pub lints: BTreeMap<String, LintCounts>,
    /// Deny-severity findings with no allowlist cover (gate failures).
    pub unallowlisted: Vec<ReportFinding>,
    /// Every active allowlist entry. The gate tracks `allowlist_size`
    /// so this list can only shrink (stale entries are errors).
    pub allowlist: Vec<ReportAllow>,
    /// Number of active allowlist entries.
    pub allowlist_size: usize,
    /// Annotations that no longer match a finding, or are malformed.
    pub allowlist_problems: Vec<ReportProblem>,
    /// The concurrency-readiness inventory (audit lints).
    pub shared_state: Vec<ReportFinding>,
    /// True when the tree satisfies the determinism contract.
    pub ok: bool,
}

impl AnalysisReport {
    /// Render as stable pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| {
            // Serialization of plain structs cannot fail; keep the
            // binary total anyway.
            format!("{{\"error\":\"{e}\"}}")
        })
    }
}
