//! `peering-analysis`: determinism & concurrency static analysis.
//!
//! Every invariant this reproduction pins — bitwise-identical Loc-RIB
//! digests across chaos/abuse campaigns, byte-deterministic MRT
//! archives, same-seed telemetry snapshots — rests on a determinism
//! contract: *no wall-clock time, no ambient randomness, no
//! hash-order-dependent data flow in shipped code*. `peering-verify`
//! proves experiment *configs* safe; this crate proves the *codebase*
//! deterministic, and inventories the shared state that the upcoming
//! sharded parallel event engine (ROADMAP item 1) must not cross
//! shard boundaries.
//!
//! The driver scans every workspace crate's `src/` tree (vendored
//! stand-ins and `#[cfg(test)]` items excluded), applies the lint
//! catalog in [`lints::CATALOG`], resolves inline
//! `// peering-analysis: allow(<lint>, reason = "...")` annotations,
//! and emits a deterministic JSON report. Deny findings without an
//! annotation, malformed annotations, and *stale* annotations (ones
//! whose target line no longer triggers the lint) all fail the gate —
//! so the allowlist can only shrink.

pub mod annotations;
pub mod lints;
pub mod report;
pub mod source;

use annotations::{parse_annotations, AllowEntry, AnnotationError};
use lints::{check_file, lint_by_id, Finding, Severity, CATALOG};
use report::{AnalysisReport, LargestFile, LintCounts, ReportAllow, ReportFinding, ReportProblem};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything the scan produced, before report assembly.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// All findings, across all files.
    pub findings: Vec<Finding>,
    /// All parsed allow entries.
    pub allows: Vec<AllowEntry>,
    /// Malformed annotations.
    pub annotation_errors: Vec<AnnotationError>,
    /// Files scanned.
    pub files: usize,
    /// Lines scanned.
    pub lines: usize,
    /// The file with the most non-test lines.
    pub largest_file: LargestFile,
}

impl ScanOutcome {
    /// Count one scanned file.
    fn count(&mut self, sf: &SourceFile) {
        self.files += 1;
        self.lines += sf.line_count();
        let lines = sf.shipped_line_count();
        if lines > self.largest_file.lines {
            self.largest_file = LargestFile {
                path: sf.rel_path.clone(),
                lines,
            };
        }
    }
}

/// Scan a workspace rooted at `root` and assemble the report.
pub fn analyze_workspace(root: &Path) -> std::io::Result<AnalysisReport> {
    let mut files = collect_files(root)?;
    files.sort();
    let mut outcome = ScanOutcome::default();
    for path in &files {
        let text = std::fs::read_to_string(root.join(path))?;
        let sf = SourceFile::parse(path, &text);
        outcome.count(&sf);
        outcome.findings.extend(check_file(&sf));
        let (allows, errors) = parse_annotations(&sf);
        outcome.allows.extend(allows);
        outcome.annotation_errors.extend(errors);
    }
    Ok(assemble(outcome))
}

/// Workspace-relative `.rs` files under the scan roots, `/`-separated.
fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    // Umbrella crate sources.
    walk(&root.join("src"), root, &mut out)?;
    // Member crates: crates/<name>/src only.
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let src = entry.path().join("src");
            walk(&src, root, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Match findings against the allowlist and build the report.
pub fn assemble(outcome: ScanOutcome) -> AnalysisReport {
    let ScanOutcome {
        mut findings,
        mut allows,
        annotation_errors,
        files,
        lines,
        largest_file,
    } = outcome;
    findings.sort();
    allows.sort();

    let mut problems: Vec<ReportProblem> = annotation_errors
        .into_iter()
        .map(|e| ReportProblem {
            file: e.file,
            line: e.line,
            message: e.message,
        })
        .collect();

    let mut lint_counts: BTreeMap<String, LintCounts> = CATALOG
        .iter()
        .map(|l| (l.id.to_string(), LintCounts::default()))
        .collect();
    let mut unallowlisted = Vec::new();
    let mut shared_state = Vec::new();
    let mut allow_used = vec![false; allows.len()];

    for f in &findings {
        let info = lint_by_id(f.lint).expect("finding carries a cataloged lint");
        let counts = lint_counts.entry(f.lint.to_string()).or_default();
        counts.findings += 1;
        let covered = allows.iter().enumerate().any(|(i, a)| {
            let hit = a.file == f.file && a.target_line == f.line && a.lint == f.lint;
            if hit {
                allow_used[i] = true;
            }
            hit
        });
        if covered {
            counts.allowed += 1;
        }
        match info.severity {
            Severity::Audit => shared_state.push(ReportFinding {
                file: f.file.clone(),
                line: f.line,
                lint: f.lint.to_string(),
                detail: f.detail.clone(),
            }),
            Severity::Deny => {
                if !covered {
                    unallowlisted.push(ReportFinding {
                        file: f.file.clone(),
                        line: f.line,
                        lint: f.lint.to_string(),
                        detail: f.detail.clone(),
                    });
                }
            }
        }
    }

    for (i, a) in allows.iter().enumerate() {
        if lint_by_id(&a.lint).is_none() {
            problems.push(ReportProblem {
                file: a.file.clone(),
                line: a.line,
                message: format!("unknown lint id {:?} in allow annotation", a.lint),
            });
        } else if !allow_used[i] {
            problems.push(ReportProblem {
                file: a.file.clone(),
                line: a.line,
                message: format!(
                    "stale allowlist entry: line {} no longer triggers `{}` — delete it",
                    a.target_line, a.lint
                ),
            });
        }
    }
    problems.sort();
    unallowlisted.sort();
    shared_state.sort();

    let allowlist: Vec<ReportAllow> = allows
        .iter()
        .map(|a| ReportAllow {
            file: a.file.clone(),
            line: a.target_line,
            lint: a.lint.clone(),
            reason: a.reason.clone(),
        })
        .collect();
    let ok = unallowlisted.is_empty() && problems.is_empty();
    AnalysisReport {
        schema: "peering-analysis/v1",
        files_scanned: files,
        lines_scanned: lines,
        largest_file,
        lints: lint_counts,
        unallowlisted,
        allowlist_size: allowlist.len(),
        allowlist,
        allowlist_problems: problems,
        shared_state,
        ok,
    }
}

/// Analyze a single source string (fixtures and unit tests).
pub fn analyze_str(rel_path: &str, text: &str) -> AnalysisReport {
    let sf = SourceFile::parse(rel_path, text);
    let (allows, annotation_errors) = parse_annotations(&sf);
    let mut outcome = ScanOutcome {
        findings: check_file(&sf),
        allows,
        annotation_errors,
        ..ScanOutcome::default()
    };
    outcome.count(&sf);
    assemble(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlisted_finding_passes() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> usize {\n\
                   // peering-analysis: allow(nd-hash-iter, reason = \"order-insensitive count of values\")\n\
                   s.m.values().count()\n\
                   }\n";
        let r = analyze_str("x.rs", src);
        assert!(r.ok, "{:?}", r);
        assert_eq!(r.allowlist_size, 1);
        assert_eq!(r.lints["nd-hash-iter"].allowed, 1);
        assert_eq!(
            (r.largest_file.path.as_str(), r.largest_file.lines),
            ("x.rs", 5)
        );
    }

    #[test]
    fn unallowlisted_finding_fails() {
        let src = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) -> usize { s.m.values().count() }\n";
        let r = analyze_str("x.rs", src);
        assert!(!r.ok);
        assert_eq!(r.unallowlisted.len(), 1);
    }

    #[test]
    fn stale_allow_fails() {
        let src =
            "// peering-analysis: allow(nd-time, reason = \"no longer applies to this line\")\n\
                   let x = 1;\n";
        let r = analyze_str("x.rs", src);
        assert!(!r.ok);
        assert_eq!(r.allowlist_problems.len(), 1);
        assert!(r.allowlist_problems[0].message.contains("stale"));
    }

    #[test]
    fn unknown_lint_id_fails() {
        let src = "// peering-analysis: allow(nd-bogus, reason = \"this lint does not exist\")\n\
                   let x = 1;\n";
        let r = analyze_str("x.rs", src);
        assert!(!r.ok);
        assert!(r.allowlist_problems[0].message.contains("unknown lint id"));
    }

    #[test]
    fn audit_findings_do_not_fail() {
        let src = "struct S { c: RefCell<u32> }\n";
        let r = analyze_str("x.rs", src);
        assert!(r.ok);
        assert_eq!(r.shared_state.len(), 1);
    }

    #[test]
    fn report_json_is_deterministic() {
        let src = "struct S { m: HashMap<u32, u32>, c: RefCell<u8> }\n";
        let a = analyze_str("x.rs", src).to_json();
        let b = analyze_str("x.rs", src).to_json();
        assert_eq!(a, b);
    }
}
