//! `peering-analyze`: run the determinism & concurrency static
//! analysis over the workspace and emit the machine-readable report.
//!
//! ```text
//! cargo run -p peering-analysis --bin peering-analyze -- [--root DIR] [--json OUT] [--quiet]
//! ```
//!
//! Exits non-zero when the tree violates the determinism contract:
//! any deny-severity finding without a reviewed `allow` annotation,
//! any malformed annotation, or any stale allowlist entry.

use peering_analysis::analyze_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--quiet" => quiet = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("peering-analyze: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("peering-analyze: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if !quiet {
        println!(
            "peering-analyze: {} files / {} lines scanned; largest {} ({} non-test lines)",
            report.files_scanned,
            report.lines_scanned,
            report.largest_file.path,
            report.largest_file.lines
        );
        for (id, counts) in &report.lints {
            println!(
                "  {id:<14} findings={:<4} allowed={}",
                counts.findings, counts.allowed
            );
        }
        println!(
            "  allowlist: {} entries; shared-state inventory: {} sites",
            report.allowlist_size,
            report.shared_state.len()
        );
    }
    for f in &report.unallowlisted {
        eprintln!(
            "error[{}]: {}:{} ({}) — fix it or add \
             `// peering-analysis: allow({}, reason = \"...\")`",
            f.lint, f.file, f.line, f.detail, f.lint
        );
    }
    for p in &report.allowlist_problems {
        eprintln!("error[allowlist]: {}:{} {}", p.file, p.line, p.message);
    }
    if report.ok {
        if !quiet {
            println!("peering-analyze: determinism contract holds");
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "peering-analyze: contract violated ({} unallowlisted, {} allowlist problems)",
            report.unallowlisted.len(),
            report.allowlist_problems.len()
        );
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("peering-analyze: {msg}");
    eprintln!("usage: peering-analyze [--root DIR] [--json OUT] [--quiet]");
    ExitCode::FAILURE
}
