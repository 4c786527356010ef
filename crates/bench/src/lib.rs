//! Benchmark harness: regenerate every table and figure in the paper's
//! evaluation, plus the ablations DESIGN.md calls out.
//!
//! Each experiment lives in its own module and returns a serializable
//! result struct; the `repro` binary runs them and renders paper-style
//! tables (timings live in the standalone `benchmark/` package).
//! Experiment ids follow DESIGN.md:
//!
//! * E1 [`fig2`] — Figure 2, BGP table memory vs prefixes × peers.
//! * E2 [`table1`] — Table 1, the capability matrix.
//! * E3 [`peering41`] — §4.1 peering counts at AMS-IX.
//! * E4 [`reach41`] — §4.1 reachability (prefix share + Alexa catalog).
//! * E5 [`routedist41`] — §4.2's per-peer route-count distribution.
//! * E6 [`emu42`] — §4.2 intradomain emulation of the HE backbone.
//! * E7 [`mux7`] — mux-design ablation (sessions/memory/updates).
//! * E8 [`safety8`] — safety-filter ablation.
//! * E9 [`pktproc9`] — packet-processing backend ablation (VM vs the
//!   planned lightweight API).
//! * E10 [`scale`] — the full-scale fast path: 2014-Internet engine
//!   convergence, sequential-vs-parallel digest pinning, bytes/route.
//!
//! The [`perf`] module is not an experiment but the regression harness
//! over all of them: it normalizes the comparable keys of every
//! `results/BENCH_*.json` into `results/BENCH_PERF.json` and gates them
//! against a checked-in baseline (see `perf_report`).

pub mod emu42;
pub mod fig2;
pub mod mux7;
pub mod peering41;
pub mod perf;
pub mod pktproc9;
pub mod reach41;
pub mod routedist41;
pub mod safety8;
pub mod scale;
pub mod table1;

/// Render a markdown table from a header and rows.
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MiB"));
        assert!(fmt_bytes(2 * 1024 * 1024 * 1024).contains("GiB"));
    }
}
