//! The looking glass: operator-facing queries over a collected run.
//!
//! PEERING's public face includes looking glasses that let anyone ask
//! "what does the routing system currently believe about this prefix,
//! and how did it come to believe it?". This module answers the same
//! three questions over the simulated Internet:
//!
//! * `show route <prefix>` — what every AS currently installs;
//! * `trace <prefix>` — the propagation tree of the latest change;
//! * `convergence <prefix>` — the full convergence timeline.

use crate::collector::Collector;
use crate::dag::{build_dag, render_path, traces_for_prefix, HopDirection, PropagationDag};
use peering_bgp::{PeerId, Speaker};
use peering_emulation::Emulation;
use peering_netsim::{Asn, Prefix};
use std::fmt::Write as _;

/// Read-only query surface over one emulation plus its collector.
pub struct LookingGlass<'a> {
    emu: &'a Emulation,
    collector: &'a Collector,
}

impl<'a> LookingGlass<'a> {
    /// A looking glass over `emu` as archived by `collector`.
    pub fn new(emu: &'a Emulation, collector: &'a Collector) -> Self {
        LookingGlass { emu, collector }
    }

    fn speakers(&self) -> Vec<&Speaker> {
        let mut v: Vec<&Speaker> = (0..self.emu.container_count())
            .filter_map(|i| self.emu.daemon(i))
            .collect();
        v.sort_by_key(|d| d.asn());
        v
    }

    /// `show route <prefix>`: the installed best path at every AS.
    pub fn show_route(&self, prefix: Prefix) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "show route {prefix}");
        let mut found = 0;
        for d in self.speakers() {
            let Some(route) = d.loc_rib().get(&prefix) else {
                continue;
            };
            found += 1;
            let path: Vec<Asn> = route.attrs.as_path.asns().collect();
            let via = if route.peer == PeerId::LOCAL {
                "local origination".to_string()
            } else {
                match d.peer_asn(route.peer) {
                    Some(asn) => format!("peer AS{}", asn.0),
                    None => format!("peer #{}", route.peer.0),
                }
            };
            let trace = match route.trace {
                Some(t) => format!(" trace {t}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  AS{}: path {} via {} learned @ {}ms{}",
                d.asn().0,
                render_path(&path),
                via,
                route.learned_at.as_millis(),
                trace
            );
        }
        if found == 0 {
            let _ = writeln!(out, "  not installed anywhere");
        }
        out
    }

    /// The propagation DAG of the latest change to `prefix`, if any
    /// origination was collected.
    pub fn latest_dag(&self, prefix: Prefix) -> Option<PropagationDag> {
        let records = self.collector.records();
        let trace = traces_for_prefix(&records, prefix).pop()?;
        build_dag(&records, trace)
    }

    /// `trace <prefix>`: render the latest change's propagation tree.
    pub fn trace(&self, prefix: Prefix) -> String {
        match self.latest_dag(prefix) {
            Some(dag) => dag.render_tree(),
            None => format!("no origination collected for {prefix}\n"),
        }
    }

    /// `convergence <prefix>`: every hop of every change to `prefix`,
    /// merged into one timeline, with a convergence summary.
    pub fn convergence(&self, prefix: Prefix) -> String {
        let records = self.collector.records();
        let traces = traces_for_prefix(&records, prefix);
        if traces.is_empty() {
            return format!("no origination collected for {prefix}\n");
        }
        let mut lines: Vec<(u64, String)> = Vec::new();
        let mut ases = std::collections::BTreeSet::new();
        let mut last_ms = 0u64;
        for trace in &traces {
            let Some(dag) = build_dag(&records, *trace) else {
                continue;
            };
            ases.insert(dag.origin);
            lines.push((
                dag.originated_at.as_millis(),
                format!(
                    "@ {:>7}ms AS{} {} {} trace {}",
                    dag.originated_at.as_millis(),
                    dag.origin.0,
                    if dag.withdraw {
                        "withdraws"
                    } else {
                        "announces"
                    },
                    dag.prefix,
                    trace
                ),
            ));
            for h in &dag.hops {
                ases.insert(h.node);
                let arrow = match h.direction {
                    HopDirection::Import => format!("<- AS{}", h.neighbor.0),
                    HopDirection::Export => format!("-> AS{}", h.neighbor.0),
                    HopDirection::WithdrawIn => format!("wd <- AS{}", h.neighbor.0),
                    HopDirection::WithdrawOut => format!("wd -> AS{}", h.neighbor.0),
                };
                last_ms = last_ms.max(h.time.as_millis());
                lines.push((
                    h.time.as_millis(),
                    format!(
                        "@ {:>7}ms AS{} {} path {} {}",
                        h.time.as_millis(),
                        h.node.0,
                        arrow,
                        render_path(&h.as_path),
                        h.verdict
                    ),
                ));
            }
        }
        lines.sort();
        let mut out = format!("convergence {prefix}\n");
        for (_, line) in &lines {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "converged @ {}ms: {} events across {} ASes, {} change(s)",
            last_ms,
            lines.len(),
            ases.len(),
            traces.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_emulation::flat_mesh;

    /// r0 — r1 — r2 line, collected from AS65003; r0 originates.
    fn collected() -> (Emulation, Collector, Prefix) {
        let mut emu = flat_mesh("line", 3, &[(0, 1), (1, 2)], 7);
        let mut collector = Collector::new();
        collector.add_vantage(Asn(65003));
        collector.attach(&mut emu);
        emu.start_all();
        let prefix = Prefix::v4(10, 60, 0, 0, 24);
        emu.control(0, |d, now| d.originate(prefix, now));
        emu.run_until_quiet(usize::MAX);
        (emu, collector, prefix)
    }

    #[test]
    fn show_route_reports_every_as() {
        let (emu, collector, prefix) = collected();
        let lg = LookingGlass::new(&emu, &collector);
        let out = lg.show_route(prefix);
        assert!(out.contains("AS65001: path [] via local origination"));
        assert!(out.contains("AS65002: path [65001] via peer AS65001"));
        assert!(out.contains("AS65003: path [65002 65001] via peer AS65002"));
        assert!(out.contains("trace t65001-0"));
    }

    #[test]
    fn show_route_handles_unknown_prefix() {
        let (emu, collector, _) = collected();
        let lg = LookingGlass::new(&emu, &collector);
        let out = lg.show_route(Prefix::v4(10, 99, 0, 0, 24));
        assert!(out.contains("not installed anywhere"));
    }

    #[test]
    fn trace_renders_the_propagation_tree() {
        let (emu, collector, prefix) = collected();
        let lg = LookingGlass::new(&emu, &collector);
        let out = lg.trace(prefix);
        assert!(out.contains("10.60.0.0/24 announce trace t65001-0 origin AS65001"));
        assert!(out.contains("exported"));
        assert!(out.contains("accepted"));
        // The far end heard it with the full two-hop path.
        assert!(out.contains("path [65002 65001]"));
    }

    #[test]
    fn convergence_timeline_summarizes() {
        let (emu, collector, prefix) = collected();
        let lg = LookingGlass::new(&emu, &collector);
        let out = lg.convergence(prefix);
        assert!(out.contains("AS65001 announces 10.60.0.0/24"));
        assert!(out.contains("converged @"));
        assert!(out.contains("3 ASes"));
    }

    #[test]
    fn unknown_prefix_has_no_trace() {
        let (emu, collector, _) = collected();
        let lg = LookingGlass::new(&emu, &collector);
        assert!(lg
            .trace(Prefix::v4(10, 99, 0, 0, 24))
            .contains("no origination collected"));
        assert!(lg
            .convergence(Prefix::v4(10, 99, 0, 0, 24))
            .contains("no origination collected"));
    }
}
