//! `mux_*`: one ADD-PATH mux, 12 upstreams, 256 tenants.
//!
//! Both workloads build the same deployment and preload 64 routes per
//! upstream in set-up. `mux_tenant_churn` then drives the tenant-facing
//! write side (a tenant announces or withdraws its prefix and the mux
//! converges); `mux_upstream_fanout` drives the read side (an upstream
//! route appears or disappears and fans out to every tenant). One op is
//! one such change run to convergence. The containment engine is not
//! armed: its rate limiter would police a tenant that churns this fast,
//! and a benchmark op must not fail; `submit` still takes the hook's
//! branch.

use super::{mean_ms, Ctx, Rep, Workload};
use crate::gen::{MuxPlan, MUX_ACTIVE, MUX_TENANTS};
use crate::stats::median_of;
use peering_core::{MuxDesign, MuxHarness, MuxScaleConfig, RouteChange};
use peering_netsim::{Prefix, SimRng};
use peering_telemetry::{Snapshot, Telemetry};
use peering_workloads::mux_scale::{no_transit_export, tenant_prefix, upstream_prefix};

/// Upstream neighbors of the mux.
const UPSTREAMS: usize = 12;
/// Routes each upstream announces during set-up.
const PRELOAD: usize = 64;
/// Timed ops per repeat (both workloads), at least 3,000.
const OPS: usize = 3072;

/// Which side of the mux the timed ops drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Tenant,
    Upstream,
}

/// One `mux_*` workload.
#[derive(Debug)]
pub struct Mux {
    side: Side,
}

impl Mux {
    /// `mux_tenant_churn`.
    pub fn tenant_churn() -> Mux {
        Mux { side: Side::Tenant }
    }

    /// `mux_upstream_fanout`.
    pub fn upstream_fanout() -> Mux {
        Mux {
            side: Side::Upstream,
        }
    }
}

/// Routes in the view the mux keeps for tenant `c`.
fn view_routes(h: &MuxHarness, c: usize) -> usize {
    h.emulation()
        .daemon(h.mux_node(0))
        .and_then(|d| d.adj_rib_out(h.client_peer_id(c)))
        .map_or(0, |rib| rib.len())
}

/// Telemetry counters the per-op layer metrics are deltas of.
struct Counters {
    snapshot: Snapshot,
}

impl Counters {
    fn read(h: &MuxHarness) -> Counters {
        h.export_net_stats();
        Counters {
            snapshot: h.telemetry().snapshot(),
        }
    }

    fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        (self.snapshot.counter(name) - earlier.snapshot.counter(name)) as f64
    }

    fn deliveries(&self, earlier: &Counters) -> f64 {
        let read = |c: &Counters| c.snapshot.gauge("netsim.transport.delivered").unwrap_or(0);
        (read(self) - read(earlier)) as f64
    }
}

impl Workload for Mux {
    fn repeat(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        let mut rep = Rep::default();
        let mark = ctx.tracer.spans().len();
        let traced = ctx.traced();

        let (mut h, plan, fresh_base) = rep.time_setup(1, || {
            let mut h = ctx.tracer.layer("mux.build", 0, || {
                let cfg = MuxScaleConfig::new(MuxDesign::AddPathMux)
                    .upstreams(UPSTREAMS)
                    .clients(MUX_TENANTS)
                    .seed(ctx.seed)
                    .client_export(no_transit_export());
                if traced {
                    cfg.telemetry(Telemetry::new()).build()
                } else {
                    cfg.build()
                }
            });
            ctx.tracer.layer("mux.preload", 0, || {
                for r in 0..PRELOAD {
                    for u in 0..UPSTREAMS {
                        h.announce_from_upstream(u, upstream_prefix(u, r));
                    }
                }
            });
            let plan = MuxPlan::generate(ctx.seed, OPS / MUX_ACTIVE);
            // Fresh upstream prefixes start past the preloaded ones.
            let fresh_base = PRELOAD + SimRng::new(ctx.seed).fork("mux/fresh").index(10_000);
            (h, plan, fresh_base)
        });
        rep.op_ns.reserve(OPS);

        let established = h.fully_established();
        let view = view_routes(&h, plan.witness);
        rep.value(
            "table_bytes_per_route",
            h.stats().server_memory as f64 / (MUX_TENANTS * view.max(1)) as f64,
        );

        let before = traced.then(|| Counters::read(&h));
        let mut sim_us = Vec::with_capacity(OPS);
        for op in 0..OPS {
            let id = op as u64;
            // Rounds alternate: everyone announces, then everyone withdraws.
            let (round, slot) = match self.side {
                Side::Tenant => (op / MUX_ACTIVE, op % MUX_ACTIVE),
                Side::Upstream => (op / UPSTREAMS, op % UPSTREAMS),
            };
            let announce = round % 2 == 0;
            let sim_before = h.emulation().now();
            let prefix: Prefix;
            let admitted;
            match self.side {
                Side::Tenant => {
                    let k = plan.rounds[round][slot];
                    prefix = tenant_prefix(k);
                    let change = if announce {
                        RouteChange::Announce(prefix)
                    } else {
                        RouteChange::Withdraw(prefix)
                    };
                    let tenant = plan.active[k];
                    admitted = rep
                        .time_op(ctx, id, |tracer| {
                            tracer.layer("core.mux.submit", id, || h.submit(tenant, change))
                        })
                        .admitted();
                }
                Side::Upstream => {
                    prefix = upstream_prefix(slot, fresh_base + round / 2);
                    admitted = true;
                    rep.time_op(ctx, id, |tracer| {
                        tracer.layer("core.mux.upstream", id, || {
                            if announce {
                                h.announce_from_upstream(slot, prefix);
                            } else {
                                h.withdraw_from_upstream(slot, prefix);
                            }
                        })
                    });
                }
            }
            sim_us.push(h.emulation().now().since(sim_before).as_micros() as f64);

            // Output checks, outside the op's span: the change is visible
            // at the mux, at a sampled passive tenant, and (a tenant
            // route) at an upstream, or gone from all of them.
            let at_mux = h.mux_has_route(&prefix);
            let at_witness = h.client_paths(plan.witness, &prefix) > 0;
            let at_upstream = match self.side {
                Side::Tenant => h.upstream_paths(op % UPSTREAMS, &prefix) > 0,
                Side::Upstream => announce,
            };
            rep.check(
                1,
                admitted && at_mux == announce && at_witness == announce && at_upstream == announce,
                || {
                    format!(
                        "op {op} ({} {prefix:?}): admitted={admitted} mux={at_mux} \
                         tenant={at_witness} upstream={at_upstream}",
                        if announce { "announce" } else { "withdraw" }
                    )
                },
            );
        }
        rep.check(rep.ops, established, || {
            "deployment did not fully establish".to_string()
        });
        rep.check(rep.ops, view == UPSTREAMS * PRELOAD, || {
            format!("passive tenant's view holds {view} routes after preload")
        });
        rep.value("sim_converge_ms", median_of(&sim_us) / 1000.0);

        if let Some(before) = before {
            let after = Counters::read(&h);
            let ops = rep.ops as f64;
            let per_op = |name: &str| after.delta(&before, name) / ops;
            let computed = after.delta(&before, "bgp.export.group_computed");
            let shared = after.delta(&before, "bgp.export.group_shared");
            let deliveries = after.deliveries(&before);
            rep.value("mux.updates_in_per_op", per_op("bgp.speaker.updates_in"));
            rep.value("mux.updates_out_per_op", per_op("bgp.speaker.updates_out"));
            rep.value("mux.decision_runs_per_op", per_op("bgp.decision.runs"));
            rep.value("mux.deliveries_per_op", deliveries / ops);
            rep.value(
                "mux.ns_per_delivery",
                rep.wall_ns as f64 / deliveries.max(1.0),
            );
            rep.value("mux.export_group_computed_per_op", computed / ops);
            rep.value("mux.export_group_shared_per_op", shared / ops);
            rep.value(
                "mux.export_share_permille",
                (shared * 1000.0 / (computed + shared).max(1.0)).floor(),
            );
            rep.value(
                "mux.safety_blocked",
                after.delta(&before, "bgp.policy.import_rejected"),
            );
            let times = ctx.tracer.times_since(mark);
            rep.value("mux.build_ms", mean_ms(&times, "mux.build"));
            rep.value(
                "mux.preload_us_per_route",
                mean_ms(&times, "mux.preload") * 1000.0 / (UPSTREAMS * PRELOAD) as f64,
            );
        }
        rep
    }
}
