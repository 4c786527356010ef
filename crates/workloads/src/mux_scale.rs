//! Multi-tenant mux at scale: the peer-group export engine measured.
//!
//! §3's scaling concern is sessions; this scenario measures the *other*
//! axis, table state per tenant. A PEERING mux fleet serves N client
//! experiments that all want the same view of the testbed's routes. The
//! naive implementation keeps one Adj-RIB-Out per client session, so
//! tenant N+1 costs a full table copy; the peer-group export engine
//! (`peering_bgp::ExportGroupKey`) stages the export once per group and
//! keeps one copy-on-write Adj-RIB-Out base, so an identical-view
//! tenant costs O(1) route copies.
//!
//! The scenario builds the same deployment twice — engine on, engine
//! off ([`MuxScaleConfig::without_export_groups`]) — at growing tenant
//! counts. A fixed set of *active* clients announces pool prefixes and
//! every upstream announces external routes; all further tenants are
//! passive identical-view subscribers. Two oracles:
//!
//! * **bystander invariance**: the active clients' Loc-RIBs and their
//!   mux-side Adj-RIB-Outs, digested without `learned_at`, must be
//!   bitwise identical at every tenant count *and* across the
//!   grouped/naive ablation;
//! * **marginal memory**: the per-tenant, per-route marginal server
//!   memory of the grouped engine must sit well below the naive copy
//!   (the ISSUE 8 acceptance bar is ≥5× at 256 tenants).

use peering_bgp::digest_routes;
use peering_bgp::policy::{Action, Match, Policy};
use peering_core::{MuxDesign, MuxHarness, MuxScaleConfig, RouteChange};
use peering_netsim::{Fnv1a, Prefix};
use serde::{Deserialize, Serialize};

use crate::abuse::node_rib_digest;

/// Clients that actually announce; everyone beyond these is a passive
/// identical-view tenant.
pub const ACTIVE_CLIENTS: usize = 8;

/// Upstream peers — under [`MuxDesign::PerPeerSessions`] this is also
/// the mux-instance count ("dozens of muxes").
pub const UPSTREAMS: usize = 12;

/// External routes each upstream announces.
pub const ROUTES_PER_UPSTREAM: usize = 6;

/// The pool prefix active client `c` announces.
pub fn tenant_prefix(c: usize) -> Prefix {
    Prefix::v4(184, 164, 224 + c as u8, 0, 24)
}

/// The `r`-th external prefix upstream `u` announces.
pub fn upstream_prefix(u: usize, r: usize) -> Prefix {
    Prefix::v4(30 + u as u8, (r >> 8) as u8, (r & 0xff) as u8, 0, 24)
}

/// The export policy every tenant runs toward the mux: announce what
/// you originate, never re-export learned routes. A locally originated
/// route has an empty AS path when export policy runs (prepending
/// happens after), so one path-length rule separates the two. Without
/// this, each full-speaker client re-advertises its best routes into
/// every other mux, acting as transit between mux instances — something
/// a real PEERING client never does — and the re-advertisements, not
/// tenant state, would dominate the marginal-memory measurement.
pub fn no_transit_export() -> Policy {
    Policy::accept_all().rule(Match::AsPathLongerThan(0), vec![Action::Reject])
}

/// One tenant count, grouped engine and naive baseline side by side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MuxScalePoint {
    /// Tenant (client) count N.
    pub clients: usize,
    /// Routes in a passive tenant's view (mux-side Adj-RIB-Out size).
    pub view_routes: usize,
    /// Server table memory, peer-group engine (bytes).
    pub grouped_memory: usize,
    /// Server table memory, naive per-peer Adj-RIB-Out (bytes).
    pub naive_memory: usize,
    /// Simulated seconds until the deployment quiesced, grouped.
    pub grouped_converge_secs: f64,
    /// Simulated seconds until the deployment quiesced, naive.
    pub naive_converge_secs: f64,
    /// Digest over the active clients' Loc-RIBs and their mux-side
    /// Adj-RIB-Outs, grouped engine.
    pub bystander_digest: u64,
    /// The same digest from the naive run (must equal
    /// [`bystander_digest`](Self::bystander_digest)).
    pub bystander_digest_naive: u64,
}

/// The full sweep for one mux design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MuxScaleReport {
    /// Which design ran (`"PerPeerSessions"` or `"AddPathMux"`).
    pub design: String,
    /// The seed every run forked from.
    pub seed: u64,
    /// One entry per tenant count, in sweep order.
    pub points: Vec<MuxScalePoint>,
    /// Marginal server bytes per tenant per route between the first and
    /// last sweep points, peer-group engine.
    pub grouped_marginal_bytes_per_route: f64,
    /// Marginal server bytes per tenant per route, naive baseline.
    pub naive_marginal_bytes_per_route: f64,
    /// `naive / grouped` marginal-memory ratio — the headline number.
    pub marginal_ratio: f64,
    /// Whether every bystander digest matched across tenant counts and
    /// across the grouped/naive ablation.
    pub bystander_invariant: bool,
}

/// FNV-1a over a mux-side Adj-RIB-Out, canonicalized exactly like
/// [`node_rib_digest`]: `learned_at` excluded so timing shifts from
/// extra tenants cannot alias as route damage.
fn adj_out_digest(h: &MuxHarness, client: usize) -> u64 {
    let mut hash = Fnv1a::legacy();
    for m in 0..h.mux_count() {
        let Some(d) = h.emulation().daemon(h.mux_node(m)) else {
            hash.write(b"crashed;");
            continue;
        };
        let Some(rib) = d.adj_rib_out(h.client_peer_id(client)) else {
            hash.write(b"down;");
            continue;
        };
        digest_routes(&mut hash, rib.iter());
        hash.write(b"|");
    }
    hash.finish()
}

/// Digest every bystander's state: Loc-RIB at the client node plus the
/// mux-side Adj-RIB-Out feeding it.
fn bystander_digest(h: &MuxHarness, actives: usize) -> u64 {
    let mut acc: u64 = 0;
    for c in 0..actives {
        acc = acc
            .rotate_left(17)
            .wrapping_add(node_rib_digest(h, h.client_node(c)));
        acc = acc.rotate_left(17).wrapping_add(adj_out_digest(h, c));
    }
    acc
}

/// Build one deployment, drive the shared workload, and measure.
fn run_variant(design: MuxDesign, clients: usize, seed: u64, grouped: bool) -> (MuxHarness, f64) {
    let mut cfg = MuxScaleConfig::new(design)
        .upstreams(UPSTREAMS)
        .clients(clients)
        .seed(seed)
        .client_export(no_transit_export());
    if !grouped {
        cfg = cfg.without_export_groups();
    }
    let mut h = cfg.build();
    assert!(h.fully_established(), "deployment must establish");
    for u in 0..UPSTREAMS {
        for r in 0..ROUTES_PER_UPSTREAM {
            h.announce_from_upstream(u, upstream_prefix(u, r));
        }
    }
    for c in 0..ACTIVE_CLIENTS.min(clients) {
        h.submit(c, RouteChange::Announce(tenant_prefix(c)));
    }
    let converge_secs = h.emulation().now().as_secs_f64();
    (h, converge_secs)
}

/// Routes in the view the mux maintains for a passive tenant (or the
/// last client when every client is active).
fn view_routes(h: &MuxHarness, clients: usize) -> usize {
    let c = clients - 1;
    (0..h.mux_count())
        .map(|m| {
            h.emulation()
                .daemon(h.mux_node(m))
                .and_then(|d| d.adj_rib_out(h.client_peer_id(c)))
                .map(|rib| rib.iter().count())
                .unwrap_or(0)
        })
        .sum()
}

/// Sweep tenant counts for one design and compare the peer-group engine
/// against the naive per-peer baseline.
pub fn run_design(design: MuxDesign, tenant_counts: &[usize], seed: u64) -> MuxScaleReport {
    assert!(tenant_counts.len() >= 2, "need at least two sweep points");
    assert!(
        tenant_counts.iter().all(|&n| n >= ACTIVE_CLIENTS),
        "every sweep point needs the full active set plus passive tenants"
    );
    let mut points = Vec::with_capacity(tenant_counts.len());
    for &n in tenant_counts {
        let (gh, g_secs) = run_variant(design, n, seed, true);
        let (nh, n_secs) = run_variant(design, n, seed, false);
        points.push(MuxScalePoint {
            clients: n,
            view_routes: view_routes(&gh, n),
            grouped_memory: gh.stats().server_memory,
            naive_memory: nh.stats().server_memory,
            grouped_converge_secs: g_secs,
            naive_converge_secs: n_secs,
            bystander_digest: bystander_digest(&gh, ACTIVE_CLIENTS.min(n)),
            bystander_digest_naive: bystander_digest(&nh, ACTIVE_CLIENTS.min(n)),
        });
    }
    let first = &points[0];
    let last = &points[points.len() - 1];
    let added = (last.clients - first.clients) as f64;
    let routes = last.view_routes.max(1) as f64;
    let grouped_marginal =
        (last.grouped_memory as f64 - first.grouped_memory as f64) / added / routes;
    let naive_marginal = (last.naive_memory as f64 - first.naive_memory as f64) / added / routes;
    let bystander_invariant = points
        .iter()
        .all(|p| p.bystander_digest == first.bystander_digest)
        && points
            .iter()
            .all(|p| p.bystander_digest_naive == p.bystander_digest);
    MuxScaleReport {
        design: format!("{design:?}"),
        seed,
        points,
        grouped_marginal_bytes_per_route: grouped_marginal,
        naive_marginal_bytes_per_route: naive_marginal,
        marginal_ratio: naive_marginal / grouped_marginal.max(f64::EPSILON),
        bystander_invariant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-mode smoke at small N; the release-mode bench in
    /// `tools/check.sh` runs the full 8→256 sweep.
    #[test]
    fn small_sweep_is_invariant_and_grouped_wins() {
        for design in [MuxDesign::PerPeerSessions, MuxDesign::AddPathMux] {
            let report = run_design(design, &[8, 16], 1);
            assert!(
                report.bystander_invariant,
                "{design:?}: bystander digests moved: {:#?}",
                report.points
            );
            assert!(
                report.marginal_ratio >= 2.0,
                "{design:?}: grouped engine should already win at 16 tenants \
                 (ratio {:.2}, grouped {:.1} B/route, naive {:.1} B/route)",
                report.marginal_ratio,
                report.grouped_marginal_bytes_per_route,
                report.naive_marginal_bytes_per_route
            );
            assert!(report.points.iter().all(|p| p.view_routes > 0));
        }
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let a = run_design(MuxDesign::AddPathMux, &[8, 12], 7);
        let b = run_design(MuxDesign::AddPathMux, &[8, 12], 7);
        assert_eq!(a, b);
    }
}
