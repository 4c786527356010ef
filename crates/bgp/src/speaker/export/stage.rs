//! The group-level half of the export engine: what a group makes of each
//! source route of a prefix, computed once and shared by every member.

use super::super::{
    candidates, local_route, AdvertiseMode, LocalRoutes, Peers, SpeakerConfig, SpeakerMode,
};
use super::{ExportGroup, ExportGroupKey, GroupFingerprint};
use crate::attrs::{Community, PathAttributes};
use crate::decision::compare_routes;
use crate::provenance::ExportVerdict;
use crate::rib::{AttrInterner, LocRib, PeerId, Route, RouteSource};
use peering_netsim::{Prefix, SimTime, TraceId};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// One source route's staged export, retaining what the per-member
/// delta checks (split horizon, sender-side loop, RS member blocks) and
/// per-member provenance records need from the *source* route.
pub(super) struct StagedEntry {
    pub(super) source_peer: PeerId,
    pub(super) source_attrs: Arc<PathAttributes>,
    pub(super) source_trace: Option<TraceId>,
    /// The route the group computation exports (policy applied,
    /// attributes transformed and interned; per-member deltas may still
    /// withhold it), or the verdict that rejects it for every member.
    pub(super) outcome: Result<Route, ExportVerdict>,
}

impl StagedEntry {
    /// The route the group exports for this source, if it exports one.
    pub(super) fn exported(&self) -> Option<&Route> {
        self.outcome.as_ref().ok()
    }
}

/// The group-level exported routes of a staged prefix: the group's next
/// base for it.
pub(super) fn base_routes(staged: &[StagedEntry]) -> impl Iterator<Item = &Route> + Clone {
    staged.iter().filter_map(StagedEntry::exported)
}

/// What a group makes of one source attribute set: the exported
/// attributes, interned, or the group-level rejection.
type StagedAttrs = Result<Arc<PathAttributes>, ExportVerdict>;

/// Staged outcomes of groups whose export policy reads no prefix, keyed by
/// (source attribute allocation, learning peer, group). The table lives
/// for one engine call (`Speaker::reconsider_with` or a member resync)
/// and is emptied before the call returns: the Adj-RIB-Ins and local
/// routes that own the source allocations are not touched while it
/// exists, and each entry holds its source `Arc` besides, so a key cannot
/// come to name a different attribute set; nothing is left behind for
/// [`AttrInterner::gc`] to trip over, and nothing ever needs invalidating.
/// Lookup only, never iterated.
type StageMemo = HashMap<(usize, PeerId, ExportGroupKey), (Arc<PathAttributes>, StagedAttrs)>;

/// The paths of one prefix a member has been sent: `(path id, attributes
/// as they went on the wire)`.
pub(super) type SentPaths = Vec<(u32, Arc<PathAttributes>)>;

/// Working memory of the staging half of the export engine.
#[derive(Default)]
pub(super) struct Staging {
    /// Staged exports of the prefix in hand, group after group; within a
    /// group every source route in deterministic (best-first) order.
    pub(super) staged: Vec<StagedEntry>,
    /// What each staged group's base held for the prefix before the change.
    pub(super) sent: SentPaths,
    /// Source routes of an AllPaths group while they are sorted.
    sources: Vec<Route>,
    pub(super) memo: StageMemo,
}

/// The staging half of the export engine: the tables a group's export
/// computation reads and the interner it writes. The per-route work that
/// depends only on the group fingerprint (iBGP reflection class,
/// well-known communities, export policy, mode transforms, path-id
/// assignment) runs here, once per group, and is shared by every member.
/// Member-dependent filters (split horizon, sender-side loop,
/// route-server member blocks) are deferred to the member diff.
pub(super) struct Stager<'a> {
    pub(super) cfg: &'a SpeakerConfig,
    pub(super) loc_rib: &'a LocRib,
    pub(super) local_routes: &'a LocalRoutes,
    pub(super) interner: &'a mut AttrInterner,
    pub(super) now: SimTime,
}

impl Stager<'_> {
    /// Stage one prefix for one group: append the group-level outcome of
    /// every source route — the best path, or for an AllPaths group every
    /// usable path, best first — to the staged entries. Returns where the
    /// group's entries sit.
    pub(super) fn stage(
        &mut self,
        peers: &Peers,
        st: &mut Staging,
        key: ExportGroupKey,
        group: &ExportGroup,
        prefix: &Prefix,
    ) -> Range<usize> {
        let start = st.staged.len();
        match group.fingerprint.advertise {
            AdvertiseMode::BestOnly => {
                if let Some(best) = self.loc_rib.get(prefix) {
                    let entry = self.stage_route(peers, &mut st.memo, key, group, best);
                    st.staged.push(entry);
                }
            }
            AdvertiseMode::AllPaths => {
                let mut sources = std::mem::take(&mut st.sources);
                sources.extend(candidates(peers, prefix).cloned());
                sources.extend(local_route(self.local_routes, prefix, self.now));
                // Deterministic order: best first.
                let decision = &self.cfg.decision;
                sources.sort_by(|a, b| compare_routes(b, a, decision).then(Ordering::Equal));
                for route in &sources {
                    let entry = self.stage_route(peers, &mut st.memo, key, group, route);
                    st.staged.push(entry);
                }
                sources.clear();
                st.sources = sources;
            }
        }
        start..st.staged.len()
    }

    /// The group-level outcome for one source route: a fully transformed
    /// route ready for the shared base, or the group-level rejection.
    fn stage_route(
        &mut self,
        peers: &Peers,
        memo: &mut StageMemo,
        key: ExportGroupKey,
        group: &ExportGroup,
        route: &Route,
    ) -> StagedEntry {
        // With a prefix-free export policy the exported attributes are a
        // function of (source attributes, learning peer, group); the
        // interner is what makes the memoized allocation the very one a
        // fresh computation would be handed.
        let memo_key = (group.export_prefix_free && self.interner.is_enabled()).then_some((
            Arc::as_ptr(&route.attrs) as usize,
            route.peer,
            key,
        ));
        let attrs = match memo_key.and_then(|k| memo.get(&k)) {
            Some((_, staged)) => {
                if staged.is_ok() {
                    // The interner lookup this stands in for.
                    self.interner.hits += 1;
                }
                staged.clone()
            }
            None => {
                let staged = self.export_attrs(peers, &group.fingerprint, route);
                if let Some(k) = memo_key {
                    memo.insert(k, (Arc::clone(&route.attrs), staged.clone()));
                }
                staged
            }
        };
        let outcome = attrs.map(|attrs| Route {
            prefix: route.prefix,
            attrs,
            peer: route.peer,
            path_id: match group.fingerprint.advertise {
                AdvertiseMode::BestOnly => 0,
                // Stable, collision-free id: the learning peer's id + 1
                // (0 is reserved for the local/best path).
                AdvertiseMode::AllPaths if route.peer == PeerId::LOCAL => 0,
                AdvertiseMode::AllPaths => route.peer.0.wrapping_add(1),
            },
            source: route.source,
            igp_cost: route.igp_cost,
            learned_at: route.learned_at,
            trace: route.trace,
        });
        StagedEntry {
            source_peer: route.peer,
            source_attrs: Arc::clone(&route.attrs),
            source_trace: route.trace,
            outcome,
        }
    }

    /// Apply the group-level export semantics to one source route's
    /// attributes: the transformed, interned attributes, or the verdict
    /// that rejects the route for the whole group.
    fn export_attrs(&mut self, peers: &Peers, fp: &GroupFingerprint, route: &Route) -> StagedAttrs {
        // iBGP-learned routes are not re-advertised to iBGP peers unless
        // route reflection applies (RFC 4456): a route from a client is
        // reflected to every iBGP peer; a route from a non-client is
        // reflected to clients only.
        if route.source == RouteSource::Ibgp && fp.ibgp {
            let from_client = peers.get(&route.peer).is_some_and(|p| p.cfg.rr_client);
            let reflect = from_client || fp.rr_client;
            if !reflect {
                return Err(ExportVerdict::IbgpNoReflect);
            }
        }
        // Well-known communities.
        if route.attrs.has_community(Community::NO_ADVERTISE) {
            return Err(ExportVerdict::NoAdvertise);
        }
        // NO_EXPORT binds the *receiving* AS: routes we learned must not
        // leave our AS, but a route we originate ourselves is still sent
        // to the neighbor (who then keeps it inside their AS).
        if !fp.ibgp
            && route.source != RouteSource::Local
            && route.attrs.has_community(Community::NO_EXPORT)
        {
            return Err(ExportVerdict::NoExport);
        }
        let mut attrs = (*route.attrs).clone();
        if !fp.export.apply(&route.prefix, &mut attrs) {
            return Err(ExportVerdict::PolicyRejected);
        }
        match self.cfg.mode {
            SpeakerMode::RouteServer => {
                // RFC 7947: transparent. Leave AS_PATH, NEXT_HOP, MED.
            }
            SpeakerMode::Normal => {
                if fp.ibgp {
                    // iBGP: keep next hop and path; ensure LOCAL_PREF set.
                    if attrs.local_pref.is_none() {
                        attrs.local_pref = Some(100);
                    }
                } else {
                    attrs.as_path.prepend(self.cfg.asn, 1);
                    attrs.next_hop = self.cfg.router_id;
                    attrs.local_pref = None;
                }
            }
        }
        // Interning here means every member of every group holding this
        // export (and every receiving speaker's Adj-RIB-In) shares one
        // allocation; values are untouched, so digests are unchanged.
        Ok(self.interner.intern(attrs))
    }
}
