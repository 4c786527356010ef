//! The import side of the Speaker: an UPDATE from a peer becomes
//! Adj-RIB-In changes (loop check, import policy, damping, max-prefix
//! limits) and a re-decision of the prefixes it touched.

use super::{relist, Output, Speaker, SpeakerEvent, SpeakerMode};
use crate::attrs::PathAttributes;
use crate::fsm::SessionEvent;
use crate::message::{Nlri, UpdateMessage};
use crate::policy::Policy;
use crate::provenance::{ImportVerdict, ProvenanceEvent};
use crate::rib::{PeerId, Route, RouteSource};
use peering_netsim::{Asn, Prefix, SimTime};
use std::sync::Arc;

impl Speaker {
    pub(super) fn process_update(
        &mut self,
        from: PeerId,
        update: UpdateMessage,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        // End-of-RIB after a graceful restart: the peer has re-sent its
        // whole table, so whatever is still stale was genuinely lost.
        if update.is_end_of_rib() {
            return self.finish_graceful_restart(from, now, out);
        }
        let Some(state) = self.peers.get_mut(&from) else {
            return;
        };
        let was_empty = state.adj_in.is_empty();
        // The provenance id carried by this update is the *cause* of every
        // RIB change (and downstream export) it triggers here.
        let cause = update.trace;
        let prov = self.provenance.is_enabled().then_some(&self.provenance);
        let mut affected: Vec<Prefix> =
            Vec::with_capacity(update.withdrawn.len() + update.announced.len());
        let local_asn = self.cfg.asn;
        let damping_cfg = self.cfg.damping;
        let peer_asn = state.cfg.asn;
        let peer_is_ibgp = peer_asn == local_asn;
        let telemetry = &self.telemetry;
        let suppressed = |out: &mut Vec<Output>, prefix: Prefix| {
            telemetry.counter_inc("bgp.damping.suppressed");
            out.push(Output::Event(SpeakerEvent::Suppressed(from, prefix)));
        };
        let import_rejected = |out: &mut Vec<Output>, prefix: Prefix| {
            telemetry.counter_inc("bgp.policy.import_rejected");
            out.push(Output::Event(SpeakerEvent::ImportRejected(from, prefix)));
        };
        if let Some(prov) = prov {
            // The vantage-point feed record: the update exactly as
            // received, stamped with its delivery time.
            prov.record(
                now,
                local_asn,
                ProvenanceEvent::Feed {
                    from_peer: from,
                    from_asn: peer_asn,
                    update: update.clone(),
                },
            );
            for nlri in &update.withdrawn {
                prov.record(
                    now,
                    local_asn,
                    ProvenanceEvent::WithdrawReceived {
                        from_peer: from,
                        from_asn: peer_asn,
                        prefix: nlri.prefix,
                        trace: cause,
                    },
                );
            }
        }

        for nlri in &update.withdrawn {
            if state.remove_learned(nlri) {
                affected.push(nlri.prefix);
            }
            if let Some(dcfg) = damping_cfg {
                if state.damping.on_withdraw(nlri.prefix, now, &dcfg) {
                    state.suppressed.insert(nlri.prefix);
                    suppressed(out, nlri.prefix);
                }
            }
        }

        if let Some(attrs) = &update.attrs {
            let heard_path: Vec<Asn> = match prov {
                Some(_) => attrs.as_path.asns().collect(),
                None => Vec::new(),
            };
            let import_verdict = |prefix: Prefix, v: ImportVerdict| {
                if let Some(prov) = prov {
                    prov.record(
                        now,
                        local_asn,
                        ProvenanceEvent::Imported {
                            from_peer: from,
                            from_asn: peer_asn,
                            prefix,
                            trace: cause,
                            as_path: heard_path.clone(),
                            verdict: v,
                        },
                    );
                }
            };
            // Receiver-side loop detection: our ASN in the path means the
            // route already passed through us (this is also what makes
            // AS-path poisoning work).
            let looped = self.cfg.mode == SpeakerMode::Normal
                && !peer_is_ibgp
                && attrs.as_path.contains(local_asn);
            // An import policy that reads no prefix makes the same thing of
            // every NLRI of the UPDATE, and the interner would hand each of
            // them the same allocation: run policy and interner once and
            // count the later NLRIs as the interner hits they would be.
            let import_once = self.interner.is_enabled() && state.cfg.import.is_prefix_free();
            let mut imported_once: Option<Option<Arc<PathAttributes>>> = None;
            for nlri in &update.announced {
                if looped {
                    import_rejected(out, nlri.prefix);
                    import_verdict(nlri.prefix, ImportVerdict::AsPathLoop);
                    continue;
                }
                let imported = match &imported_once {
                    Some(imported) => {
                        if imported.is_some() {
                            self.interner.hits += 1;
                        }
                        imported.clone()
                    }
                    None => {
                        let mut imported = (**attrs).clone();
                        let imported = state
                            .cfg
                            .import
                            .apply(&nlri.prefix, &mut imported)
                            .then(|| self.interner.intern(imported));
                        if import_once {
                            imported_once = Some(imported.clone());
                        }
                        imported
                    }
                };
                let Some(imported) = imported else {
                    import_rejected(out, nlri.prefix);
                    import_verdict(nlri.prefix, ImportVerdict::PolicyRejected);
                    // An implicit withdraw of any previous path.
                    if state.remove_learned(nlri) {
                        affected.push(nlri.prefix);
                    }
                    continue;
                };
                let mut damped = false;
                if let Some(dcfg) = damping_cfg {
                    if state.damping.on_announce(nlri.prefix, now, &dcfg) {
                        state.suppressed.insert(nlri.prefix);
                        suppressed(out, nlri.prefix);
                        damped = true;
                    }
                }
                import_verdict(
                    nlri.prefix,
                    if damped {
                        ImportVerdict::Damped
                    } else {
                        ImportVerdict::Accepted
                    },
                );
                let path_id = nlri.path_id.unwrap_or(0);
                state.adj_in.insert(Route {
                    prefix: nlri.prefix,
                    attrs: imported,
                    peer: from,
                    path_id,
                    source: if peer_is_ibgp {
                        RouteSource::Ibgp
                    } else {
                        RouteSource::Ebgp
                    },
                    igp_cost: state.cfg.igp_cost,
                    learned_at: now,
                    trace: cause,
                });
                if let Some(st) = &mut state.stale {
                    st.keys.remove(&(nlri.prefix, path_id));
                }
                affected.push(nlri.prefix);
            }
        }
        relist(&mut self.learned, state, was_empty);
        // Max-prefix enforcement (RFC 4486 §4): count what the peer now
        // occupies in Adj-RIB-In, warn once per session at the soft
        // threshold, Cease above the hard limit. The Cease path bypasses
        // graceful restart — retaining a flooder's paths would preserve
        // the very table pressure the limit exists to shed.
        let mut ceased = false;
        if let Some(mp) = state.cfg.max_prefix {
            let count = state.adj_in.prefix_count();
            if count >= mp.warn && count <= mp.limit && !state.max_prefix_warned {
                state.max_prefix_warned = true;
                telemetry.counter_inc("bgp.session.max_prefix_warn");
            }
            if count > mp.limit {
                let (msgs, sess_events) = state.session.max_prefix_cease(now, mp.idle_hold);
                out.extend(msgs.into_iter().map(|m| Output::Send(from, m)));
                telemetry.counter_inc("bgp.session.down");
                for ev in sess_events {
                    if let SessionEvent::Down { reason } = ev {
                        out.push(Output::Event(SpeakerEvent::PeerDown(from, reason)));
                    }
                }
                ceased = true;
            }
        }
        if ceased {
            affected.extend(self.session_lost(from, None));
        }
        affected.sort_unstable();
        affected.dedup();
        self.reconsider_with(&affected, now, cause, out);
    }

    pub(super) fn set_import(
        &mut self,
        peer: PeerId,
        policy: Policy,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        state.cfg.import = policy;
        let was_empty = state.adj_in.is_empty();
        let mut affected: Vec<Prefix> = Vec::new();
        let prefixes: Vec<Prefix> = state.adj_in.prefixes().copied().collect();
        for p in prefixes {
            let paths: Vec<(u32, Arc<PathAttributes>)> = state
                .adj_in
                .paths(&p)
                .map(|r| (r.path_id, r.attrs.clone()))
                .collect();
            for (path_id, attrs) in paths {
                let mut candidate = (*attrs).clone();
                if !state.cfg.import.apply(&p, &mut candidate)
                    && state.remove_learned(&Nlri::with_path_id(p, path_id))
                {
                    affected.push(p);
                }
            }
        }
        relist(&mut self.learned, state, was_empty);
        self.reconsider_with(&affected, now, None, out);
    }
}
