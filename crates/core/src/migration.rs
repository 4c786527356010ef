//! Migration-state vocabulary for the safe-reconfiguration planner.
//!
//! Production operation of the testbed is not a static config but a
//! stream of *migrations*: mux maintenance drains, policy rollouts,
//! make-before-break peering moves. This module defines the shared
//! state language those migrations are expressed in — a deployment
//! shape ([`DeploySpec`]) and a configuration snapshot
//! ([`ConfigState`]) — so that the planner (`peering-plan`), the static
//! verifier (`peering-lint` over the migration catalog) and the
//! workloads catalog all speak about the same states without depending
//! on each other.
//!
//! A [`ConfigState`] is deliberately *canonical*: policy selections at
//! their default ([`ImportSel::Safety`], [`ExportSel::Safety`]) are not
//! stored, and clients with no announcements have no `announced` entry.
//! Two states describing the same configuration therefore compare equal
//! and hash to the same [`digest`](ConfigState::digest), which is what
//! lets the planner memoize the search lattice and pin per-step state
//! digests into its certified plans.

use crate::alloc::PrefixAllocator;
use crate::experiment::{AnnouncementSpec, Experiment, ExperimentId};
use peering_netsim::{Fnv1a, Ipv4Net, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One client experiment in a migration deployment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// The /24 allocated to this client from the testbed pool.
    pub alloc: Ipv4Net,
    /// Whether the client is a *transit* experiment: its speaker
    /// re-exports routes learned at one mux toward its other sessions
    /// (ARROW-style tunneling studies do exactly this). Transit clients
    /// are what make session orderings loop-prone mid-migration.
    pub transit: bool,
}

/// The fixed shape of a deployment a migration runs against: how many
/// upstream neighbors, how many muxes, and which clients exist. The
/// *mutable* configuration lives in [`ConfigState`]; a migration never
/// changes the deployment shape itself.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeploySpec {
    /// Upstream BGP neighbors every mux peers with.
    pub upstreams: usize,
    /// Number of mux instances (sites).
    pub muxes: usize,
    /// The client experiments, indexed by position.
    pub clients: Vec<ClientSpec>,
}

impl DeploySpec {
    /// A standard deployment: two upstreams, `muxes` muxes, and
    /// `clients` non-transit clients with /24s allocated in order from
    /// the conventional PEERING pool.
    pub fn standard(muxes: usize, clients: usize) -> Self {
        let mut allocator = PrefixAllocator::peering_default();
        let clients = (0..clients)
            .map(|c| ClientSpec {
                alloc: allocator.allocate(c as u32).expect("pool has room"),
                transit: false,
            })
            .collect();
        DeploySpec {
            upstreams: 2,
            muxes,
            clients,
        }
    }

    /// Builder: mark client `c` as a transit experiment.
    pub fn transit(mut self, c: usize) -> Self {
        self.clients[c].transit = true;
        self
    }
}

/// Which import policy a mux applies on a client's sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ImportSel {
    /// The standard client-import safety policy (pool prefixes only,
    /// nothing longer than a /24) — the default.
    Safety,
    /// Containment quarantine: reject everything the client offers.
    Quarantine,
}

/// Which export policy a mux applies toward its upstreams.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExportSel {
    /// The standard export safety filter (pool prefixes only, private
    /// ASNs stripped) — the default.
    Safety,
    /// Export everything. Never safe against a real upstream; exists so
    /// the planner can *prove* a proposed rollout would leak.
    Open,
}

/// One configuration snapshot of a deployment: which client↔mux
/// sessions are up, what each client announces, which policies apply,
/// and which muxes are drained for maintenance.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfigState {
    /// Client↔mux sessions that are administratively up, as
    /// `(client, mux)` index pairs.
    pub sessions: BTreeSet<(usize, usize)>,
    /// Prefixes each client currently announces (empty entries are not
    /// stored — see the canonical-form contract in the module docs).
    pub announced: BTreeMap<usize, BTreeSet<Ipv4Net>>,
    /// Non-default import selections per client.
    pub imports: BTreeMap<usize, ImportSel>,
    /// Non-default export selections per mux.
    pub exports: BTreeMap<usize, ExportSel>,
    /// Muxes drained for maintenance: sessions stay up but nothing is
    /// imported from or exported to the mux's upstreams.
    pub drained: BTreeSet<usize>,
}

impl ConfigState {
    /// The empty configuration: no sessions, no announcements, all
    /// policies at their safety defaults.
    pub fn empty() -> Self {
        ConfigState::default()
    }

    /// Builder: bring the `(client, mux)` session up.
    pub fn session(mut self, client: usize, mux: usize) -> Self {
        self.sessions.insert((client, mux));
        self
    }

    /// Builder: client `c` announces `prefix`.
    pub fn announce(mut self, c: usize, prefix: Ipv4Net) -> Self {
        self.announced.entry(c).or_default().insert(prefix);
        self
    }

    /// Builder: set client `c`'s import selection.
    pub fn import(mut self, c: usize, sel: ImportSel) -> Self {
        self.set_import(c, sel);
        self
    }

    /// Builder: set mux `m`'s export selection.
    pub fn export(mut self, m: usize, sel: ExportSel) -> Self {
        self.set_export(m, sel);
        self
    }

    /// Builder: drain mux `m`.
    pub fn drain(mut self, m: usize) -> Self {
        self.drained.insert(m);
        self
    }

    /// The import selection for client `c` (default
    /// [`ImportSel::Safety`]).
    pub fn import_of(&self, c: usize) -> ImportSel {
        self.imports.get(&c).copied().unwrap_or(ImportSel::Safety)
    }

    /// The export selection for mux `m` (default [`ExportSel::Safety`]).
    pub fn export_of(&self, m: usize) -> ExportSel {
        self.exports.get(&m).copied().unwrap_or(ExportSel::Safety)
    }

    /// Set client `c`'s import selection, keeping the canonical form
    /// (default selections are erased, not stored).
    pub fn set_import(&mut self, c: usize, sel: ImportSel) {
        if sel == ImportSel::Safety {
            self.imports.remove(&c);
        } else {
            self.imports.insert(c, sel);
        }
    }

    /// Set mux `m`'s export selection, keeping the canonical form.
    pub fn set_export(&mut self, m: usize, sel: ExportSel) {
        if sel == ExportSel::Safety {
            self.exports.remove(&m);
        } else {
            self.exports.insert(m, sel);
        }
    }

    /// Withdraw `prefix` at client `c`, dropping the client's entry
    /// entirely when its last announcement goes (canonical form).
    pub fn unannounce(&mut self, c: usize, prefix: &Ipv4Net) {
        if let Some(set) = self.announced.get_mut(&c) {
            set.remove(prefix);
            if set.is_empty() {
                self.announced.remove(&c);
            }
        }
    }

    /// The prefixes client `c` announces (empty if none).
    pub fn announced_by(&self, c: usize) -> BTreeSet<Ipv4Net> {
        self.announced.get(&c).cloned().unwrap_or_default()
    }

    /// Re-establish the canonical form after hand-construction: erase
    /// default policy entries and empty announcement sets.
    pub fn normalize(&mut self) {
        self.imports.retain(|_, s| *s != ImportSel::Safety);
        self.exports.retain(|_, s| *s != ExportSel::Safety);
        self.announced.retain(|_, set| !set.is_empty());
    }

    /// Materialize this state's announcements as provisioned
    /// [`Experiment`]s — one per client, announcement sites spanning
    /// every mux — so `peering-verify` can statically check them
    /// exactly like the scenario catalog. Session structure and drains
    /// are *not* encoded here; reachability through them is the
    /// planner oracle's job.
    pub fn experiments(&self, deploy: &DeploySpec) -> Vec<Experiment> {
        let sites: Vec<usize> = (0..deploy.muxes).collect();
        deploy
            .clients
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let mut active = BTreeMap::new();
                for p in self.announced_by(c) {
                    active.insert(p, AnnouncementSpec::everywhere(p, sites.clone()));
                }
                Experiment {
                    id: ExperimentId(c as u32),
                    name: format!("client-{c}"),
                    owner: "migration".to_string(),
                    prefix: spec.alloc,
                    created: SimTime::ZERO,
                    active,
                    v6_prefix: None,
                    origin_asn: None,
                    active_v6: BTreeMap::new(),
                }
            })
            .collect()
    }

    /// FNV-1a digest of the canonical state. Stable across runs and
    /// platforms; used for search memoization and for the per-step
    /// digests pinned into certified migration plans.
    pub fn digest(&self) -> u64 {
        Fnv1a::legacy()
            .write(format!("{self:?}").as_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_makes_equal_states_equal() {
        let deploy = DeploySpec::standard(2, 2);
        let a = ConfigState::empty()
            .session(0, 0)
            .announce(0, deploy.clients[0].alloc);
        let mut b = ConfigState::empty()
            .session(0, 0)
            .announce(0, deploy.clients[0].alloc)
            .import(1, ImportSel::Quarantine);
        b.set_import(1, ImportSel::Safety);
        let mut c = b.clone();
        c.announced.entry(1).or_default();
        c.normalize();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a, c);
    }

    #[test]
    fn unannounce_erases_empty_entries() {
        let p: Ipv4Net = "184.164.224.0/24".parse().expect("net");
        let mut s = ConfigState::empty().announce(3, p);
        s.unannounce(3, &p);
        assert!(s.announced.is_empty());
    }

    #[test]
    fn experiments_cover_every_client() {
        let deploy = DeploySpec::standard(2, 3);
        let state = ConfigState::empty()
            .announce(0, deploy.clients[0].alloc)
            .announce(2, deploy.clients[2].alloc);
        let exps = state.experiments(&deploy);
        assert_eq!(exps.len(), 3);
        assert_eq!(exps[0].active.len(), 1);
        assert!(exps[1].active.is_empty());
        assert!(exps[2].owns(&deploy.clients[2].alloc));
    }

    #[test]
    fn standard_deploy_allocates_distinct_prefixes() {
        let deploy = DeploySpec::standard(2, 4);
        let allocs: BTreeSet<Ipv4Net> = deploy.clients.iter().map(|c| c.alloc).collect();
        assert_eq!(allocs.len(), 4);
    }
}
