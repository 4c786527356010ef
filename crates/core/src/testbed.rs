//! The testbed facade: build the simulated Internet, deploy PEERING into
//! it, obtain peering, and run experiments.
//!
//! This is the API a researcher-facing portal would sit on: provision an
//! experiment (vetting + prefix allocation), make controlled
//! announcements (safety-checked, per-site, per-peer), observe the
//! control plane (who hears the route, with what path) and the data
//! plane (pings/traceroutes honoring black holes).

use crate::alloc::PrefixAllocator;
use crate::capability::ObservedFeatures;
use crate::client::PeeringClient;
use crate::experiment::{
    AnnouncementSpec, Experiment, ExperimentId, PeerSelector, Schedule, ScheduledAction,
};
use crate::monitor::{Monitor, ProbeRecord, TelemetryEvent, UpdateKind, UpdateRecord};
use crate::mux::MuxDesign;
use crate::safety::{SafetyConfig, SafetyFilter, SafetyVerdict, Violation};
use crate::server::{PeeringServer, SiteKind, SiteSpec};
use peering_ixp::{Ixp, PeeringWorkflow};
use peering_netsim::{Asn, Fnv1a, Ipv4Net, Ipv6Net, Prefix, SimDuration, SimRng, SimTime};
use peering_telemetry::Telemetry;
use peering_topology::{
    cone::{as_rank, customer_cones},
    routing::{propagate, Announcement, PropagationResult, TraceOutcome},
    AsGraph, AsIdx, AsInfo, AsKind, Internet, InternetConfig, PeeringPolicy, Relationship,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Testbed-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum TestbedError {
    /// No such experiment.
    UnknownExperiment(ExperimentId),
    /// Prefix pool exhausted or misused.
    Alloc(crate::alloc::AllocError),
    /// Safety filter blocked the action.
    Safety(Violation),
    /// The site index does not exist.
    BadSite(usize),
    /// The prefix has no active announcement.
    NotAnnounced(Ipv4Net),
    /// The v6 prefix has no active announcement, or v6 not enabled.
    V6NotAvailable,
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::UnknownExperiment(id) => write!(f, "unknown experiment {id}"),
            TestbedError::Alloc(e) => write!(f, "allocation: {e}"),
            TestbedError::Safety(v) => write!(f, "blocked by safety: {v}"),
            TestbedError::BadSite(s) => write!(f, "no such site {s}"),
            TestbedError::NotAnnounced(p) => write!(f, "{p} is not announced"),
            TestbedError::V6NotAvailable => write!(f, "IPv6 not enabled or not announced"),
        }
    }
}

impl std::error::Error for TestbedError {}

/// Testbed build configuration.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Master seed.
    pub seed: u64,
    /// The Internet to build around the testbed.
    pub internet: InternetConfig,
    /// Server sites to deploy.
    pub sites: Vec<SiteSpec>,
    /// Mux architecture at every server.
    pub mux_design: MuxDesign,
}

impl TestbedConfig {
    /// A small testbed for unit tests: one IXP site, one university.
    pub fn small(seed: u64) -> Self {
        TestbedConfig {
            seed,
            internet: InternetConfig::small(seed),
            sites: vec![
                SiteSpec::ixp("testix01", 0, *b"NL"),
                SiteSpec::university("uni01", 2, *b"US"),
            ],
            mux_design: MuxDesign::PerPeerSessions,
        }
    }

    /// The paper's deployment on the full-scale (47k-AS, 524k-prefix)
    /// Internet — used for the unscaled §4.1 numbers. Build cost is
    /// under a second.
    pub fn full(seed: u64) -> Self {
        TestbedConfig {
            internet: InternetConfig::full(seed),
            ..TestbedConfig::eval(seed)
        }
    }

    /// The paper's deployment: nine servers on three continents — the
    /// AMS-IX and Phoenix-IX colocations plus seven university sites
    /// giving "dozens of indirect providers".
    pub fn eval(seed: u64) -> Self {
        TestbedConfig {
            seed,
            internet: InternetConfig::eval(seed),
            sites: vec![
                SiteSpec::ixp("amsterdam01", 0, *b"NL"),
                SiteSpec::ixp("phoenix01", 1, *b"US"),
                SiteSpec::university("gatech01", 4, *b"US"),
                SiteSpec::university("usc01", 4, *b"US"),
                SiteSpec::university("uw01", 3, *b"US"),
                SiteSpec::university("ufmg01", 3, *b"BR"),
                SiteSpec::university("cornell01", 3, *b"US"),
                SiteSpec::university("clemson01", 3, *b"US"),
                SiteSpec::university("wisc01", 4, *b"US"),
            ],
            mux_design: MuxDesign::AddPathMux,
        }
    }
}

struct ActiveAnnouncement {
    experiment: ExperimentId,
    /// Announcing sites; the i-th propagated announcement is `sites[i]`'s.
    sites: Vec<usize>,
    result: PropagationResult,
}

/// The deployed testbed.
pub struct Testbed {
    /// The Internet PEERING lives in.
    pub internet: Internet,
    /// IXPs assembled from the Internet.
    pub ixps: Vec<Ixp>,
    /// PEERING's node in the AS graph.
    pub node: AsIdx,
    /// Deployed servers, parallel to the config's sites.
    pub servers: Vec<PeeringServer>,
    /// Prefix/ASN allocation.
    pub allocator: PrefixAllocator,
    /// The safety filter.
    pub safety: SafetyFilter,
    /// Measurement collection.
    pub monitor: Monitor,
    /// Shared telemetry registry for the whole testbed; the monitor
    /// mirrors its event stream into it, and other subsystems can clone
    /// the handle.
    pub telemetry: Telemetry,
    /// The announcement calendar.
    pub schedule: Schedule,
    /// Provisioned experiments.
    pub experiments: BTreeMap<ExperimentId, Experiment>,
    /// Clients, one per experiment.
    pub clients: BTreeMap<ExperimentId, PeeringClient>,
    /// ASes currently black-holing traffic (fault injection).
    pub blackholes: BTreeSet<AsIdx>,
    /// Bilateral workflows per IXP site (site index -> workflow).
    pub workflows: BTreeMap<usize, PeeringWorkflow>,
    cones: Vec<BTreeSet<AsIdx>>,
    announcements: BTreeMap<Prefix, ActiveAnnouncement>,
    now: SimTime,
    next_exp: u32,
}

impl Testbed {
    /// Build and deploy: generate the Internet, insert the PEERING AS,
    /// connect transit at universities, join route servers and run the
    /// bilateral workflow at IXPs. The clock ends up ~45 days in, after
    /// the peering-request dust settles.
    pub fn build(cfg: TestbedConfig) -> Testbed {
        let internet = Internet::build(cfg.internet.clone());
        let ixps: Vec<Ixp> = (0..internet.specs.len())
            .map(|i| Ixp::from_internet(&internet, i))
            .collect();
        let mut internet = internet;
        let root = SimRng::new(cfg.seed);
        let mut rng = root.fork("testbed");

        let mut info = AsInfo::new(Asn::PEERING, AsKind::Testbed);
        info.name = Some("PEERING".into());
        info.policy = PeeringPolicy::Open;
        let node = internet.graph.add_as(info);

        let mut servers = Vec::new();
        let mut workflows = BTreeMap::new();
        let t0 = SimTime::ZERO;
        for (site_idx, site) in cfg.sites.iter().enumerate() {
            let mut server = PeeringServer::new(site.clone(), cfg.mux_design);
            match &site.kind {
                SiteKind::University { n_transits } => {
                    // Universities give us transit: pick regional transits.
                    let transits: Vec<AsIdx> = internet
                        .graph
                        .infos()
                        .filter(|(_, i)| i.kind == AsKind::Transit)
                        .map(|(idx, _)| idx)
                        .collect();
                    // Universities may also resell access-network uplinks
                    // when every transit is already peered with us (tiny
                    // test topologies).
                    let fallback: Vec<AsIdx> = internet
                        .graph
                        .infos()
                        .filter(|(_, i)| i.kind == AsKind::Access)
                        .map(|(idx, _)| idx)
                        .collect();
                    let mut chosen = BTreeSet::new();
                    let mut guard = 0;
                    while chosen.len() < *n_transits && guard < 2000 {
                        guard += 1;
                        let pool = if guard <= 1000 { &transits } else { &fallback };
                        let cand = pool[rng.index(pool.len())];
                        // Skip ASes we already have a relationship with
                        // (e.g. an IXP peering from an earlier site).
                        if !chosen.contains(&cand) && !internet.graph.adjacent(node, cand) {
                            chosen.insert(cand);
                        }
                    }
                    for &t in &chosen {
                        internet
                            .graph
                            .add_edge(node, t, Relationship::CustomerToProvider);
                    }
                    let mut v: Vec<AsIdx> = chosen.into_iter().collect();
                    v.sort();
                    server.transits = v;
                }
                SiteKind::Ixp { ixp_index } | SiteKind::RemoteIxp { ixp_index, .. } => {
                    if let SiteKind::RemoteIxp { via_site, .. } = &site.kind {
                        server.remote_via = Some(*via_site);
                    }
                    let ixp = &ixps[*ixp_index];
                    // Multilateral: one session to the route server peers
                    // us with every RS member instantly.
                    // A directory id with no entry is a stale listing, not
                    // a reason to abort deployment: skip it.
                    for id in ixp.rs_member_ids() {
                        let Some(m) = ixp.directory.get(id) else {
                            continue;
                        };
                        internet
                            .graph
                            .add_edge(node, m.as_idx, Relationship::PeerToPeer);
                        server.rs_peers.push(m.as_idx);
                    }
                    // Bilateral: request peering from every non-RS member.
                    let mut wf = PeeringWorkflow::new();
                    let mut wf_rng = root.fork(&format!("workflow-{site_idx}"));
                    for id in ixp.bilateral_ids() {
                        let Some(m) = ixp.directory.get(id) else {
                            continue;
                        };
                        wf.send_request(id, m, t0, &mut wf_rng);
                    }
                    // Outcomes resolve over the setup window.
                    let resolved_at = t0 + SimDuration::from_secs(45 * 24 * 3600);
                    for id in wf.established(resolved_at) {
                        let Some(m) = ixp.directory.get(id) else {
                            continue;
                        };
                        internet
                            .graph
                            .add_edge(node, m.as_idx, Relationship::PeerToPeer);
                        server.bilateral_peers.push(m.as_idx);
                    }
                    workflows.insert(site_idx, wf);
                }
            }
            servers.push(server);
        }

        let allocator = PrefixAllocator::peering_default();
        let mut safety_cfg = SafetyConfig::new(
            allocator.pools().to_vec(),
            allocator.primary_asn().into_iter().collect(),
        );
        safety_cfg.pools_v6 = allocator.v6_pool().into_iter().collect();
        let safety = SafetyFilter::new(safety_cfg);
        let cones = customer_cones(&internet.graph);
        let telemetry = Telemetry::new();
        let mut monitor = Monitor::new();
        monitor.set_telemetry(telemetry.clone());
        Testbed {
            internet,
            ixps,
            node,
            servers,
            allocator,
            safety,
            monitor,
            telemetry,
            schedule: Schedule::new(),
            experiments: BTreeMap::new(),
            clients: BTreeMap::new(),
            blackholes: BTreeSet::new(),
            workflows,
            cones,
            announcements: BTreeMap::new(),
            now: SimTime::ZERO + SimDuration::from_secs(45 * 24 * 3600),
            next_exp: 1,
        }
    }

    /// The AS graph (with PEERING inserted).
    pub fn graph(&self) -> &AsGraph {
        &self.internet.graph
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock.
    pub fn advance(&mut self, dt: SimDuration) {
        self.now += dt;
    }

    /// Customer cones (indexed by AS).
    pub fn cones(&self) -> &[BTreeSet<AsIdx>] {
        &self.cones
    }

    /// A deterministic snapshot of the testbed's telemetry registry
    /// (monitor mirrors plus anything else sharing the handle).
    pub fn telemetry_snapshot(&self) -> peering_telemetry::Snapshot {
        self.telemetry.snapshot()
    }

    /// Append a control-plane record to the monitor's event stream.
    fn log_update(
        &mut self,
        id: ExperimentId,
        kind: UpdateKind,
        prefix: Prefix,
        reach: Option<usize>,
    ) {
        self.monitor.record(TelemetryEvent::Update(UpdateRecord {
            time: self.now,
            experiment: id,
            kind,
            prefix,
            reach,
        }));
    }

    /// A provisioned experiment.
    fn experiment(&mut self, id: ExperimentId) -> Result<&mut Experiment, TestbedError> {
        self.experiments
            .get_mut(&id)
            .ok_or(TestbedError::UnknownExperiment(id))
    }

    // ------------------------------------------------------- experiments

    /// Vet and provision an experiment with tunnels to `sites`.
    pub fn new_experiment(
        &mut self,
        name: &str,
        owner: &str,
        sites: &[usize],
    ) -> Result<ExperimentId, TestbedError> {
        for &s in sites {
            if s >= self.servers.len() {
                return Err(TestbedError::BadSite(s));
            }
        }
        let id = ExperimentId(self.next_exp);
        let prefix = self.allocator.allocate(id.0).map_err(TestbedError::Alloc)?;
        self.next_exp += 1;
        self.experiments.insert(
            id,
            Experiment {
                id,
                name: name.into(),
                owner: owner.into(),
                prefix,
                created: self.now,
                active: BTreeMap::new(),
                v6_prefix: None,
                active_v6: BTreeMap::new(),
                origin_asn: None,
            },
        );
        self.clients
            .insert(id, PeeringClient::new(id, prefix, sites));
        Ok(id)
    }

    /// Tear an experiment down, withdrawing its announcements.
    pub fn end_experiment(&mut self, id: ExperimentId) -> Result<(), TestbedError> {
        let exp = self
            .experiments
            .remove(&id)
            .ok_or(TestbedError::UnknownExperiment(id))?;
        let v4 = exp.active.keys().copied().map(Prefix::V4);
        for p in v4.chain(exp.active_v6.keys().copied().map(Prefix::V6)) {
            self.withdrawn(id, p);
        }
        if let Some(v6) = exp.v6_prefix {
            self.allocator.release_v6(v6).map_err(TestbedError::Alloc)?;
        }
        self.clients.remove(&id);
        self.allocator
            .release(exp.prefix)
            .map_err(TestbedError::Alloc)?;
        Ok(())
    }

    /// The neighbors an announcement from `site` with `select` reaches.
    pub fn site_neighbors(
        &self,
        site: usize,
        select: &PeerSelector,
    ) -> Result<Vec<AsIdx>, TestbedError> {
        let server = self.servers.get(site).ok_or(TestbedError::BadSite(site))?;
        let base: Vec<AsIdx> = match select {
            PeerSelector::All => server.neighbors(),
            PeerSelector::TransitOnly => server.transits.clone(),
            PeerSelector::PeersOnly => server.peers(),
            PeerSelector::Specific(list) => {
                let all: BTreeSet<AsIdx> = server.neighbors().into_iter().collect();
                list.iter().copied().filter(|a| all.contains(a)).collect()
            }
            PeerSelector::Excluding(list) => {
                let excl: BTreeSet<AsIdx> = list.iter().copied().collect();
                server
                    .neighbors()
                    .into_iter()
                    .filter(|a| !excl.contains(a))
                    .collect()
            }
        };
        Ok(base)
    }

    /// Execute a controlled announcement. On success returns how many
    /// ASes ended up selecting a route to the prefix.
    pub fn announce(
        &mut self,
        id: ExperimentId,
        spec: AnnouncementSpec,
    ) -> Result<usize, TestbedError> {
        let owned = Prefix::V4(self.experiment(id)?.prefix);
        let ann = Announcement::simple(self.node, Prefix::V4(spec.prefix))
            .prepended(spec.prepend)
            .poisoned(spec.poison.clone());
        let reach = self.announce_prefix(id, owned, ann, &spec.sites, &spec.select)?;
        self.experiment(id)?.active.insert(spec.prefix, spec);
        Ok(reach)
    }

    /// Withdraw a prefix.
    pub fn withdraw(&mut self, id: ExperimentId, prefix: Ipv4Net) -> Result<(), TestbedError> {
        if self.experiment(id)?.active.remove(&prefix).is_none() {
            return Err(TestbedError::NotAnnounced(prefix));
        }
        self.withdrawn(id, Prefix::V4(prefix));
        Ok(())
    }

    /// The announcement path of both families: check `ann` against the
    /// safety filter as an announcement inside `owned`, then propagate
    /// one copy per site from the PEERING node, restricted to that site's
    /// selected neighbors — multi-site announcements are anycast and the
    /// winning copy's index is the catchment.
    fn announce_prefix(
        &mut self,
        id: ExperimentId,
        owned: Prefix,
        mut ann: Announcement,
        sites: &[usize],
        select: &PeerSelector,
    ) -> Result<usize, TestbedError> {
        let origin = match self.experiment(id)?.origin_asn {
            Some(asn) => asn,
            None => self.allocator.primary_asn().map_err(TestbedError::Alloc)?,
        };
        let verdict = self.safety.check_announcement(
            id.0,
            owned,
            ann.prefix,
            origin,
            ann.prepend,
            ann.poison.len(),
            self.now,
        );
        if let SafetyVerdict::Blocked(v) = verdict {
            self.log_update(id, UpdateKind::Blocked, ann.prefix, None);
            return Err(TestbedError::Safety(v));
        }
        // Partial v6 deployment: only dual-stacked ASes (plus ourselves)
        // can carry v6 routes, and v6 sessions exist only with
        // dual-stacked neighbors.
        let v6 = !ann.prefix.is_v4();
        let graph = &self.internet.graph;
        let dual_stacked = |a: &AsIdx| !graph.info(*a).v6_prefixes.is_empty();
        if v6 {
            let carriers = graph.indices().filter(dual_stacked).chain([self.node]);
            ann = ann.among(carriers.collect());
        }
        let mut anns = Vec::new();
        for &site in sites {
            let mut neighbors = self.site_neighbors(site, select)?;
            neighbors.retain(|n| !v6 || dual_stacked(n));
            anns.push(ann.clone().only_to(neighbors));
        }
        let result = propagate(graph, &anns);
        let reach = result.reach_count().saturating_sub(1); // exclude ourselves
        self.log_update(id, UpdateKind::Announce, ann.prefix, Some(reach));
        self.announcements.insert(
            ann.prefix,
            ActiveAnnouncement {
                experiment: id,
                sites: sites.to_vec(),
                result,
            },
        );
        Ok(reach)
    }

    /// The withdrawal path of both families, once the experiment's record
    /// has let go of `prefix`: the route disappears, damping hears of it,
    /// the monitor logs it.
    fn withdrawn(&mut self, id: ExperimentId, prefix: Prefix) {
        self.announcements.remove(&prefix);
        self.safety.note_withdrawal(prefix, self.now);
        self.log_update(id, UpdateKind::Withdraw, prefix, None);
    }

    /// Assign a dedicated public origin ASN to an experiment from the
    /// testbed's ASN pool (the paper: "We plan to acquire multiple
    /// public ASNs in the future"). The safety filter then accepts that
    /// ASN as a route origin for this experiment's announcements.
    pub fn assign_secondary_asn(&mut self, id: ExperimentId) -> Result<Asn, TestbedError> {
        if let Some(asn) = self.experiment(id)?.origin_asn {
            return Ok(asn);
        }
        let asn = self.allocator.next_asn().map_err(TestbedError::Alloc)?;
        self.experiment(id)?.origin_asn = Some(asn);
        if !self.safety.cfg.public_asns.contains(&asn) {
            self.safety.cfg.public_asns.push(asn);
        }
        Ok(asn)
    }

    /// Request an IPv6 /48 for an experiment ("we also plan to add
    /// support for IPv6", §3). Idempotent per experiment.
    pub fn enable_ipv6(&mut self, id: ExperimentId) -> Result<Ipv6Net, TestbedError> {
        if let Some(p) = self.experiment(id)?.v6_prefix {
            return Ok(p);
        }
        let p = self
            .allocator
            .allocate_v6(id.0)
            .map_err(TestbedError::Alloc)?;
        self.experiment(id)?.v6_prefix = Some(p);
        Ok(p)
    }

    /// Announce an experiment's IPv6 /48 from `sites` with the given
    /// neighbor selection. Returns how many ASes selected a route.
    /// Dual-stack neighbors only: ASes without v6 deployment ignore the
    /// announcement.
    pub fn announce_v6(
        &mut self,
        id: ExperimentId,
        sites: &[usize],
        select: &PeerSelector,
    ) -> Result<usize, TestbedError> {
        let owned = self
            .experiment(id)?
            .v6_prefix
            .ok_or(TestbedError::V6NotAvailable)?;
        let ann = Announcement::simple(self.node, Prefix::V6(owned));
        let reach = self.announce_prefix(id, Prefix::V6(owned), ann, sites, select)?;
        self.experiment(id)?.active_v6.insert(owned, sites.to_vec());
        Ok(reach)
    }

    /// Withdraw the experiment's IPv6 announcement.
    pub fn withdraw_v6(&mut self, id: ExperimentId) -> Result<(), TestbedError> {
        let exp = self.experiment(id)?;
        let owned = exp.v6_prefix.ok_or(TestbedError::V6NotAvailable)?;
        if exp.active_v6.remove(&owned).is_none() {
            return Err(TestbedError::V6NotAvailable);
        }
        self.withdrawn(id, Prefix::V6(owned));
        Ok(())
    }

    /// ASes that are dual-stacked (can hold v6 routes at all).
    pub fn dual_stack_count(&self) -> usize {
        self.internet
            .graph
            .infos()
            .filter(|(_, i)| !i.v6_prefixes.is_empty())
            .count()
    }

    /// Run scheduled actions up to `until`, advancing the clock.
    pub fn run_schedule(&mut self, until: SimTime) {
        let due = self.schedule.due(until);
        for (t, exp, action) in due {
            self.now = self.now.max(t);
            match action {
                ScheduledAction::Announce(spec) => {
                    let _ = self.announce(exp, spec);
                }
                ScheduledAction::Withdraw(prefix) => {
                    let _ = self.withdraw(exp, prefix);
                }
            }
        }
        self.now = self.now.max(until);
    }

    // ------------------------------------------------------ control view

    /// The propagation result for an announced prefix (either family).
    pub fn routes_for_prefix(&self, prefix: &Prefix) -> Option<&PropagationResult> {
        self.announcements.get(prefix).map(|a| &a.result)
    }

    /// The propagation result for an announced v4 prefix.
    pub fn routes_for(&self, prefix: &Ipv4Net) -> Option<&PropagationResult> {
        self.routes_for_prefix(&Prefix::V4(*prefix))
    }

    /// The experiment owning an active announcement.
    pub fn announced_by(&self, prefix: &Ipv4Net) -> Option<ExperimentId> {
        self.announcements
            .get(&Prefix::V4(*prefix))
            .map(|a| a.experiment)
    }

    /// Which site's announcement each AS selected (anycast catchments):
    /// returns `(site, number of ASes)` pairs.
    pub fn catchments(&self, prefix: &Ipv4Net) -> Option<Vec<(usize, usize)>> {
        let active = self.announcements.get(&Prefix::V4(*prefix))?;
        Some(
            active
                .sites
                .iter()
                .enumerate()
                .map(|(ann_idx, &site)| (site, active.result.won_by(ann_idx)))
                .collect(),
        )
    }

    // -------------------------------------------------------- data plane

    /// Deterministic per-AS-hop one-way latency.
    pub fn hop_latency(&self, a: AsIdx, b: AsIdx) -> SimDuration {
        let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
        let mut h = Fnv1a::new();
        h.write(&lo.to_le_bytes()).write(&hi.to_le_bytes());
        SimDuration::from_millis(2 + h.finish() % 28)
    }

    /// One-way latency along an AS path.
    pub fn path_latency(&self, path: &[AsIdx]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for w in path.windows(2) {
            total += self.hop_latency(w[0], w[1]);
        }
        total
    }

    /// Trace from an AS toward an announced prefix (control path +
    /// black holes).
    pub fn traceroute(&self, from: AsIdx, prefix: &Ipv4Net) -> TraceOutcome {
        match self.routes_for(prefix) {
            Some(result) => result.trace(from, &self.blackholes),
            None => TraceOutcome::NoRoute,
        }
    }

    /// Ping an announced prefix from an AS: RTT if delivered. Records the
    /// probe in the monitor.
    pub fn ping(&mut self, from: AsIdx, prefix: &Ipv4Net) -> Option<SimDuration> {
        let outcome = self.traceroute(from, prefix);
        let (rtt, hops) = match &outcome {
            TraceOutcome::Delivered(path) => (Some(self.path_latency(path) * 2), Some(path.len())),
            _ => (None, None),
        };
        self.monitor.record(TelemetryEvent::Probe(ProbeRecord {
            time: self.now,
            from,
            prefix: (*prefix).into(),
            rtt,
            hops,
        }));
        rtt
    }

    /// Black-hole (or restore) an AS.
    pub fn set_blackhole(&mut self, at: AsIdx, active: bool) {
        if active {
            self.blackholes.insert(at);
        } else {
            self.blackholes.remove(&at);
        }
    }

    /// Alternate paths to a destination via each neighbor at a site
    /// (PECAN-style: "uncover alternate paths in the Internet and
    /// \[use\] traffic to measure their performance").
    pub fn paths_via_neighbors(
        &self,
        site: usize,
        dst: &Ipv4Net,
    ) -> Result<Vec<(AsIdx, Vec<AsIdx>, SimDuration)>, TestbedError> {
        let origin = self
            .internet
            .graph
            .origin_of(&Prefix::V4(*dst))
            .ok_or(TestbedError::NotAnnounced(*dst))?;
        let result = propagate(
            &self.internet.graph,
            &[Announcement::simple(origin, Prefix::V4(*dst))],
        );
        let neighbors = self.site_neighbors(site, &PeerSelector::All)?;
        let mut out = Vec::new();
        for n in neighbors {
            if let Some(entry) = result.route(n) {
                let mut path = vec![self.node];
                path.extend_from_slice(&entry.path);
                let lat = self.path_latency(&path);
                out.push((n, path, lat));
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------- peer stats

    /// Distinct peers (route-server + bilateral) across all servers.
    pub fn all_peers(&self) -> BTreeSet<AsIdx> {
        self.servers.iter().flat_map(|s| s.peers()).collect()
    }

    /// Distinct transit providers across all servers.
    pub fn all_transits(&self) -> BTreeSet<AsIdx> {
        self.servers
            .iter()
            .flat_map(|s| s.transits.iter().copied())
            .collect()
    }

    /// Countries spanned by our peers.
    pub fn peer_countries(&self) -> BTreeSet<[u8; 2]> {
        self.all_peers()
            .iter()
            .map(|&p| self.internet.graph.info(p).country)
            .collect()
    }

    /// How many of the top-`k` ASes (by customer cone) we peer with.
    pub fn top_cone_coverage(&self, k: usize) -> usize {
        let rank = as_rank(&self.internet.graph);
        let peers = self.all_peers();
        rank.iter().take(k).filter(|a| peers.contains(a)).count()
    }

    /// Prefixes reachable via peer routes alone ("ignoring transit"):
    /// everything originated inside any peer's customer cone.
    pub fn peer_reachable_prefixes(&self) -> usize {
        let mut ases: BTreeSet<AsIdx> = BTreeSet::new();
        for p in self.all_peers() {
            ases.extend(self.cones[p.i()].iter().copied());
        }
        ases.iter()
            .map(|&a| self.internet.graph.info(a).prefixes.len())
            .sum()
    }

    /// The set of ASes whose prefixes are reachable via peers.
    pub fn peer_reachable_ases(&self) -> BTreeSet<AsIdx> {
        let mut ases: BTreeSet<AsIdx> = BTreeSet::new();
        for p in self.all_peers() {
            ases.extend(self.cones[p.i()].iter().copied());
        }
        ases
    }

    /// Observable features for the Table 1 derivation.
    pub fn features(&self) -> ObservedFeatures {
        ObservedFeatures {
            announcement_control: true,
            peer_count: self.all_peers().len(),
            traffic_exchange: true,
            service_hosting: true,
            intradomain_bridging: true,
            concurrent_experiment_slots: self.allocator.available() + self.experiments.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed() -> Testbed {
        Testbed::build(TestbedConfig::small(1))
    }

    #[test]
    fn build_deploys_sites_and_peers() {
        let tb = testbed();
        assert_eq!(tb.servers.len(), 2);
        // IXP site has RS peers (22 in the small spec) plus bilaterals.
        let ams = &tb.servers[0];
        assert_eq!(ams.rs_peers.len(), 22);
        assert!(!ams.bilateral_peers.is_empty(), "some bilaterals accepted");
        // University site has its transits.
        let uni = &tb.servers[1];
        assert_eq!(uni.transits.len(), 2);
        // The graph gained the PEERING node with those edges.
        let g = tb.graph();
        assert_eq!(g.info(tb.node).asn, Asn::PEERING);
        assert_eq!(g.peers(tb.node).len(), tb.all_peers().len());
        assert_eq!(g.providers(tb.node).len(), tb.all_transits().len());
        g.validate().unwrap();
    }

    #[test]
    fn experiment_lifecycle() {
        let mut tb = testbed();
        let id = tb.new_experiment("quickstart", "usc", &[0]).unwrap();
        let exp = &tb.experiments[&id];
        assert!(tb.allocator.in_pool(&exp.prefix));
        let client = tb.clients[&id].clone();
        assert_eq!(client.prefix, exp.prefix);
        // Announce everywhere from site 0.
        let spec = client.announce_everywhere();
        let reach = tb.announce(id, spec).unwrap();
        assert!(reach > 0, "someone must hear us");
        assert!(tb.routes_for(&client.prefix).is_some());
        // Withdraw and end.
        tb.withdraw(id, client.prefix).unwrap();
        assert!(tb.routes_for(&client.prefix).is_none());
        tb.end_experiment(id).unwrap();
        assert!(tb.experiments.is_empty());
        assert_eq!(tb.allocator.available(), 32);
    }

    #[test]
    fn announcements_reach_the_whole_internet_via_transit() {
        let mut tb = testbed();
        let id = tb.new_experiment("wide", "usc", &[0, 1]).unwrap();
        let spec = tb.clients[&id].announce_everywhere();
        let reach = tb.announce(id, spec).unwrap();
        // With transit providers announced to, everyone should hear it.
        assert_eq!(reach, tb.graph().len() - 1, "full propagation");
    }

    #[test]
    fn peers_only_announcement_reaches_fewer() {
        let mut tb = testbed();
        let id = tb.new_experiment("narrow", "usc", &[0, 1]).unwrap();
        let client = tb.clients[&id].clone();
        let wide = tb.announce(id, client.announce_everywhere()).unwrap();
        tb.withdraw(id, client.prefix).unwrap();
        // Advance past damping/rate interactions.
        tb.advance(SimDuration::from_secs(7200));
        let narrow_spec = client.announce_from(0, PeerSelector::PeersOnly);
        let narrow = tb.announce(id, narrow_spec).unwrap();
        assert!(narrow < wide, "peers-only ({narrow}) < everywhere ({wide})");
        assert!(narrow > 0);
    }

    #[test]
    fn hijack_is_blocked_by_safety() {
        let mut tb = testbed();
        let id = tb.new_experiment("evil", "mallory", &[0]).unwrap();
        let victim: Ipv4Net = "16.0.1.0/24".parse().unwrap(); // someone's space
        let spec = AnnouncementSpec::everywhere(victim, vec![0]);
        let err = tb.announce(id, spec).unwrap_err();
        assert!(matches!(err, TestbedError::Safety(Violation::Hijack(_))));
        assert_eq!(tb.monitor.blocked_count(id), 1);
    }

    #[test]
    fn experiments_are_isolated() {
        let mut tb = testbed();
        let a = tb.new_experiment("a", "x", &[0]).unwrap();
        let b = tb.new_experiment("b", "y", &[0]).unwrap();
        let pa = tb.experiments[&a].prefix;
        let pb = tb.experiments[&b].prefix;
        assert!(!pa.overlaps(&pb));
        // a cannot announce b's prefix.
        let spec = AnnouncementSpec::everywhere(pb, vec![0]);
        let err = tb.announce(a, spec).unwrap_err();
        assert!(matches!(
            err,
            TestbedError::Safety(Violation::NotYourPrefix(_))
        ));
    }

    #[test]
    fn ping_and_blackhole() {
        let mut tb = testbed();
        let id = tb.new_experiment("ping", "usc", &[0, 1]).unwrap();
        let client = tb.clients[&id].clone();
        tb.announce(id, client.announce_everywhere()).unwrap();
        // Pick some AS far away and ping.
        let from = AsIdx(50);
        let rtt = tb.ping(from, &client.prefix);
        assert!(rtt.is_some(), "reachable after full announcement");
        // Black-hole the first hop on its path and ping again.
        let path = match tb.traceroute(from, &client.prefix) {
            TraceOutcome::Delivered(p) => p,
            other => panic!("{other:?}"),
        };
        tb.set_blackhole(path[1], true);
        assert!(tb.ping(from, &client.prefix).is_none());
        tb.set_blackhole(path[1], false);
        assert!(tb.ping(from, &client.prefix).is_some());
        // Probes were recorded.
        assert_eq!(tb.monitor.probes().count(), 3);
    }

    #[test]
    fn anycast_catchments_cover_everyone() {
        let mut tb = testbed();
        let id = tb.new_experiment("anycast", "usc", &[0, 1]).unwrap();
        let client = tb.clients[&id].clone();
        tb.announce(id, client.announce_everywhere()).unwrap();
        let catch = tb.catchments(&client.prefix).unwrap();
        assert_eq!(catch.len(), 2);
        let total: usize = catch.iter().map(|(_, n)| n).sum();
        assert_eq!(total, tb.graph().len(), "every AS lands in a catchment");
        assert!(catch.iter().all(|(_, n)| *n > 0), "both sites attract");
    }

    #[test]
    fn schedule_executes() {
        let mut tb = testbed();
        let id = tb.new_experiment("sched", "usc", &[0]).unwrap();
        let client = tb.clients[&id].clone();
        let t_announce = tb.now() + SimDuration::from_secs(60);
        let t_withdraw = tb.now() + SimDuration::from_secs(600);
        tb.schedule.at(
            t_announce,
            id,
            ScheduledAction::Announce(client.announce_everywhere()),
        );
        tb.schedule
            .at(t_withdraw, id, ScheduledAction::Withdraw(client.prefix));
        tb.run_schedule(t_announce + SimDuration::from_secs(1));
        assert!(tb.routes_for(&client.prefix).is_some());
        tb.run_schedule(t_withdraw + SimDuration::from_secs(1));
        assert!(tb.routes_for(&client.prefix).is_none());
    }

    #[test]
    fn features_meet_all_goals_when_deployed() {
        let tb = testbed();
        let f = tb.features();
        // The small testbed has only ~25 peers: Limited rich connectivity.
        assert!(f.peer_count >= 20);
        assert!(f.concurrent_experiment_slots >= 32);
    }

    #[test]
    fn peer_reachability_is_a_fraction_of_the_internet() {
        let tb = testbed();
        let via_peers = tb.peer_reachable_prefixes();
        let total = tb.graph().total_prefixes();
        assert!(via_peers > 0);
        assert!(via_peers < total, "peers alone never cover everything");
    }

    #[test]
    fn paths_via_neighbors_gives_alternates() {
        let tb = testbed();
        // Pick a destination prefix from some AS in the graph.
        let dst = tb
            .graph()
            .infos()
            .find_map(|(_, i)| i.prefixes.first().cloned())
            .unwrap();
        let Prefix::V4(dst) = dst else { panic!() };
        let alts = tb.paths_via_neighbors(0, &dst).unwrap();
        assert!(alts.len() > 1, "multiple neighbors give multiple paths");
        for (_, path, lat) in &alts {
            assert_eq!(path[0], tb.node);
            assert!(*lat > SimDuration::ZERO);
        }
    }

    #[test]
    fn deterministic_build() {
        let a = Testbed::build(TestbedConfig::small(5));
        let b = Testbed::build(TestbedConfig::small(5));
        assert_eq!(a.all_peers(), b.all_peers());
        assert_eq!(a.all_transits(), b.all_transits());
    }

    #[test]
    fn bad_site_errors() {
        let mut tb = testbed();
        assert!(matches!(
            tb.new_experiment("x", "y", &[99]),
            Err(TestbedError::BadSite(99))
        ));
        let id = tb.new_experiment("x", "y", &[0]).unwrap();
        let p = tb.experiments[&id].prefix;
        let bad_spec = AnnouncementSpec::everywhere(p, vec![42]);
        assert!(matches!(
            tb.announce(id, bad_spec),
            Err(TestbedError::BadSite(42))
        ));
    }
}
