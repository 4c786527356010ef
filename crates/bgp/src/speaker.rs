//! The BGP speaker: a complete software router.
//!
//! A [`Speaker`] owns any number of peer sessions, per-peer Adj-RIB-In /
//! Adj-RIB-Out tables, a Loc-RIB, import/export policies, and optional
//! route-flap damping. Three operating modes cover everything in the
//! paper:
//!
//! * [`SpeakerMode::Normal`] — a conventional router (an AS in the
//!   simulated Internet, an emulated PoP router, a client router).
//! * [`SpeakerMode::RouteServer`] — RFC 7947 transparency: no self-ASN
//!   prepend, untouched next hop and MED. Used by the IXP route server.
//! * Per-peer [`AdvertiseMode::AllPaths`] — exports every path (with
//!   ADD-PATH ids derived from the learning peer) rather than only the
//!   best one. This is the BIRD-style multiplexing PEERING proposes for
//!   scaling client sessions at large IXPs: one session carries every
//!   upstream's routes, distinguishable by path id.

use crate::attrs::{Community, PathAttributes};
use crate::damping::{DampingConfig, DampingState};
use crate::decision::{best_route, compare_routes, DecisionConfig};
use crate::fsm::{ConnectRetryConfig, Session, SessionConfig, SessionEvent};
use crate::mem::rib_memory;
use crate::message::{BgpMessage, Nlri, UpdateMessage};
use crate::policy::Policy;
use crate::provenance::{ExportVerdict, ImportVerdict, ProvenanceEvent, ProvenanceLog};
use crate::rib::{AdjRibIn, AdjRibOut, AttrInterner, LocRib, PeerId, Route, RouteSource};
use peering_netsim::{Asn, Fnv1a, Prefix, SimDuration, SimRng, SimTime, TraceId};
use peering_telemetry::Telemetry;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::ops::Range;
use std::sync::Arc;

/// Global operating mode of a speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeakerMode {
    /// Conventional BGP router.
    Normal,
    /// RFC 7947 route server: transparent AS path and next hop.
    RouteServer,
}

/// What a speaker advertises to a given peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdvertiseMode {
    /// Only the Loc-RIB best route per prefix (normal BGP).
    BestOnly,
    /// Every usable path, tagged with ADD-PATH ids (mux sessions).
    AllPaths,
}

/// Speaker-wide configuration.
#[derive(Debug, Clone)]
pub struct SpeakerConfig {
    /// Our ASN.
    pub asn: Asn,
    /// Our router id (also used as next-hop-self address).
    pub router_id: Ipv4Addr,
    /// Operating mode.
    pub mode: SpeakerMode,
    /// Decision-process tunables.
    pub decision: DecisionConfig,
    /// Route-flap damping applied to routes learned from peers.
    pub damping: Option<DampingConfig>,
    /// Share identical attribute sets across RIB entries.
    pub intern_attrs: bool,
    /// Proposed hold time for sessions.
    pub hold_time: SimDuration,
    /// Automatic reconnection after session loss. Each peer session gets
    /// its own deterministic jitter stream forked from this seed.
    pub connect_retry: Option<ConnectRetryConfig>,
    /// MRAI-style update packing (RFC 4271 §9.2.1.1, simplified to a
    /// per-peer batch timer): export deltas are staged per peer and
    /// flushed as packed multi-NLRI UPDATEs when the interval expires.
    /// `None` (the default) emits every delta immediately, which is the
    /// historical behaviour every golden is pinned to.
    pub mrai: Option<SimDuration>,
    /// Peer-group export engine: peers whose export-relevant config
    /// (export policy, advertise mode, session class) matches share one
    /// staged export computation and one copy-on-write Adj-RIB-Out base.
    /// Disabling forces every peer into a solo group — the naive
    /// per-peer-copy reference the grouped engine is pinned against.
    pub export_groups: bool,
    /// RFC 7947 route-server member blocks handled in the engine: a
    /// source route tagged `0:<low16(member ASN)>` is withheld from that
    /// member as a per-member delta on the shared group computation
    /// (instead of forcing a per-member export policy, which would
    /// defeat grouping). Only meaningful in route-server mode.
    pub rs_member_blocks: bool,
}

impl SpeakerConfig {
    /// A normal router.
    pub fn new(asn: Asn, router_id: Ipv4Addr) -> Self {
        SpeakerConfig {
            asn,
            router_id,
            mode: SpeakerMode::Normal,
            decision: DecisionConfig::default(),
            damping: None,
            intern_attrs: true,
            hold_time: SimDuration::from_secs(90),
            connect_retry: None,
            mrai: None,
            export_groups: true,
            rs_member_blocks: false,
        }
    }

    /// Enable MRAI-style update packing with the given interval.
    pub fn with_mrai(mut self, interval: SimDuration) -> Self {
        self.mrai = Some(interval);
        self
    }

    /// Enable automatic reconnection with backed-off retries.
    pub fn with_connect_retry(mut self, retry: ConnectRetryConfig) -> Self {
        self.connect_retry = Some(retry);
        self
    }

    /// Switch to route-server mode.
    pub fn route_server(mut self) -> Self {
        self.mode = SpeakerMode::RouteServer;
        self
    }

    /// Enable flap damping.
    pub fn with_damping(mut self, cfg: DampingConfig) -> Self {
        self.damping = Some(cfg);
        self
    }

    /// Disable attribute interning (Figure 2 ablation).
    pub fn without_interning(mut self) -> Self {
        self.intern_attrs = false;
        self
    }

    /// Disable the peer-group export engine: every peer computes and
    /// stores its own Adj-RIB-Out (the naive per-peer-copy reference).
    pub fn without_export_groups(mut self) -> Self {
        self.export_groups = false;
        self
    }

    /// Handle RFC 7947 `0:<member>` block communities in the engine as
    /// per-member deltas on the shared export group (route-server mode).
    pub fn with_rs_member_blocks(mut self) -> Self {
        self.rs_member_blocks = true;
        self
    }
}

/// Identifier of an export peer-group. Peers sharing a key share one
/// staged export computation and one copy-on-write Adj-RIB-Out base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExportGroupKey(pub u64);

impl ExportGroupKey {
    /// Bit tagging keys of solo (ungrouped) peers, keeping them disjoint
    /// from the auto-derived hash space (which clears this bit).
    const SOLO_BIT: u64 = 1 << 63;

    /// The dedicated single-member key for a peer that opted out of
    /// grouping (or was split out, e.g. by containment quarantine).
    pub fn solo(peer: PeerId) -> Self {
        ExportGroupKey(Self::SOLO_BIT | u64::from(peer.0))
    }

    /// True for keys minted by [`solo`](Self::solo).
    pub fn is_solo(self) -> bool {
        self.0 & Self::SOLO_BIT != 0
    }
}

/// How a peer is assigned to an export peer-group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportGrouping {
    /// Derive the group from the peer's export-relevant configuration:
    /// peers with equal export policy, advertise mode and session class
    /// share a group automatically.
    #[default]
    Auto,
    /// Join exactly this group. The peer's export-relevant config must
    /// match the group's; a mismatch splits the peer to a fresh key
    /// rather than silently corrupting the shared base.
    Key(ExportGroupKey),
    /// Never share: a dedicated group holding only this peer.
    Solo,
}

/// Low 16 bits of an ASN — the encoding used in `0:<asn>` operator
/// communities (route-server member blocks, RFC 7947 style).
fn as16(asn: Asn) -> u16 {
    (asn.0 & 0xFFFF) as u16
}

/// Per-session prefix-count limits (RFC 4486 §4 "maximum number of
/// prefixes reached").
///
/// Crossing `warn` raises a one-shot telemetry warning; exceeding
/// `limit` answers with a Cease NOTIFICATION, flushes the peer's
/// Adj-RIB-In (graceful restart is deliberately bypassed — retaining a
/// flooder's paths would preserve the very table pressure the limit
/// exists to shed), and serves an `idle_hold` penalty before the
/// session re-establishes on its own.
#[derive(Debug, Clone, Copy)]
pub struct MaxPrefixConfig {
    /// Soft threshold: warn (once per session) at this many prefixes.
    pub warn: usize,
    /// Hard limit: tear the session down above this many prefixes.
    pub limit: usize,
    /// Idle-hold penalty served before automatic re-establishment.
    pub idle_hold: SimDuration,
}

impl MaxPrefixConfig {
    /// Limits with a warning threshold at 80% of `limit` and a 60 s
    /// idle-hold penalty.
    pub fn new(limit: usize) -> Self {
        MaxPrefixConfig {
            warn: limit - limit / 5,
            limit,
            idle_hold: SimDuration::from_secs(60),
        }
    }

    /// Builder: override the warning threshold.
    pub fn warn_at(mut self, warn: usize) -> Self {
        self.warn = warn;
        self
    }

    /// Builder: override the idle-hold penalty.
    pub fn idle_hold(mut self, penalty: SimDuration) -> Self {
        self.idle_hold = penalty;
        self
    }
}

/// Per-peer configuration.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Local identifier for this peer.
    pub id: PeerId,
    /// The peer's ASN.
    pub asn: Asn,
    /// Import policy (applied before Adj-RIB-In).
    pub import: Policy,
    /// Export policy (applied before Adj-RIB-Out).
    pub export: Policy,
    /// What to advertise.
    pub advertise: AdvertiseMode,
    /// Whether we wait for the peer to open the session.
    pub passive: bool,
    /// IGP cost to this peer's next hop (decision-process input).
    pub igp_cost: u32,
    /// This iBGP peer is a route-reflector client of ours (RFC 4456).
    /// The paper's Figure 2 discussion leans on exactly this: "route
    /// reflectors and MPLS backbones mean that many internal routers do
    /// not carry multiple copies of the full table."
    pub rr_client: bool,
    /// RFC 4724 graceful restart: on session loss, keep this peer's paths
    /// as stale (still forwarding) for this long, sweeping whatever was
    /// not re-announced once the peer signals End-of-RIB.
    pub graceful_restart: Option<SimDuration>,
    /// Per-session prefix-count limits; `None` disables enforcement.
    pub max_prefix: Option<MaxPrefixConfig>,
    /// Export peer-group assignment (see [`ExportGrouping`]).
    pub grouping: ExportGrouping,
    /// Administrative state. A disabled peer keeps its configuration but
    /// [`Speaker::start_peer`] is a no-op until it is re-enabled — this
    /// is what lets a daemon restart bring back *configured* sessions
    /// without resurrecting ones an operator (or a migration plan) has
    /// deliberately torn down.
    pub enabled: bool,
}

impl PeerConfig {
    /// A plain eBGP/iBGP peer with accept-all policies.
    pub fn new(id: PeerId, asn: Asn) -> Self {
        PeerConfig {
            id,
            asn,
            import: Policy::accept_all(),
            export: Policy::accept_all(),
            advertise: AdvertiseMode::BestOnly,
            passive: false,
            igp_cost: 0,
            rr_client: false,
            graceful_restart: None,
            max_prefix: None,
            grouping: ExportGrouping::Auto,
            enabled: true,
        }
    }

    /// Builder: register the peer administratively down (see
    /// [`PeerConfig::enabled`]).
    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }

    /// Builder: import policy.
    pub fn import(mut self, p: Policy) -> Self {
        self.import = p;
        self
    }

    /// Builder: export policy.
    pub fn export(mut self, p: Policy) -> Self {
        self.export = p;
        self
    }

    /// Builder: passive endpoint.
    pub fn passive(mut self) -> Self {
        self.passive = true;
        self
    }

    /// Builder: advertise all paths (ADD-PATH mux session).
    pub fn all_paths(mut self) -> Self {
        self.advertise = AdvertiseMode::AllPaths;
        self
    }

    /// Builder: IGP cost toward this peer.
    pub fn igp_cost(mut self, cost: u32) -> Self {
        self.igp_cost = cost;
        self
    }

    /// Builder: mark this iBGP peer as a route-reflector client.
    pub fn rr_client(mut self) -> Self {
        self.rr_client = true;
        self
    }

    /// Builder: retain this peer's paths as stale across restarts.
    pub fn graceful_restart(mut self, restart_time: SimDuration) -> Self {
        self.graceful_restart = Some(restart_time);
        self
    }

    /// Builder: enforce per-session prefix-count limits.
    pub fn with_max_prefix(mut self, mp: MaxPrefixConfig) -> Self {
        self.max_prefix = Some(mp);
        self
    }

    /// Builder: join a specific export peer-group.
    pub fn export_group(mut self, key: ExportGroupKey) -> Self {
        self.grouping = ExportGrouping::Key(key);
        self
    }

    /// Builder: opt out of export grouping — this peer always gets its
    /// own Adj-RIB-Out.
    pub fn export_solo(mut self) -> Self {
        self.grouping = ExportGrouping::Solo;
        self
    }
}

/// Events a speaker surfaces to its owner.
#[derive(Debug, Clone, PartialEq)]
pub enum SpeakerEvent {
    /// A session reached Established.
    PeerUp(PeerId),
    /// A session went down.
    PeerDown(PeerId, String),
    /// The best route for a prefix changed (None = no longer reachable).
    BestChanged {
        /// Affected prefix.
        prefix: Prefix,
        /// The new best route, if any.
        new: Option<Route>,
    },
    /// Damping suppressed a flapping route from a peer.
    Suppressed(PeerId, Prefix),
    /// A route was rejected on import (policy or loop).
    ImportRejected(PeerId, Prefix),
}

/// A speaker's outputs: messages to deliver and events for the owner.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Send a message to a peer.
    Send(PeerId, BgpMessage),
    /// Surface an event.
    Event(SpeakerEvent),
}

/// Graceful-restart bookkeeping: which Adj-RIB-In entries survive from
/// before the session loss, and when retention gives up.
struct StaleState {
    /// When the restart timer flushes whatever is still stale.
    deadline: SimTime,
    /// `(prefix, path_id)` entries retained from the old session.
    keys: BTreeSet<(Prefix, u32)>,
}

/// One staged export delta awaiting an MRAI flush. Keyed by [`Nlri`] in
/// `PeerState::pending`, so a later delta for the same NLRI supersedes an
/// earlier one — packing never changes the peer's final state, only how
/// many UPDATE messages carry it.
#[derive(Debug, Clone)]
enum PendingDelta {
    /// Withdraw the NLRI.
    Withdraw {
        /// Provenance cause of the withdrawal.
        trace: Option<TraceId>,
    },
    /// Announce the NLRI with these (already exported) attributes.
    Announce {
        /// Attributes as they will appear on the wire.
        attrs: Arc<PathAttributes>,
        /// Provenance id of the announcement.
        trace: Option<TraceId>,
    },
}

/// The export-relevant slice of a peer's configuration: two peers share
/// a staged export computation (and a COW Adj-RIB-Out base) exactly when
/// these match. Equality is verified structurally on every group join —
/// the hash only picks the slot, it never decides sharing by itself.
#[derive(Debug, Clone, PartialEq)]
struct GroupFingerprint {
    export: Policy,
    advertise: AdvertiseMode,
    /// Session class: iBGP (peer ASN == ours) vs eBGP changes the export
    /// transforms and reflection rules.
    ibgp: bool,
    rr_client: bool,
}

impl GroupFingerprint {
    fn of(cfg: &SpeakerConfig, peer: &PeerConfig) -> Self {
        GroupFingerprint {
            export: peer.export.clone(),
            advertise: peer.advertise,
            ibgp: peer.asn == cfg.asn,
            rr_client: peer.rr_client,
        }
    }
}

/// One export peer-group: the members sharing a staged export
/// computation and the group's copy-on-write Adj-RIB-Out base. The base
/// holds the *group-level* export result (before per-member split
/// horizon / loop / member-block deltas); each member's sent state is
/// `base ∖ mask` (see `PeerState::mask`), so a member whose view is
/// identical to the group's costs no route copies at all.
struct ExportGroup {
    fingerprint: GroupFingerprint,
    /// No match of the export policy reads the prefix
    /// ([`Policy::is_prefix_free`]), so what the group makes of a source
    /// route depends on the route's attributes and learning peer only and
    /// can be shared by every prefix carrying them (see [`StageMemo`]).
    export_prefix_free: bool,
    members: BTreeSet<PeerId>,
    base: AdjRibOut,
}

/// Group-level outcome for one source route in a staged export.
enum StagedOutcome {
    /// Exported by the group computation (policy applied, attributes
    /// transformed and interned). Per-member deltas may still withhold it.
    Export(Route),
    /// Rejected at group level (same verdict for every member).
    Reject(ExportVerdict),
}

/// One source route's staged export, retaining what the per-member
/// delta checks (split horizon, sender-side loop, RS member blocks) and
/// per-member provenance records need from the *source* route.
struct StagedEntry {
    source_peer: PeerId,
    source_attrs: Arc<PathAttributes>,
    source_trace: Option<TraceId>,
    outcome: StagedOutcome,
}

impl StagedEntry {
    /// The route the group exports for this source, if it exports one.
    fn exported(&self) -> Option<&Route> {
        match &self.outcome {
            StagedOutcome::Export(route) => Some(route),
            StagedOutcome::Reject(_) => None,
        }
    }
}

/// The group-level exported routes of a staged prefix: the group's next
/// base for it.
fn base_routes(staged: &[StagedEntry]) -> impl Iterator<Item = &Route> + Clone {
    staged.iter().filter_map(StagedEntry::exported)
}

/// What a group makes of one source attribute set: the exported
/// attributes, interned, or the group-level rejection.
type StagedAttrs = Result<Arc<PathAttributes>, ExportVerdict>;

/// Staged outcomes of groups whose export policy reads no prefix, keyed by
/// (source attribute allocation, learning peer, group). The table lives
/// for one engine call ([`Speaker::reconsider_with`] or a member resync)
/// and is emptied before the call returns: the Adj-RIB-Ins and local
/// routes that own the source allocations are not touched while it
/// exists, and each entry holds its source `Arc` besides, so a key cannot
/// come to name a different attribute set; nothing is left behind for
/// [`AttrInterner::gc`] to trip over, and nothing ever needs invalidating.
/// Lookup only, never iterated.
type StageMemo = HashMap<(usize, PeerId, ExportGroupKey), (Arc<PathAttributes>, StagedAttrs)>;

/// One export group with an established member, as one engine call sees
/// it. Sessions and sync flags do not move while prefixes are being
/// re-exported, so this is read from the peers once per call.
struct LiveGroup {
    key: ExportGroupKey,
    all_paths: bool,
    /// Established members.
    members: u64,
    /// A member is synced: the group's base is live and follows routing
    /// changes.
    synced: bool,
    /// Staged for the prefix in hand.
    staged_now: bool,
    /// This group's entries in [`Staging::staged`] and
    /// [`Staging::sent`] for the prefix in hand.
    staged: Range<usize>,
    sent: Range<usize>,
}

/// Working memory of the staging half of the export engine.
#[derive(Default)]
struct Staging {
    /// Staged exports of the prefix in hand, group after group; within a
    /// group every source route in deterministic (best-first) order.
    staged: Vec<StagedEntry>,
    /// What each staged group's base held for the prefix before the change.
    sent: SentPaths,
    /// Source routes of an AllPaths group while they are sorted.
    sources: Vec<Route>,
    memo: StageMemo,
}

/// Reusable working memory of the export engine. An engine call takes it
/// out of the [`Speaker`] and puts it back emptied, so it can be borrowed
/// next to the Speaker's tables; only capacity survives a call.
#[derive(Default)]
struct ExportScratch {
    /// Groups with an established member, in key order.
    live: Vec<LiveGroup>,
    staging: Staging,
    /// Per staged entry, what it means for the member in hand.
    verdicts: Vec<MemberPath>,
}

impl ExportScratch {
    /// Drop every `Arc` the call left in the scratch.
    fn clear(&mut self) {
        self.live.clear();
        let st = &mut self.staging;
        st.staged.clear();
        st.sent.clear();
        st.memo.clear();
    }
}

/// A staged entry as one member sees it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MemberPath {
    /// Not for this member (group-level reject or per-member delta).
    Withheld,
    /// Desired and already held with equal attributes.
    Unchanged,
    /// Desired and new or changed: announce it.
    Announce,
}

struct PeerState {
    cfg: PeerConfig,
    session: Session,
    adj_in: AdjRibIn,
    /// The export peer-group this peer currently belongs to.
    group: ExportGroupKey,
    /// Per-member delta vs the group base: `(prefix -> path ids)` present
    /// in the base but withheld from this peer (split horizon, sender-side
    /// loop, RS member block). Empty for a member with the group's
    /// identical view — which is what makes marginal tenants O(1).
    mask: BTreeMap<Prefix, BTreeSet<u32>>,
    /// Whether this peer's sent state is represented by `base ∖ mask`.
    /// False before the initial table sync and after any session loss or
    /// refresh; the group base only reflects peers that are synced.
    synced: bool,
    damping: DampingState,
    /// Suppressed (damped) prefixes learned from this peer.
    suppressed: BTreeSet<Prefix>,
    /// Present while the peer is in a graceful-restart window.
    stale: Option<StaleState>,
    /// The max-prefix warning threshold already fired this session.
    max_prefix_warned: bool,
    /// Staged export deltas (MRAI packing); empty when `cfg.mrai` is off.
    pending: BTreeMap<Nlri, PendingDelta>,
    /// When the pending batch flushes; `None` when nothing is staged.
    mrai_deadline: Option<SimTime>,
}

impl PeerState {
    /// Whether this peer's mask withholds `route` (a route of its group's
    /// base) from its view.
    fn withholds(&self, route: &Route) -> bool {
        self.mask
            .get(&route.prefix)
            .is_some_and(|ids| ids.contains(&route.path_id))
    }

    /// Drop what `nlri` names from the Adj-RIB-In — one path when it
    /// carries an ADD-PATH id, every path of the prefix otherwise — and
    /// with it the matching graceful-restart stale keys, so the sweep at
    /// End-of-RIB never revisits it. True if a route was removed.
    fn remove_learned(&mut self, nlri: &Nlri) -> bool {
        let removed = match nlri.path_id {
            Some(id) => self.adj_in.remove(&nlri.prefix, id).is_some(),
            None => !self.adj_in.remove_prefix(&nlri.prefix).is_empty(),
        };
        if let Some(st) = &mut self.stale {
            match nlri.path_id {
                Some(id) => {
                    st.keys.remove(&(nlri.prefix, id));
                }
                None => st.keys.retain(|(p, _)| p != &nlri.prefix),
            }
        }
        removed
    }
}

/// The paths of one prefix a member has been sent: `(path id, attributes
/// as they went on the wire)`.
type SentPaths = Vec<(u32, Arc<PathAttributes>)>;

/// A complete BGP router.
pub struct Speaker {
    cfg: SpeakerConfig,
    peers: BTreeMap<PeerId, PeerState>,
    /// Export peer-groups, keyed by [`ExportGroupKey`]. Every configured
    /// peer belongs to exactly one group; solo peers get a private one.
    groups: BTreeMap<ExportGroupKey, ExportGroup>,
    loc_rib: LocRib,
    local_routes: BTreeMap<Prefix, Arc<PathAttributes>>,
    interner: AttrInterner,
    /// Count of UPDATE messages emitted.
    pub updates_sent: u64,
    /// Count of UPDATE messages processed.
    pub updates_received: u64,
    /// Telemetry sink (disabled unless attached; see
    /// [`set_telemetry`](Self::set_telemetry)).
    telemetry: Telemetry,
    /// Provenance sink (disabled unless attached; see
    /// [`set_provenance`](Self::set_provenance)).
    provenance: ProvenanceLog,
    /// Next per-origin sequence number for minted [`TraceId`]s. Minting is
    /// unconditional and deterministic so attaching a provenance log never
    /// changes the ids (or anything else) a run produces.
    origin_seq: u32,
    /// Trace id of the live origination for each locally originated prefix.
    local_traces: BTreeMap<Prefix, TraceId>,
    /// Sim-time each peer's session was last started, for convergence
    /// measurement (cleared once Established is observed).
    session_started: BTreeMap<PeerId, SimTime>,
    /// Working memory of the export engine (see [`ExportScratch`]),
    /// allocated by the first engine call: a speaker that never exports
    /// pays a pointer for it.
    scratch: Option<Box<ExportScratch>>,
}

impl Speaker {
    /// Create a speaker with no peers.
    pub fn new(cfg: SpeakerConfig) -> Self {
        let interner = if cfg.intern_attrs {
            AttrInterner::new()
        } else {
            AttrInterner::disabled()
        };
        Speaker {
            cfg,
            peers: BTreeMap::new(),
            groups: BTreeMap::new(),
            loc_rib: LocRib::new(),
            local_routes: BTreeMap::new(),
            interner,
            updates_sent: 0,
            updates_received: 0,
            telemetry: Telemetry::disabled(),
            provenance: ProvenanceLog::disabled(),
            origin_seq: 0,
            local_traces: BTreeMap::new(),
            session_started: BTreeMap::new(),
            scratch: None,
        }
    }

    /// Attach a telemetry handle. All metrics land under `bgp.*`; the
    /// default handle is disabled, so un-instrumented use is free.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Attach a provenance log. Recording is observational only: trace
    /// ids are minted whether or not a log is attached, so behaviour is
    /// bit-identical either way.
    pub fn set_provenance(&mut self, provenance: ProvenanceLog) {
        self.provenance = provenance;
    }

    /// Record an FSM state change on `peer`'s session between two
    /// externally observable points.
    fn note_fsm_transition(&self, before: crate::fsm::FsmState, after: crate::fsm::FsmState) {
        use crate::fsm::FsmState;
        if before == after || !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.counter_inc("bgp.fsm.transitions");
        let to = match after {
            FsmState::Idle => "bgp.fsm.to_idle",
            FsmState::Connect => "bgp.fsm.to_connect",
            FsmState::OpenSent => "bgp.fsm.to_open_sent",
            FsmState::OpenConfirm => "bgp.fsm.to_open_confirm",
            FsmState::Established => "bgp.fsm.to_established",
        };
        self.telemetry.counter_inc(to);
    }

    /// Refresh the Loc-RIB size gauge after a decision run.
    fn note_rib_gauges(&self) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .gauge_set("bgp.rib.loc_rib_routes", self.loc_rib.len() as i64);
        }
    }

    /// Our ASN.
    pub fn asn(&self) -> Asn {
        self.cfg.asn
    }

    /// The speaker configuration.
    pub fn config(&self) -> &SpeakerConfig {
        &self.cfg
    }

    /// The Loc-RIB.
    pub fn loc_rib(&self) -> &LocRib {
        &self.loc_rib
    }

    /// Peer ids currently configured.
    pub fn peer_ids(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.peers.keys().copied()
    }

    /// Number of configured peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// The configured ASN of a peer.
    pub fn peer_asn(&self, peer: PeerId) -> Option<Asn> {
        self.peers.get(&peer).map(|p| p.cfg.asn)
    }

    /// The Adj-RIB-In for a peer.
    pub fn adj_rib_in(&self, peer: PeerId) -> Option<&AdjRibIn> {
        self.peers.get(&peer).map(|p| &p.adj_in)
    }

    /// The Adj-RIB-Out for a peer, materialized from the peer's export
    /// group: the group's copy-on-write base minus this peer's mask.
    /// Entries share attribute `Arc`s with the base, so the copy is
    /// route-struct-deep only.
    pub fn adj_rib_out(&self, peer: PeerId) -> Option<AdjRibOut> {
        let state = self.peers.get(&peer)?;
        let mut rib = AdjRibOut::new();
        if !state.synced {
            return Some(rib);
        }
        if let Some(g) = self.groups.get(&state.group) {
            for route in g.base.iter().filter(|r| !state.withholds(r)) {
                rib.insert(route.clone());
            }
        }
        Some(rib)
    }

    /// The export peer-group a peer currently belongs to.
    pub fn export_group_of(&self, peer: PeerId) -> Option<ExportGroupKey> {
        self.peers.get(&peer).map(|p| p.group)
    }

    /// Number of members in an export peer-group (0 if unknown).
    pub fn export_group_len(&self, key: ExportGroupKey) -> usize {
        self.groups.get(&key).map(|g| g.members.len()).unwrap_or(0)
    }

    /// Whether the session with a peer is established.
    pub fn peer_established(&self, peer: PeerId) -> bool {
        self.peers
            .get(&peer)
            .map(|p| p.session.is_established())
            .unwrap_or(false)
    }

    /// Total BGP table memory (all RIBs, attributes shared-once). Each
    /// export group's Adj-RIB-Out base is charged once no matter how many
    /// members share it; members additionally pay only for their masks —
    /// which is exactly the marginal-memory argument the mux-scale bench
    /// measures.
    pub fn table_memory(&self) -> usize {
        use crate::mem::BTREE_ENTRY_OVERHEAD;
        let ins = self.peers.values().map(|p| &p.adj_in);
        let bases = self.groups.values().map(|g| &g.base);
        let mut total = rib_memory(ins.chain(bases), Some(&self.loc_rib));
        for p in self.peers.values() {
            total += p.mask.len() * (std::mem::size_of::<Prefix>() + BTREE_ENTRY_OVERHEAD);
            for ids in p.mask.values() {
                total += ids.len() * (std::mem::size_of::<u32>() + BTREE_ENTRY_OVERHEAD);
            }
        }
        total
    }

    /// Register a peer. The session starts in Idle; call
    /// [`start_peer`](Self::start_peer) to bring it up.
    pub fn add_peer(&mut self, cfg: PeerConfig) {
        let add_path = cfg.advertise == AdvertiseMode::AllPaths;
        let mut scfg = SessionConfig::new(self.cfg.asn, self.cfg.router_id)
            .expect_peer(cfg.asn)
            .add_path(add_path, true);
        scfg.hold_time = self.cfg.hold_time;
        if cfg.passive {
            scfg = scfg.passive();
        }
        if let Some(retry) = self.cfg.connect_retry.clone() {
            // Fork the jitter stream per peer so concurrent retries from
            // one speaker do not synchronise.
            let seed = SimRng::new(retry.seed)
                .fork(&format!("connect-retry/{}", cfg.id.0))
                .seed();
            scfg = scfg.with_connect_retry(ConnectRetryConfig { seed, ..retry });
        }
        if let Some(rt) = cfg.graceful_restart {
            scfg = scfg.graceful_restart(rt.as_micros().div_euclid(1_000_000).min(4095) as u16);
        }
        // Re-adding an existing peer replaces it: detach the old group
        // membership before resolving the (possibly different) new one.
        if let Some(old) = self.peers.get(&cfg.id) {
            let old_key = old.group;
            self.detach_from_group(cfg.id, old_key);
        }
        let group = self.resolve_group(&cfg);
        let state = PeerState {
            session: Session::new(scfg),
            adj_in: AdjRibIn::new(),
            group,
            mask: BTreeMap::new(),
            synced: false,
            damping: DampingState::new(),
            suppressed: BTreeSet::new(),
            stale: None,
            max_prefix_warned: false,
            pending: BTreeMap::new(),
            mrai_deadline: None,
            cfg,
        };
        self.peers.insert(state.cfg.id, state);
    }

    /// Remove a peer entirely, rerunning decisions for its routes.
    pub fn remove_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        // Take the session down like any other loss (Cease, `PeerDown`,
        // FSM accounting), then drop the configuration.
        let mut out = self.stop_peer(peer, now);
        let Some(mut state) = self.peers.remove(&peer) else {
            return out;
        };
        self.detach_from_group(peer, state.group);
        // Graceful restart kept the paths as stale; a removed peer's go now.
        let affected = state.adj_in.clear();
        self.reconsider(&affected, now, &mut out);
        out
    }

    /// Resolve the export group for a peer config and register the peer
    /// as a member, creating the group on first use. Sharing is decided
    /// by structural fingerprint equality — the hash only picks the slot;
    /// on a collision (or an explicit key whose config does not match)
    /// the peer probes to the next free slot instead of sharing.
    fn resolve_group(&mut self, peer: &PeerConfig) -> ExportGroupKey {
        let fp = GroupFingerprint::of(&self.cfg, peer);
        let grouping = if self.cfg.export_groups {
            peer.grouping
        } else {
            ExportGrouping::Solo
        };
        let mut key = match grouping {
            ExportGrouping::Solo => ExportGroupKey::solo(peer.id),
            ExportGrouping::Key(k) => k,
            ExportGrouping::Auto => {
                // FNV-1a over the fingerprint's canonical debug form:
                // deterministic across runs and platforms.
                let h = Fnv1a::legacy().write(format!("{fp:?}").as_bytes()).finish();
                ExportGroupKey(h & !ExportGroupKey::SOLO_BIT)
            }
        };
        loop {
            match self.groups.get_mut(&key) {
                None => {
                    self.groups.insert(
                        key,
                        ExportGroup {
                            export_prefix_free: fp.export.is_prefix_free(),
                            fingerprint: fp,
                            members: BTreeSet::from([peer.id]),
                            base: AdjRibOut::new(),
                        },
                    );
                    return key;
                }
                Some(g) if g.fingerprint == fp => {
                    g.members.insert(peer.id);
                    return key;
                }
                Some(_) => {
                    key = ExportGroupKey(key.0.wrapping_add(1) & !ExportGroupKey::SOLO_BIT);
                }
            }
        }
    }

    /// Drop a peer's membership in a group, deleting the group when it
    /// empties and clearing its base when no synced member remains.
    fn detach_from_group(&mut self, id: PeerId, key: ExportGroupKey) {
        let drop_group = match self.groups.get_mut(&key) {
            Some(g) => {
                g.members.remove(&id);
                g.members.is_empty()
            }
            None => false,
        };
        if drop_group {
            self.groups.remove(&key);
        } else {
            self.maybe_clear_base(key);
        }
    }

    /// Clear a group's base if none of its members is synced: the base
    /// only represents state that has actually been sent to someone.
    fn maybe_clear_base(&mut self, key: ExportGroupKey) {
        if !self.group_synced(key, None) {
            if let Some(g) = self.groups.get_mut(&key) {
                let _ = g.base.clear();
            }
        }
    }

    /// Whether any member of the group other than `except` is synced,
    /// i.e. whether someone keeps the group's base live.
    fn group_synced(&self, key: ExportGroupKey, except: Option<PeerId>) -> bool {
        self.groups.get(&key).is_some_and(|g| {
            g.members
                .iter()
                .any(|m| Some(*m) != except && self.peers.get(m).is_some_and(|p| p.synced))
        })
    }

    /// Forget a peer's sent state: it no longer participates in the group
    /// base (session loss, refresh, restart). The next full table sync
    /// rebuilds it.
    fn unsync_peer(&mut self, id: PeerId) {
        let Some(state) = self.peers.get_mut(&id) else {
            return;
        };
        state.synced = false;
        state.mask.clear();
        let key = state.group;
        self.maybe_clear_base(key);
    }

    /// Start (or restart) the session with a peer. A no-op while the
    /// peer is administratively disabled (see [`PeerConfig::enabled`]).
    pub fn start_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        if !self.peers.get(&peer).is_some_and(|s| s.cfg.enabled) {
            return Vec::new();
        }
        self.session_started.insert(peer, now);
        let mut out = Vec::new();
        self.drive_session(peer, now, &mut out, |s| (s.start(now), Vec::new()));
        out
    }

    /// Administratively stop the session with a peer.
    pub fn stop_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.drive_session(peer, now, &mut out, |s| s.stop(now));
        out
    }

    /// The one way a session is driven: run `drive` on `peer`'s session,
    /// queue the messages it wants sent, apply the events it surfaced
    /// (table sync, RIB flush, UPDATE processing) and record the FSM
    /// transition. Every entry point that can move a session — messages,
    /// timers, administrative stop, transport faults — comes through
    /// here, so none can forget a step. Unknown peers are ignored.
    fn drive_session(
        &mut self,
        peer: PeerId,
        now: SimTime,
        out: &mut Vec<Output>,
        drive: impl FnOnce(&mut Session) -> (Vec<BgpMessage>, Vec<SessionEvent>),
    ) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let before = state.session.state();
        let (msgs, events) = drive(&mut state.session);
        if out.is_empty() {
            // The common result is a message or two and no events: size
            // for exactly that rather than the amortized minimum.
            out.reserve_exact(msgs.len());
        }
        out.extend(msgs.into_iter().map(|m| Output::Send(peer, m)));
        for ev in events {
            self.handle_session_event(peer, ev, now, out);
        }
        if let Some(state) = self.peers.get(&peer) {
            self.note_fsm_transition(before, state.session.state());
        }
    }

    /// Debug builds re-check cross-structure consistency after every
    /// externally driven mutation.
    fn debug_check(&self, after: &str) {
        debug_assert_eq!(
            self.check_invariants(),
            Ok(()),
            "speaker invariant violated after {after}"
        );
    }

    /// Flip a peer's administrative state. Disabling stops the session
    /// (Cease) and pins it down: retries never arm and
    /// [`start_peer`](Self::start_peer) no-ops, so even a full daemon
    /// restart leaves the session torn down until it is re-enabled.
    /// Enabling restores normal operation and starts the session.
    pub fn set_peer_enabled(&mut self, peer: PeerId, enabled: bool, now: SimTime) -> Vec<Output> {
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        if state.cfg.enabled == enabled {
            return Vec::new();
        }
        state.cfg.enabled = enabled;
        if enabled {
            self.start_peer(peer, now)
        } else {
            self.stop_peer(peer, now)
        }
    }

    /// Originate a prefix with default attributes.
    pub fn originate(&mut self, prefix: Prefix, now: SimTime) -> Vec<Output> {
        self.originate_with(prefix, Vec::new(), now)
    }

    /// Originate a prefix carrying the given communities.
    pub fn originate_with(
        &mut self,
        prefix: Prefix,
        communities: Vec<Community>,
        now: SimTime,
    ) -> Vec<Output> {
        let mut attrs = PathAttributes::originate(self.cfg.router_id);
        for c in communities {
            attrs.add_community(c);
        }
        let attrs = self.interner.intern(attrs);
        self.local_routes.insert(prefix, attrs);
        let trace = self.mint_trace();
        self.local_traces.insert(prefix, trace);
        self.provenance.record(
            now,
            self.cfg.asn,
            ProvenanceEvent::Originated {
                prefix,
                trace,
                withdraw: false,
            },
        );
        let mut out = Vec::new();
        self.reconsider_with(&[prefix], now, Some(trace), &mut out);
        out
    }

    /// Withdraw a locally originated prefix.
    pub fn withdraw_origin(&mut self, prefix: Prefix, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        if self.local_routes.remove(&prefix).is_some() {
            self.local_traces.remove(&prefix);
            let trace = self.mint_trace();
            self.provenance.record(
                now,
                self.cfg.asn,
                ProvenanceEvent::Originated {
                    prefix,
                    trace,
                    withdraw: true,
                },
            );
            self.reconsider_with(&[prefix], now, Some(trace), &mut out);
        }
        out
    }

    /// Mint the next deterministic trace id for a local routing change.
    fn mint_trace(&mut self) -> TraceId {
        let trace = TraceId::new(self.cfg.asn.0, self.origin_seq);
        self.origin_seq = self.origin_seq.wrapping_add(1);
        trace
    }

    /// Locally originated prefixes.
    pub fn originated(&self) -> impl Iterator<Item = &Prefix> {
        self.local_routes.keys()
    }

    /// Process a message from a peer.
    pub fn on_message(&mut self, from: PeerId, msg: BgpMessage, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.drive_session(from, now, &mut out, |s| s.on_message(msg, now));
        self.debug_check("on_message");
        out
    }

    /// Drive timers for every peer session.
    pub fn tick(&mut self, now: SimTime) -> Vec<Output> {
        let ids: Vec<PeerId> = self.peers.keys().copied().collect();
        let mut out = Vec::new();
        for id in ids {
            self.drive_session(id, now, &mut out, |s| s.tick(now));
            let Some(state) = self.peers.get_mut(&id) else {
                continue;
            };
            // Damping release check: re-decide prefixes whose suppression
            // has decayed away.
            let mut released = Vec::new();
            if let Some(dcfg) = self.cfg.damping {
                let candidates: Vec<Prefix> = state.suppressed.iter().copied().collect();
                for p in candidates {
                    if !state.damping.is_suppressed(&p, now, &dcfg) {
                        state.suppressed.remove(&p);
                        released.push(p);
                    }
                }
            }
            let stale_expired = state.stale.as_ref().is_some_and(|st| now >= st.deadline);
            if !released.is_empty() {
                self.reconsider(&released, now, &mut out);
            }
            // Graceful-restart timer: the peer never came back (or never
            // finished re-syncing) in time, so flush its stale paths.
            if stale_expired {
                self.finish_graceful_restart(id, now, &mut out);
            }
            // MRAI timer: flush the staged batch once the interval is up
            // (read last: the re-decisions above may have armed it).
            let mrai_due = |p: &PeerState| p.mrai_deadline.is_some_and(|d| now >= d);
            if self.peers.get(&id).is_some_and(mrai_due) {
                self.flush_mrai(id, now, &mut out);
            }
        }
        self.debug_check("tick");
        out
    }

    /// The earliest time any session or graceful-restart timer needs
    /// service.
    pub fn next_deadline(&self) -> SimTime {
        self.peers
            .values()
            .map(|p| {
                let mut s = p.session.next_deadline();
                if let Some(st) = &p.stale {
                    s = s.min(st.deadline);
                }
                if let Some(d) = p.mrai_deadline {
                    s = s.min(d);
                }
                s
            })
            .min()
            .unwrap_or(SimTime::MAX)
    }

    fn handle_session_event(
        &mut self,
        peer: PeerId,
        ev: SessionEvent,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        match ev {
            SessionEvent::Established(_) => {
                if let Some(started) = self.session_started.remove(&peer) {
                    self.telemetry
                        .observe_duration("bgp.session.convergence_us", now.since(started));
                }
                self.telemetry.counter_inc("bgp.session.established");
                out.push(Output::Event(SpeakerEvent::PeerUp(peer)));
                self.full_table_to(peer, now, out);
            }
            SessionEvent::Down { reason } => {
                self.telemetry.counter_inc("bgp.session.down");
                // Forget everything sent on the dead session: drop the
                // peer out of its group's shared view.
                self.unsync_peer(peer);
                let Some(state) = self.peers.get_mut(&peer) else {
                    return;
                };
                state.suppressed.clear();
                state.max_prefix_warned = false;
                // Staged deltas are for the dead session; drop them.
                state.pending.clear();
                state.mrai_deadline = None;
                if let Some(restart_time) = state.cfg.graceful_restart {
                    // RFC 4724: mark the peer's paths stale but keep
                    // forwarding along them. A second loss inside the
                    // window keeps the original deadline so staleness
                    // stays bounded.
                    let deadline = match &state.stale {
                        Some(st) => st.deadline,
                        None => now + restart_time,
                    };
                    let keys = state.adj_in.iter().map(|r| (r.prefix, r.path_id)).collect();
                    state.stale = Some(StaleState { deadline, keys });
                    out.push(Output::Event(SpeakerEvent::PeerDown(peer, reason)));
                } else {
                    let affected = state.adj_in.clear();
                    out.push(Output::Event(SpeakerEvent::PeerDown(peer, reason)));
                    self.reconsider(&affected, now, out);
                }
            }
            SessionEvent::Update(update) => {
                self.updates_received += 1;
                self.telemetry.counter_inc("bgp.speaker.updates_in");
                self.process_update(peer, update, now, out);
            }
            SessionEvent::RefreshRequested => {
                // RFC 2918: re-advertise the whole Adj-RIB-Out. Forget
                // what was already sent so the diffing export resends it.
                self.unsync_peer(peer);
                self.full_table_to(peer, now, out);
            }
        }
    }

    fn process_update(
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
                affected.extend(state.adj_in.clear());
                ceased = true;
                state.suppressed.clear();
                state.stale = None;
                state.max_prefix_warned = false;
                state.pending.clear();
                state.mrai_deadline = None;
                telemetry.counter_inc("bgp.session.down");
                for ev in sess_events {
                    if let SessionEvent::Down { reason } = ev {
                        out.push(Output::Event(SpeakerEvent::PeerDown(from, reason)));
                    }
                }
            }
        }
        if ceased {
            self.unsync_peer(from);
        }
        affected.sort_unstable();
        affected.dedup();
        self.reconsider_with(&affected, now, cause, out);
    }

    /// End the graceful-restart window for a peer: sweep every retained
    /// path the peer did not re-announce and re-decide those prefixes.
    fn finish_graceful_restart(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        let Some(stale) = state.stale.take() else {
            return;
        };
        // The keys are ordered by prefix, so `affected` comes out sorted.
        let mut affected = Vec::new();
        for (prefix, path_id) in stale.keys {
            if state.adj_in.remove(&prefix, path_id).is_some() {
                affected.push(prefix);
            }
        }
        affected.dedup();
        self.reconsider(&affected, now, out);
    }

    /// Tear down the transport with a peer (chaos: TCP reset, link cut
    /// under the session). With retry configured the session reconnects
    /// by itself; with graceful restart the peer's paths go stale rather
    /// than vanishing.
    pub fn reset_peer(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        if !self.peers.get(&peer).is_some_and(|s| s.cfg.enabled) {
            // An administratively disabled session has no connection to
            // lose — and must not arm a reconnect.
            return Vec::new();
        }
        let mut out = Vec::new();
        self.drive_session(peer, now, &mut out, |s| {
            (Vec::new(), s.drop_connection(now))
        });
        self.debug_check("reset_peer");
        out
    }

    /// React to an unparseable message from a peer (chaos: corruption in
    /// flight): NOTIFICATION out, session down.
    pub fn on_corrupt_message(&mut self, from: PeerId, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        self.drive_session(from, now, &mut out, |s| s.on_corrupt(now));
        self.debug_check("on_corrupt_message");
        out
    }

    /// React to an UPDATE whose attributes are malformed in a way RFC
    /// 7606 classifies as recoverable: the session stays Established and
    /// the announced routes are handled as withdrawn (treat-as-withdraw)
    /// instead of answering with a NOTIFICATION. Contrast with
    /// [`on_corrupt_message`](Self::on_corrupt_message), which remains
    /// the path for unrecoverable (framing-level) corruption.
    pub fn on_malformed_update(
        &mut self,
        from: PeerId,
        update: UpdateMessage,
        now: SimTime,
    ) -> Vec<Output> {
        if self.peer_established(from) {
            self.telemetry.counter_inc("bgp.session.treat_as_withdraw");
        }
        let mut out = Vec::new();
        self.drive_session(from, now, &mut out, |s| s.on_malformed_update(update, now));
        self.debug_check("on_malformed_update");
        out
    }

    /// Replace a peer's import policy at runtime and re-filter the
    /// peer's Adj-RIB-In under it, withdrawing anything the new policy
    /// rejects. This is the quarantine lever: the containment engine
    /// swaps in a reject-all policy and every route the peer had placed
    /// is withdrawn from downstream peers.
    pub fn set_peer_import(&mut self, peer: PeerId, policy: Policy, now: SimTime) -> Vec<Output> {
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        state.cfg.import = policy;
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
        let mut out = Vec::new();
        self.reconsider(&affected, now, &mut out);
        self.debug_check("set_peer_import");
        out
    }

    /// Re-resolve a peer's export-group membership at runtime. This is
    /// the containment lever on the export side: quarantining a tenant
    /// moves it to a solo group so its churn can never touch the shared
    /// base its former group-mates still read, and parole moves it back.
    /// When the new group's fingerprint matches the old one the move is
    /// pure bookkeeping — zero UPDATEs hit the wire (the staged exports
    /// are identical, so the resync diff is empty); otherwise the peer's
    /// advertised view is re-diffed against the new group's exports and
    /// only the delta is emitted.
    pub fn set_peer_export_grouping(
        &mut self,
        peer: PeerId,
        grouping: ExportGrouping,
        now: SimTime,
    ) -> Vec<Output> {
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        state.cfg.grouping = grouping;
        self.reseat_peer_group(peer, now)
    }

    /// Swap a peer's export policy at runtime. The group fingerprint
    /// includes the export policy, so this reseats the peer into the
    /// group matching the new policy and resyncs its advertised view —
    /// the same diff-against-sent-state machinery a grouping change
    /// uses. The migration planner leans on this for policy rollouts:
    /// the swap emits exactly the routes whose export verdict changed.
    pub fn set_peer_export(&mut self, peer: PeerId, policy: Policy, now: SimTime) -> Vec<Output> {
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        state.cfg.export = policy;
        self.reseat_peer_group(peer, now)
    }

    /// Re-resolve a peer's export group after a config change and, when
    /// the group actually changes, resync the peer's advertised view by
    /// diffing against what has been sent.
    fn reseat_peer_group(&mut self, peer: PeerId, now: SimTime) -> Vec<Output> {
        let Some(state) = self.peers.get(&peer) else {
            return Vec::new();
        };
        let old_key = state.group;
        let cfg = state.cfg.clone();
        // Resolve *before* detaching: if the answer is the same group the
        // membership (and its base) must survive untouched.
        let new_key = self.resolve_group(&cfg);
        if new_key == old_key {
            return Vec::new();
        }
        self.telemetry.counter_inc("bgp.export.group_splits");
        // Snapshot what this peer has actually been sent (old base minus
        // its mask) before the detach below can clear the old base.
        let snapshot = self.adj_rib_out(peer).unwrap_or_default();
        self.detach_from_group(peer, old_key);
        let Some(state) = self.peers.get_mut(&peer) else {
            return Vec::new();
        };
        state.group = new_key;
        state.mask.clear();
        if !state.synced {
            // Nothing has been sent on this session yet; the next full
            // sync simply uses the new group.
            return Vec::new();
        }
        // Resync: recompute this peer's exports under the new group and
        // emit only the diff against the snapshot. No reject provenance
        // here — a group move is not a routing decision; only actual
        // emissions are recorded.
        let mut out = Vec::new();
        self.resync_member(peer, &snapshot, false, now, &mut out);
        self.debug_check("export-group reseat");
        out
    }

    /// Ask an established peer to re-send its table (ROUTE-REFRESH, RFC
    /// 2918). Used when lifting a quarantine: the re-filtered routes were
    /// dropped from Adj-RIB-In, so the peer must offer them again.
    pub fn request_refresh(&mut self, peer: PeerId) -> Vec<Output> {
        match self.peers.get(&peer) {
            Some(state) if state.session.is_established() => {
                vec![Output::Send(peer, BgpMessage::RouteRefresh)]
            }
            _ => Vec::new(),
        }
    }

    /// Cold restart after a crash: every session drops to Idle, all
    /// learned state is gone, only local originations survive (they live
    /// in configuration). Callers restart sessions via
    /// [`start_peer`](Self::start_peer) afterwards.
    pub fn restart(&mut self, now: SimTime) -> Vec<Output> {
        let mut out = Vec::new();
        for (id, state) in self.peers.iter_mut() {
            if state.session.is_established() {
                out.push(Output::Event(SpeakerEvent::PeerDown(
                    *id,
                    "local restart".to_string(),
                )));
            }
            state.session = Session::new(state.session.config().clone());
            let _ = state.adj_in.clear();
            state.mask.clear();
            state.synced = false;
            state.suppressed.clear();
            state.damping = DampingState::new();
            state.stale = None;
            state.max_prefix_warned = false;
            state.pending.clear();
            state.mrai_deadline = None;
        }
        // No peer is synced any more, so no group base represents sent
        // state: clear them all.
        for group in self.groups.values_mut() {
            let _ = group.base.clear();
        }
        self.loc_rib = LocRib::new();
        let locals: Vec<Prefix> = self.local_routes.keys().copied().collect();
        self.reconsider(&locals, now, &mut out);
        self.debug_check("restart");
        out
    }

    /// Re-run the decision process for `prefixes` and propagate changes.
    fn reconsider(&mut self, prefixes: &[Prefix], now: SimTime, out: &mut Vec<Output>) {
        self.reconsider_with(prefixes, now, None, out);
    }

    /// Like [`reconsider`](Self::reconsider), threading the provenance id
    /// of the routing change that triggered the re-decision (used to tag
    /// propagated withdrawals, which carry no route of their own).
    /// `prefixes` are distinct and in the order their changes are emitted.
    fn reconsider_with(
        &mut self,
        prefixes: &[Prefix],
        now: SimTime,
        cause: Option<TraceId>,
        out: &mut Vec<Output>,
    ) {
        if prefixes.is_empty() {
            return self.note_rib_gauges();
        }
        self.telemetry.counter_inc("bgp.decision.runs");
        self.telemetry
            .counter_add("bgp.decision.prefixes", prefixes.len() as u64);
        let mut scratch = self.scratch.take().unwrap_or_default();
        self.live_groups(&mut scratch.live);
        // A best path that did not move leaves every BestOnly export as it
        // is — unless a provenance log is attached, which is owed each
        // member's reject verdicts again on every re-export. AllPaths
        // groups export the losing paths too, so they never skip.
        let observed = self.provenance.is_enabled();
        for &prefix in prefixes {
            let local = local_route(&self.local_routes, &self.local_traces, &prefix, now);
            let new_best = best_route(
                candidates(&self.peers, &prefix).chain(local.as_ref()),
                &self.cfg.decision,
            );
            // `moved` is what the owner hears about; `same` is stricter:
            // not even the bookkeeping an Adj-RIB-Out shows (`learned_at`,
            // `trace`) differs, so the Loc-RIB entry and every BestOnly
            // export of it already are what redoing them would produce.
            let (moved, same) = match (self.loc_rib.get(&prefix), new_best) {
                (None, None) => (false, true),
                (Some(a), Some(b)) => {
                    let moved = !(Arc::ptr_eq(&a.attrs, &b.attrs)
                        && a.peer == b.peer
                        && a.path_id == b.path_id);
                    let same = !moved
                        && a.source == b.source
                        && a.igp_cost == b.igp_cost
                        && a.learned_at == b.learned_at
                        && a.trace == b.trace;
                    (moved, same)
                }
                _ => (true, false),
            };
            if !same {
                match new_best {
                    Some(r) => {
                        self.loc_rib.set_best(r.clone());
                    }
                    None => {
                        self.loc_rib.remove(&prefix);
                    }
                }
            }
            if moved {
                out.push(Output::Event(SpeakerEvent::BestChanged {
                    prefix,
                    new: new_best.cloned(),
                }));
            }
            self.export_prefix(&mut scratch, prefix, !same || observed, now, cause, out);
        }
        scratch.clear();
        self.scratch = Some(scratch);
        self.note_rib_gauges();
    }

    /// The export groups with an established member, in key order.
    fn live_groups(&self, live: &mut Vec<LiveGroup>) {
        live.clear();
        let established = self.peers.values().filter(|s| s.session.is_established());
        live.extend(established.map(|state| LiveGroup {
            key: state.group,
            all_paths: state.cfg.advertise == AdvertiseMode::AllPaths,
            members: 1,
            synced: state.synced,
            staged_now: false,
            staged: 0..0,
            sent: 0..0,
        }));
        live.sort_unstable_by_key(|g| g.key);
        live.dedup_by(|later, first| {
            let same_group = later.key == first.key;
            if same_group {
                first.members += later.members;
                first.synced |= later.synced;
            }
            same_group
        });
    }

    /// The staging half of the engine over this Speaker's tables.
    fn stager<'a>(&'a mut self, st: &'a mut Staging, now: SimTime) -> Stager<'a> {
        Stager {
            cfg: &self.cfg,
            peers: &self.peers,
            groups: &self.groups,
            loc_rib: &self.loc_rib,
            local_routes: &self.local_routes,
            local_traces: &self.local_traces,
            interner: &mut self.interner,
            st,
            now,
        }
    }

    /// The member half of the engine, writing to `out`, beside the peers
    /// and groups it works on.
    fn emitter<'a>(
        &'a mut self,
        verdicts: &'a mut Vec<MemberPath>,
        now: SimTime,
        out: &'a mut Vec<Output>,
    ) -> (
        Emitter<'a>,
        &'a mut BTreeMap<PeerId, PeerState>,
        &'a mut BTreeMap<ExportGroupKey, ExportGroup>,
    ) {
        let em = Emitter {
            cfg: &self.cfg,
            prov: self.provenance.is_enabled().then_some(&self.provenance),
            telemetry: &self.telemetry,
            updates_sent: &mut self.updates_sent,
            verdicts,
            now,
            out,
        };
        (em, &mut self.peers, &mut self.groups)
    }

    /// Re-export one prefix to the established peers after a routing
    /// change. Each group's export is staged once and shared by its
    /// established members; per-member work is the cheap delta filter and
    /// the wire diff against the member's view (group base minus mask),
    /// in peer-id order. Bases commit *after* the member loop so every
    /// member diffs against the pre-change state. With `best_only` false
    /// the best path did not move and only AllPaths groups take part.
    fn export_prefix(
        &mut self,
        scratch: &mut ExportScratch,
        prefix: Prefix,
        best_only: bool,
        now: SimTime,
        cause: Option<TraceId>,
        out: &mut Vec<Output>,
    ) {
        let ExportScratch {
            live,
            staging,
            verdicts,
        } = scratch;
        staging.staged.clear();
        staging.sent.clear();
        let mut stager = self.stager(staging, now);
        let (mut computed, mut shared) = (0, 0);
        for g in live.iter_mut() {
            g.staged_now = false;
            if !(best_only || g.all_paths) {
                continue;
            }
            let Some((group, staged)) = stager.stage(g.key, &prefix) else {
                continue;
            };
            g.staged = staged;
            let sent = stager.st.sent.len();
            if g.synced {
                let held = group.base.paths(&prefix);
                stager
                    .st
                    .sent
                    .extend(held.map(|r| (r.path_id, Arc::clone(&r.attrs))));
            }
            g.sent = sent..stager.st.sent.len();
            g.staged_now = true;
            computed += 1;
            shared += g.members - 1;
        }
        if computed == 0 {
            return;
        }
        self.telemetry
            .counter_add("bgp.export.group_computed", computed);
        if shared > 0 {
            self.telemetry
                .counter_add("bgp.export.group_shared", shared);
        }
        let (mut em, peers, groups) = self.emitter(verdicts, now, out);
        for state in peers.values_mut() {
            if !state.session.is_established() {
                continue;
            }
            let Ok(i) = live.binary_search_by_key(&state.group, |g| g.key) else {
                continue;
            };
            let g = &live[i];
            if !g.staged_now {
                continue;
            }
            // Nothing counts as sent until the initial table sync is done.
            let sent: &[_] = if state.synced {
                &staging.sent[g.sent.clone()]
            } else {
                &[]
            };
            let staged = &staging.staged[g.staged.clone()];
            em.export_to_member(state, prefix, staged, sent, true, cause);
        }
        // The base only ever holds what has been sent to someone, so a
        // routing change moves it exactly when a member is synced.
        for g in live.iter().filter(|g| g.staged_now && g.synced) {
            if let Some(group) = groups.get_mut(&g.key) {
                let staged = &staging.staged[g.staged.clone()];
                group.base.set_prefix(&prefix, base_routes(staged));
            }
        }
    }

    /// Bring `peer`'s advertised view in line with its group's exports,
    /// prefix by prefix, against what it holds in `sent`: nothing at an
    /// initial table sync ([`full_table_to`](Self::full_table_to)), the
    /// pre-move snapshot at a group reseat. The member joins the group's
    /// shared view: the walk fills the base only when no *other* member
    /// keeps it live; otherwise the base is already authoritative and the
    /// staged computation must agree with it.
    fn resync_member(
        &mut self,
        peer: PeerId,
        sent: &AdjRibOut,
        record_rejects: bool,
        now: SimTime,
        out: &mut Vec<Output>,
    ) {
        let Some(key) = self.peers.get(&peer).map(|s| s.group) else {
            return;
        };
        let mut prefixes = self.known_prefixes();
        prefixes.extend(sent.prefixes().copied());
        if prefixes.is_empty() {
            return;
        }
        let others_synced = self.group_synced(key, Some(peer));
        let mut scratch = self.scratch.take().unwrap_or_default();
        let ExportScratch {
            staging, verdicts, ..
        } = &mut *scratch;
        for prefix in prefixes {
            staging.staged.clear();
            let Some((_, staged)) = self.stager(staging, now).stage(key, &prefix) else {
                break;
            };
            let staged = &staging.staged[staged];
            staging.sent.clear();
            let held = sent.paths(&prefix);
            staging
                .sent
                .extend(held.map(|r| (r.path_id, Arc::clone(&r.attrs))));
            let (mut em, peers, groups) = self.emitter(verdicts, now, out);
            let (Some(state), Some(group)) = (peers.get_mut(&peer), groups.get_mut(&key)) else {
                break;
            };
            em.export_to_member(state, prefix, staged, &staging.sent, record_rejects, None);
            if !others_synced {
                group.base.set_prefix(&prefix, base_routes(staged));
            } else {
                // Attribute values and path ids must match — `learned_at`
                // may differ for local routes, whose timestamp is the
                // staging time.
                debug_assert!(
                    {
                        let view = |routes: &mut dyn Iterator<Item = &Route>| {
                            routes
                                .map(|r| (r.path_id, Arc::clone(&r.attrs)))
                                .collect::<BTreeMap<_, _>>()
                        };
                        view(&mut group.base.paths(&prefix)) == view(&mut base_routes(staged))
                    },
                    "staged exports diverge from an already-synced group base"
                );
            }
        }
        scratch.clear();
        self.scratch = Some(scratch);
    }

    /// Flush `id`'s staged MRAI batch (see [`Emitter::flush_mrai`]).
    fn flush_mrai(&mut self, id: PeerId, now: SimTime, out: &mut Vec<Output>) {
        let mut unused = Vec::new();
        let (mut em, peers, _) = self.emitter(&mut unused, now, out);
        if let Some(state) = peers.get_mut(&id) {
            em.flush_mrai(state);
        }
    }

    /// Every prefix with a local route or a learned path: the walk set
    /// of a full-table export.
    fn known_prefixes(&self) -> BTreeSet<Prefix> {
        let mut prefixes: BTreeSet<Prefix> = self.local_routes.keys().copied().collect();
        for state in self.peers.values() {
            prefixes.extend(state.adj_in.prefixes().copied());
        }
        prefixes
    }

    /// Send the full table to a newly established (or refreshing) peer.
    /// The peer is marked synced — joined to its group's shared view —
    /// only after the walk, so every prefix diffs against an empty view
    /// and everything staged is announced. If another member of the
    /// group is already synced the shared base is authoritative and
    /// untouched; otherwise the base was cleared on unsync and is
    /// rebuilt prefix by prefix here.
    fn full_table_to(&mut self, peer: PeerId, now: SimTime, out: &mut Vec<Output>) {
        self.resync_member(peer, &AdjRibOut::new(), true, now, out);
        let Some(state) = self.peers.get_mut(&peer) else {
            return;
        };
        state.synced = true;
        // Initial sync is not rate-limited: flush anything the per-prefix
        // exports staged so the full table precedes the End-of-RIB marker.
        self.flush_mrai(peer, now, out);
        // End-of-RIB marker.
        out.push(Output::Send(
            peer,
            BgpMessage::Update(UpdateMessage {
                withdrawn: vec![],
                attrs: None,
                announced: vec![],
                trace: None,
            }),
        ));
    }

    /// Check cross-structure consistency: every per-peer session, RIB and
    /// damping table, plus the Loc-RIB, must agree with each other. Cheap
    /// enough for `debug_assert!` after every message and tick; returns a
    /// description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (id, state) in &self.peers {
            if state.cfg.id != *id {
                return Err(format!(
                    "peer {id:?} keyed under wrong id {:?}",
                    state.cfg.id
                ));
            }
            state
                .session
                .check_invariants()
                .map_err(|e| format!("peer {id:?} session: {e}"))?;
            state
                .adj_in
                .check_invariants()
                .map_err(|e| format!("peer {id:?} adj-rib-in: {e}"))?;
            let group = self
                .groups
                .get(&state.group)
                .ok_or_else(|| format!("peer {id:?} references missing export group"))?;
            if !group.members.contains(id) {
                return Err(format!(
                    "peer {id:?} not a member of its export group {:?}",
                    state.group
                ));
            }
            if state.synced && !state.session.is_established() {
                return Err(format!("peer {id:?} is synced but not established"));
            }
            for (p, ids) in &state.mask {
                for pid in ids {
                    if group.base.get(p, *pid).is_none() {
                        return Err(format!(
                            "peer {id:?} masks path {pid} for {p} absent from its group base"
                        ));
                    }
                }
            }
            if !state.session.is_established() && !state.adj_in.is_empty() && state.stale.is_none()
            {
                return Err(format!(
                    "peer {id:?} holds {} adj-rib-in routes while not established",
                    state.adj_in.len()
                ));
            }
            if state.stale.is_some() && state.cfg.graceful_restart.is_none() {
                return Err(format!(
                    "peer {id:?} is in a graceful-restart window but never negotiated one"
                ));
            }
            if self.cfg.damping.is_none() && !state.suppressed.is_empty() {
                return Err(format!(
                    "peer {id:?} has suppressed prefixes but damping is disabled"
                ));
            }
        }
        for (key, group) in &self.groups {
            if group.members.is_empty() {
                return Err(format!("export group {key:?} has no members"));
            }
            let mut any_synced = false;
            for m in &group.members {
                let p = self
                    .peers
                    .get(m)
                    .ok_or_else(|| format!("export group {key:?} lists missing peer {m:?}"))?;
                if p.group != *key {
                    return Err(format!(
                        "peer {m:?} listed in group {key:?} but points at {:?}",
                        p.group
                    ));
                }
                if GroupFingerprint::of(&self.cfg, &p.cfg) != group.fingerprint {
                    return Err(format!(
                        "peer {m:?} fingerprint diverged from its export group {key:?}"
                    ));
                }
                any_synced |= p.synced;
            }
            group
                .base
                .check_invariants()
                .map_err(|e| format!("group {key:?} adj-rib-out base: {e}"))?;
            if !any_synced && !group.base.is_empty() {
                return Err(format!(
                    "export group {key:?} has a non-empty base but no synced member"
                ));
            }
        }
        self.loc_rib.check_invariants()?;
        // Every Loc-RIB best must trace back to a live candidate: either a
        // locally originated route or a path still present in the learning
        // peer's Adj-RIB-In.
        for best in self.loc_rib.iter() {
            let prefix = best.prefix;
            if best.peer == PeerId::LOCAL {
                if !self.local_routes.contains_key(&prefix) {
                    return Err(format!(
                        "loc-rib best for {prefix} claims local origin but no local route exists"
                    ));
                }
            } else {
                let backing = self
                    .peers
                    .get(&best.peer)
                    .and_then(|p| p.adj_in.get(&prefix, best.path_id));
                if backing.is_none() {
                    return Err(format!(
                        "loc-rib best for {prefix} references missing adj-rib-in path \
                         (peer {:?}, path id {})",
                        best.peer, best.path_id
                    ));
                }
            }
        }
        Ok(())
    }

    /// Interner statistics `(distinct, hits, misses)`.
    pub fn interner_stats(&self) -> (usize, u64, u64) {
        (
            self.interner.len(),
            self.interner.hits,
            self.interner.misses,
        )
    }

    /// Drop interned attributes no longer referenced by any RIB.
    pub fn gc(&mut self) -> usize {
        self.interner.gc()
    }
}

/// Candidate routes for a prefix: every unsuppressed Adj-RIB-In path, in
/// peer-id order.
fn candidates<'a>(
    peers: &'a BTreeMap<PeerId, PeerState>,
    prefix: &'a Prefix,
) -> impl Iterator<Item = &'a Route> {
    peers
        .values()
        .filter(move |state| !state.suppressed.contains(prefix))
        .flat_map(move |state| state.adj_in.paths(prefix))
}

/// The locally originated route for a prefix, if any, stamped `now`.
fn local_route(
    local_routes: &BTreeMap<Prefix, Arc<PathAttributes>>,
    local_traces: &BTreeMap<Prefix, TraceId>,
    prefix: &Prefix,
    now: SimTime,
) -> Option<Route> {
    let attrs = local_routes.get(prefix)?;
    let trace = local_traces.get(prefix).copied();
    Some(Route::local(*prefix, Arc::clone(attrs), now).with_trace(trace))
}

/// The staging half of the export engine: what a group's export
/// computation reads, borrowed from the [`Speaker`] field by field, and
/// the scratch it writes. The per-route work that depends only on the
/// group fingerprint (iBGP reflection class, well-known communities,
/// export policy, mode transforms, path-id assignment) runs here, once
/// per group, and is shared by every member. Member-dependent filters
/// (split horizon, sender-side loop, route-server member blocks) are
/// deferred to [`member_delta`].
struct Stager<'a> {
    cfg: &'a SpeakerConfig,
    peers: &'a BTreeMap<PeerId, PeerState>,
    groups: &'a BTreeMap<ExportGroupKey, ExportGroup>,
    loc_rib: &'a LocRib,
    local_routes: &'a BTreeMap<Prefix, Arc<PathAttributes>>,
    local_traces: &'a BTreeMap<Prefix, TraceId>,
    interner: &'a mut AttrInterner,
    st: &'a mut Staging,
    now: SimTime,
}

impl<'a> Stager<'a> {
    /// Stage one prefix for one group: append the group-level outcome of
    /// every source route — the best path, or for an AllPaths group every
    /// usable path, best first — to the staged entries. Returns the group
    /// and where its entries sit; `None` for an unknown group.
    fn stage(
        &mut self,
        key: ExportGroupKey,
        prefix: &Prefix,
    ) -> Option<(&'a ExportGroup, Range<usize>)> {
        let (groups, loc_rib) = (self.groups, self.loc_rib);
        let group = groups.get(&key)?;
        let start = self.st.staged.len();
        match group.fingerprint.advertise {
            AdvertiseMode::BestOnly => {
                if let Some(best) = loc_rib.get(prefix) {
                    let entry = self.stage_route(key, group, best);
                    self.st.staged.push(entry);
                }
            }
            AdvertiseMode::AllPaths => {
                let mut sources = std::mem::take(&mut self.st.sources);
                sources.extend(candidates(self.peers, prefix).cloned());
                sources.extend(local_route(
                    self.local_routes,
                    self.local_traces,
                    prefix,
                    self.now,
                ));
                // Deterministic order: best first.
                let decision = &self.cfg.decision;
                sources.sort_by(|a, b| compare_routes(b, a, decision).then(Ordering::Equal));
                for route in &sources {
                    let entry = self.stage_route(key, group, route);
                    self.st.staged.push(entry);
                }
                sources.clear();
                self.st.sources = sources;
            }
        }
        Some((group, start..self.st.staged.len()))
    }

    /// The group-level outcome for one source route: a fully transformed
    /// route ready for the shared base, or the group-level rejection.
    fn stage_route(
        &mut self,
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
        let attrs = match memo_key.and_then(|k| self.st.memo.get(&k)) {
            Some((_, staged)) => {
                if staged.is_ok() {
                    // The interner lookup this stands in for.
                    self.interner.hits += 1;
                }
                staged.clone()
            }
            None => {
                let staged = self.export_attrs(&group.fingerprint, route);
                if let Some(k) = memo_key {
                    self.st
                        .memo
                        .insert(k, (Arc::clone(&route.attrs), staged.clone()));
                }
                staged
            }
        };
        let outcome = match attrs {
            Err(verdict) => StagedOutcome::Reject(verdict),
            Ok(attrs) => StagedOutcome::Export(Route {
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
            }),
        };
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
    fn export_attrs(&mut self, fp: &GroupFingerprint, route: &Route) -> StagedAttrs {
        // iBGP-learned routes are not re-advertised to iBGP peers unless
        // route reflection applies (RFC 4456): a route from a client is
        // reflected to every iBGP peer; a route from a non-client is
        // reflected to clients only.
        if route.source == RouteSource::Ibgp && fp.ibgp {
            let from_client = self.peers.get(&route.peer).is_some_and(|p| p.cfg.rr_client);
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

/// Member-dependent export filter over a staged entry. Verdict
/// precedence exactly mirrors the historical per-peer pipeline: split
/// horizon, then the group-level reflection/community rejects, then the
/// member's sender-side loop check (on the *source* path), then
/// group-level policy rejection, then route-server member blocks. `Ok`
/// borrows the staged route shared by the whole group.
fn member_delta(
    rs_member_blocks: bool,
    member: PeerId,
    member_asn: Asn,
    entry: &StagedEntry,
) -> Result<&Route, ExportVerdict> {
    // Split horizon: never back to the peer it came from.
    if entry.source_peer == member {
        return Err(ExportVerdict::SplitHorizon);
    }
    if let StagedOutcome::Reject(v) = entry.outcome {
        if matches!(
            v,
            ExportVerdict::IbgpNoReflect | ExportVerdict::NoAdvertise | ExportVerdict::NoExport
        ) {
            return Err(v);
        }
    }
    // Sender-side loop check.
    if entry.source_attrs.as_path.contains(member_asn) {
        return Err(ExportVerdict::AsPathLoop);
    }
    match &entry.outcome {
        StagedOutcome::Reject(v) => Err(*v),
        StagedOutcome::Export(route) => {
            // RFC 7947 member blocks: community `0:<member-as16>` on
            // the source route keeps it away from that member. The
            // check runs on the source attributes (the shared policy
            // strips operator communities on the way out).
            if rs_member_blocks
                && entry
                    .source_attrs
                    .has_community(Community::new(0, as16(member_asn)))
            {
                return Err(ExportVerdict::PolicyRejected);
            }
            Ok(route)
        }
    }
}

/// The member half of the export engine and the one sink of the update
/// path: the caller's `Vec<Output>` and the counters an emitted UPDATE
/// moves, borrowed from the [`Speaker`] field by field so a member's
/// [`PeerState`] can be held mutably beside them.
struct Emitter<'a> {
    cfg: &'a SpeakerConfig,
    /// The provenance log, when one is attached.
    prov: Option<&'a ProvenanceLog>,
    telemetry: &'a Telemetry,
    updates_sent: &'a mut u64,
    verdicts: &'a mut Vec<MemberPath>,
    now: SimTime,
    out: &'a mut Vec<Output>,
}

impl Emitter<'_> {
    /// The member diff — the only place desired and advertised state
    /// meet. Desired is the group's staged export of `prefix` filtered by
    /// the member's own delta (split horizon, sender-side loop, RS member
    /// block); `sent` is what the member's view is drawn from, less the
    /// paths its mask withholds. Exactly the difference is emitted (or
    /// MRAI-staged): one withdrawal for the paths no longer desired, one
    /// announcement per new or changed path. The member's mask becomes
    /// the staged paths withheld from it.
    ///
    /// The callers differ only in their arguments. A routing change
    /// ([`Speaker::export_prefix`]) diffs against the group's live base,
    /// records rejects, and tags withdrawals with the causing trace. The
    /// initial table sync diffs against nothing. A group reseat diffs
    /// against the pre-move snapshot and records only what it emits.
    fn export_to_member(
        &mut self,
        state: &mut PeerState,
        prefix: Prefix,
        staged: &[StagedEntry],
        sent: &[(u32, Arc<PathAttributes>)],
        record_rejects: bool,
        cause: Option<TraceId>,
    ) {
        let (id, member_asn) = (state.cfg.id, state.cfg.asn);
        let add_path = state.session.negotiated().is_some_and(|n| n.add_path_tx);
        let nlri = |path_id: u32| {
            if add_path {
                Nlri::with_path_id(prefix, path_id)
            } else {
                Nlri::plain(prefix)
            }
        };
        let (prov, now, local_asn) = (self.prov, self.now, self.cfg.asn);
        let record_export = |trace, attrs: &PathAttributes, verdict| {
            if let Some(prov) = prov {
                prov.record(
                    now,
                    local_asn,
                    ProvenanceEvent::Exported {
                        to_peer: id,
                        to_asn: member_asn,
                        prefix,
                        trace,
                        as_path: attrs.as_path.asns().collect(),
                        verdict,
                    },
                );
            }
        };
        let mask = state.mask.get(&prefix);
        let held = sent
            .iter()
            .filter(|(pid, _)| !mask.is_some_and(|withheld| withheld.contains(pid)));

        let mut masked: BTreeSet<u32> = BTreeSet::new();
        self.verdicts.clear();
        for entry in staged {
            let verdict = match member_delta(self.cfg.rs_member_blocks, id, member_asn, entry) {
                Ok(route) => {
                    let unchanged = held.clone().any(|(pid, attrs)| {
                        *pid == route.path_id
                            && (Arc::ptr_eq(attrs, &route.attrs) || **attrs == *route.attrs)
                    });
                    if unchanged {
                        MemberPath::Unchanged
                    } else {
                        MemberPath::Announce
                    }
                }
                Err(verdict) => {
                    if let Some(route) = entry.exported() {
                        masked.insert(route.path_id);
                    }
                    if record_rejects {
                        record_export(entry.source_trace, &entry.source_attrs, verdict);
                    }
                    MemberPath::Withheld
                }
            };
            self.verdicts.push(verdict);
        }
        let desired = || {
            let wanted = staged.iter().zip(self.verdicts.iter());
            wanted.filter_map(|(entry, verdict)| match verdict {
                MemberPath::Withheld => None,
                MemberPath::Unchanged | MemberPath::Announce => entry.exported(),
            })
        };
        debug_assert_eq!(
            desired().map(|r| r.path_id).collect::<BTreeSet<_>>().len(),
            desired().count(),
            "duplicate export path ids for one member"
        );
        // Withdraw paths no longer desired.
        let withdrawals: Vec<Nlri> = held
            .filter(|(pid, _)| !desired().any(|r| r.path_id == *pid))
            .map(|(pid, _)| nlri(*pid))
            .collect();
        if masked.is_empty() {
            state.mask.remove(&prefix);
        } else {
            state.mask.insert(prefix, masked);
        }

        if !withdrawals.is_empty() {
            // `WithdrawSent` means the withdrawal hit the wire. Unpacked,
            // that is right here; with MRAI packing the delta is only
            // *staged* (and may be superseded by a later announce or
            // dropped by a session reset before the flush), so the
            // record is made in `flush_mrai` at actual emission time.
            if let (None, Some(prov)) = (self.cfg.mrai, prov) {
                prov.record(
                    now,
                    local_asn,
                    ProvenanceEvent::WithdrawSent {
                        to_peer: id,
                        to_asn: member_asn,
                        prefix,
                        trace: cause,
                    },
                );
            }
            self.emit(state, withdrawals, PendingDelta::Withdraw { trace: cause });
        }
        // Announce new or changed paths.
        for (i, entry) in staged.iter().enumerate() {
            let (MemberPath::Announce, Some(route)) = (self.verdicts[i], entry.exported()) else {
                continue;
            };
            record_export(route.trace, &route.attrs, ExportVerdict::Exported);
            let delta = PendingDelta::Announce {
                attrs: Arc::clone(&route.attrs),
                trace: route.trace,
            };
            self.emit(state, vec![nlri(route.path_id)], delta);
        }
    }

    /// Emit one export delta toward a member immediately, or stage it for
    /// the member's MRAI flush when packing is configured. Counters track
    /// emitted UPDATE messages, so they move to the flush in packed mode.
    fn emit(&mut self, state: &mut PeerState, nlris: Vec<Nlri>, delta: PendingDelta) {
        let Some(interval) = self.cfg.mrai else {
            let update = match delta {
                PendingDelta::Withdraw { trace } => {
                    UpdateMessage::withdraw(nlris).with_trace(trace)
                }
                PendingDelta::Announce { attrs, trace } => {
                    UpdateMessage::announce(attrs, nlris).with_trace(trace)
                }
            };
            return self.send_update(state, update);
        };
        for nlri in nlris {
            state.pending.insert(nlri, delta.clone());
        }
        // First staged delta arms the timer; later ones ride the
        // existing deadline so a busy peer still flushes.
        if state.mrai_deadline.is_none() {
            state.mrai_deadline = Some(self.now + interval);
        }
    }

    /// Put one UPDATE on the wire toward a peer: the single place emitted
    /// UPDATEs are counted (session stats, `updates_sent`, telemetry),
    /// shared by the immediate and the MRAI-flush path.
    fn send_update(&mut self, state: &mut PeerState, update: UpdateMessage) {
        state.session.note_update_sent();
        *self.updates_sent += 1;
        self.telemetry.counter_inc("bgp.speaker.updates_out");
        self.out
            .push(Output::Send(state.cfg.id, BgpMessage::Update(update)));
    }

    /// Flush a peer's staged export deltas as packed UPDATEs: withdrawals
    /// grouped by provenance trace, announcements grouped by (attribute
    /// allocation, trace), each group one multi-NLRI message. Iteration
    /// is over a `BTreeMap` keyed by [`Nlri`] and group order is
    /// first-seen, so the packing is deterministic. Send-side provenance
    /// ([`ProvenanceEvent::WithdrawSent`]) is recorded here, at `now`,
    /// because this is when the packed UPDATEs actually hit the wire —
    /// a staged withdraw superseded before the flush is never recorded.
    fn flush_mrai(&mut self, state: &mut PeerState) {
        state.mrai_deadline = None;
        if state.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut state.pending);
        let (id, to_asn) = (state.cfg.id, state.cfg.asn);
        let mut withdraw_groups: Vec<(Option<TraceId>, Vec<Nlri>)> = Vec::new();
        let mut announce_groups: Vec<(Arc<PathAttributes>, Option<TraceId>, Vec<Nlri>)> =
            Vec::new();
        // Indexes are lookup-only (never iterated), so the HashMap does
        // not enter any ordered output; group order comes from the Vecs.
        let mut wd_index: HashMap<Option<u64>, usize> = HashMap::new();
        let mut ann_index: HashMap<(usize, Option<u64>), usize> = HashMap::new();
        for (nlri, delta) in pending {
            match delta {
                PendingDelta::Withdraw { trace } => {
                    let slot = *wd_index.entry(trace.map(|t| t.0)).or_insert_with(|| {
                        withdraw_groups.push((trace, Vec::new()));
                        withdraw_groups.len() - 1
                    });
                    withdraw_groups[slot].1.push(nlri);
                }
                PendingDelta::Announce { attrs, trace } => {
                    let key = (Arc::as_ptr(&attrs) as usize, trace.map(|t| t.0));
                    let slot = *ann_index.entry(key).or_insert_with(|| {
                        announce_groups.push((attrs, trace, Vec::new()));
                        announce_groups.len() - 1
                    });
                    announce_groups[slot].2.push(nlri);
                }
            }
        }
        for (trace, nlris) in withdraw_groups {
            if let Some(prov) = self.prov {
                // One record per distinct prefix, mirroring the unpacked
                // path's per-prefix granularity (ADD-PATH can put several
                // NLRIs of one prefix in a group).
                let mut last: Option<Prefix> = None;
                for nlri in &nlris {
                    if last == Some(nlri.prefix) {
                        continue;
                    }
                    last = Some(nlri.prefix);
                    prov.record(
                        self.now,
                        self.cfg.asn,
                        ProvenanceEvent::WithdrawSent {
                            to_peer: id,
                            to_asn,
                            prefix: nlri.prefix,
                            trace,
                        },
                    );
                }
            }
            self.send_update(state, UpdateMessage::withdraw(nlris).with_trace(trace));
        }
        for (attrs, trace, nlris) in announce_groups {
            let update = UpdateMessage::announce(attrs, nlris).with_trace(trace);
            self.send_update(state, update);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;
    use crate::message::NotifCode;
    use crate::policy::{Action, Match};

    /// Deliver all queued outputs between two speakers until quiescent.
    fn settle(a: &mut Speaker, b: &mut Speaker, a_peer: PeerId, b_peer: PeerId, now: SimTime) {
        // a_peer: b's id in a; b_peer: a's id in b.
        let mut to_b: Vec<BgpMessage> = Vec::new();
        let mut to_a: Vec<BgpMessage> = Vec::new();
        let drain = |outs: Vec<Output>, target: PeerId, sink: &mut Vec<BgpMessage>| {
            for o in outs {
                if let Output::Send(p, m) = o {
                    assert_eq!(p, target, "single-peer harness");
                    sink.push(m);
                }
            }
        };
        drain(a.start_peer(a_peer, now), a_peer, &mut to_b);
        drain(b.start_peer(b_peer, now), b_peer, &mut to_a);
        // Fire any due ConnectRetry timers (reconnecting sessions sit in
        // Connect, where `start` is a no-op).
        drain(a.tick(now), a_peer, &mut to_b);
        drain(b.tick(now), b_peer, &mut to_a);
        for _ in 0..64 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut next_to_a = Vec::new();
            let mut next_to_b = Vec::new();
            for m in to_b.drain(..) {
                drain(b.on_message(b_peer, m, now), b_peer, &mut next_to_a);
            }
            for m in to_a.drain(..) {
                drain(a.on_message(a_peer, m, now), a_peer, &mut next_to_b);
            }
            to_a = next_to_a;
            to_b = next_to_b;
        }
        assert!(to_a.is_empty() && to_b.is_empty(), "did not converge");
    }

    fn speaker(asn: u32) -> Speaker {
        Speaker::new(SpeakerConfig::new(
            Asn(asn),
            Ipv4Addr::new(10, 0, 0, asn as u8),
        ))
    }

    #[test]
    fn originated_route_propagates() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let best = b.loc_rib().get(&p).expect("b learned the route");
        assert_eq!(best.attrs.as_path.to_string(), "1");
        assert_eq!(best.source, RouteSource::Ebgp);
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
    }

    #[test]
    fn telemetry_tracks_session_and_updates() {
        use peering_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.set_telemetry(telemetry.clone());
        b.set_telemetry(telemetry.clone());
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let snap = telemetry.snapshot();
        // Both sessions reached Established, and the UPDATE counters
        // mirror the speakers' own totals.
        assert_eq!(snap.counter("bgp.session.established"), 2);
        assert_eq!(snap.counter("bgp.fsm.to_established"), 2);
        assert_eq!(
            snap.counter("bgp.speaker.updates_out"),
            a.updates_sent + b.updates_sent
        );
        assert_eq!(
            snap.counter("bgp.speaker.updates_in"),
            a.updates_received + b.updates_received
        );
        assert!(snap.counter("bgp.decision.runs") > 0);
        assert_eq!(snap.gauge("bgp.rib.loc_rib_routes"), Some(1));
        let conv = snap
            .histogram("bgp.session.convergence_us")
            .expect("convergence histogram");
        assert_eq!(conv.count, 2);
    }

    #[test]
    fn fault_driven_session_loss_counts_as_fsm_transition() {
        use peering_telemetry::Telemetry;
        let telemetry = Telemetry::new();
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.set_telemetry(telemetry.clone());
        b.set_telemetry(telemetry.clone());
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let before = telemetry.snapshot();
        // A transport reset and a corrupt frame are session losses like
        // any other: Established -> Idle, one transition each.
        a.reset_peer(PeerId(0), SimTime::from_secs(1));
        assert_eq!(
            telemetry.snapshot().counter("bgp.fsm.to_idle"),
            before.counter("bgp.fsm.to_idle") + 1
        );
        b.on_corrupt_message(PeerId(0), SimTime::from_secs(1));
        let after = telemetry.snapshot();
        assert_eq!(
            after.counter("bgp.fsm.to_idle"),
            before.counter("bgp.fsm.to_idle") + 2
        );
        assert_eq!(
            after.counter("bgp.fsm.transitions"),
            before.counter("bgp.fsm.transitions") + 2
        );
    }

    #[test]
    fn announce_after_established_also_propagates() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let p = Prefix::v4(10, 20, 0, 0, 16);
        let outs = a.originate(p, SimTime::from_secs(1));
        let mut delivered = false;
        for o in outs {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
                delivered = true;
            }
        }
        assert!(delivered);
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn withdraw_removes_route_downstream() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        for o in a.withdraw_origin(p, SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(2));
            }
        }
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
    }

    #[test]
    fn ebgp_export_prepends_and_sets_next_hop() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        let mut c = speaker(3);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        b.add_peer(PeerConfig::new(PeerId(1), Asn(3)));
        c.add_peer(PeerConfig::new(PeerId(0), Asn(2)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // Now connect b<->c; b should pass the route along with its ASN.
        let mut to_c: Vec<BgpMessage> = Vec::new();
        let mut to_b: Vec<BgpMessage> = Vec::new();
        for o in b.start_peer(PeerId(1), SimTime::ZERO) {
            if let Output::Send(_, m) = o {
                to_c.push(m);
            }
        }
        for o in c.start_peer(PeerId(0), SimTime::ZERO) {
            if let Output::Send(_, m) = o {
                to_b.push(m);
            }
        }
        for _ in 0..64 {
            if to_b.is_empty() && to_c.is_empty() {
                break;
            }
            let mut nb = Vec::new();
            let mut nc = Vec::new();
            for m in to_c.drain(..) {
                for o in c.on_message(PeerId(0), m, SimTime::ZERO) {
                    if let Output::Send(_, m) = o {
                        nb.push(m);
                    }
                }
            }
            for m in to_b.drain(..) {
                for o in b.on_message(PeerId(1), m, SimTime::ZERO) {
                    if let Output::Send(p, m) = o {
                        assert_eq!(p, PeerId(1));
                        nc.push(m);
                    }
                }
            }
            to_b = nb;
            to_c = nc;
        }
        let best = c.loc_rib().get(&p).expect("c learned the route");
        assert_eq!(best.attrs.as_path.to_string(), "2 1");
        assert_eq!(best.attrs.next_hop, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn loop_detection_rejects_own_asn() {
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        // Fake an established session then inject a poisoned update.
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let poisoned = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(1), Asn(2), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            ..Default::default()
        });
        let p = Prefix::v4(10, 66, 0, 0, 16);
        let outs = b.on_message(
            PeerId(0),
            BgpMessage::Update(UpdateMessage::announce(poisoned, vec![Nlri::plain(p)])),
            SimTime::from_secs(1),
        );
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::ImportRejected(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
    }

    #[test]
    fn import_policy_rejection_is_implicit_withdraw() {
        use crate::policy::{Action, Match};
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        // b rejects announcements carrying community 1:666 on import.
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .import(Policy::accept_all().rule(
                    Match::HasCommunity(Community::new(1, 666)),
                    vec![Action::Reject],
                )),
        );
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        // Re-announce with the bad community: b must drop the route.
        for o in a.withdraw_origin(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
            }
        }
        for o in a.originate_with(p, vec![Community::new(1, 666)], SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(2));
            }
        }
        assert!(b.loc_rib().get(&p).is_none());
    }

    #[test]
    fn no_export_community_stops_at_ebgp() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        b.add_peer(PeerConfig::new(PeerId(1), Asn(3)));
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate_with(p, vec![Community::NO_EXPORT], SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some(), "b itself uses the route");
        // b must not have queued it for AS3 even once the session is up.
        assert!(b.adj_rib_out(PeerId(1)).unwrap().is_empty());
    }

    #[test]
    fn best_path_switches_on_shorter_path() {
        let mut c = speaker(3);
        c.add_peer(PeerConfig::new(PeerId(10), Asn(1)).passive());
        c.add_peer(PeerConfig::new(PeerId(20), Asn(2)).passive());
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(3)));
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(3)));
        settle(&mut a, &mut c, PeerId(0), PeerId(10), SimTime::ZERO);
        settle(&mut b, &mut c, PeerId(0), PeerId(20), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        // AS1 announces with a long path; AS2 with a short one.
        let long = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(1), Asn(9), Asn(8), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 1),
            ..Default::default()
        });
        c.on_message(
            PeerId(10),
            BgpMessage::Update(UpdateMessage::announce(long, vec![Nlri::plain(p)])),
            SimTime::from_secs(1),
        );
        assert_eq!(c.loc_rib().get(&p).unwrap().attrs.as_path.hop_count(), 4);
        let short = Arc::new(PathAttributes {
            as_path: crate::attrs::AsPath::from_asns(&[Asn(2), Asn(7)]),
            next_hop: Ipv4Addr::new(10, 0, 0, 2),
            ..Default::default()
        });
        let outs = c.on_message(
            PeerId(20),
            BgpMessage::Update(UpdateMessage::announce(short, vec![Nlri::plain(p)])),
            SimTime::from_secs(2),
        );
        assert_eq!(c.loc_rib().get(&p).unwrap().peer, PeerId(20));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::BestChanged { .. }))));
    }

    #[test]
    fn peer_down_clears_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let outs = b.stop_peer(PeerId(0), SimTime::from_secs(5));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
        assert!(!b.peer_established(PeerId(0)));
    }

    #[test]
    fn route_server_mode_is_transparent() {
        let mut rs = Speaker::new(
            SpeakerConfig::new(Asn(100), Ipv4Addr::new(80, 249, 208, 255)).route_server(),
        );
        rs.add_peer(PeerConfig::new(PeerId(1), Asn(1)).passive());
        rs.add_peer(PeerConfig::new(PeerId(2), Asn(2)).passive());
        let mut m1 = speaker(1);
        m1.add_peer(PeerConfig::new(PeerId(0), Asn(100)));
        let mut m2 = speaker(2);
        m2.add_peer(PeerConfig::new(PeerId(0), Asn(100)));
        settle(&mut m1, &mut rs, PeerId(0), PeerId(1), SimTime::ZERO);
        settle(&mut m2, &mut rs, PeerId(0), PeerId(2), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        for o in m1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in rs.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(to, msg) = o2 {
                        assert_eq!(to, PeerId(2), "split horizon: only the other member");
                        m2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        let best = m2.loc_rib().get(&p).expect("member 2 learned via RS");
        // The RS did NOT prepend AS100 and did NOT rewrite the next hop.
        assert_eq!(best.attrs.as_path.to_string(), "1");
        assert!(!best.attrs.as_path.contains(Asn(100)));
        assert_eq!(best.attrs.next_hop, Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    fn all_paths_peer_receives_every_route_with_path_ids() {
        // Server hears the same prefix from two upstreams, exports ALL
        // paths to an AllPaths (mux) client.
        let mut server = Speaker::new(
            SpeakerConfig::new(Asn(47065), Ipv4Addr::new(100, 64, 0, 1)).route_server(),
        );
        server.add_peer(PeerConfig::new(PeerId(1), Asn(1)).passive());
        server.add_peer(PeerConfig::new(PeerId(2), Asn(2)).passive());
        server.add_peer(PeerConfig::new(PeerId(9), Asn(65001)).all_paths().passive());
        let mut u1 = speaker(1);
        u1.add_peer(PeerConfig::new(PeerId(0), Asn(47065)));
        let mut u2 = speaker(2);
        u2.add_peer(PeerConfig::new(PeerId(0), Asn(47065)));
        let mut client = Speaker::new(SpeakerConfig::new(Asn(65001), Ipv4Addr::new(100, 64, 0, 9)));
        client.add_peer(PeerConfig::new(PeerId(0), Asn(47065)));
        settle(&mut u1, &mut server, PeerId(0), PeerId(1), SimTime::ZERO);
        settle(&mut u2, &mut server, PeerId(0), PeerId(2), SimTime::ZERO);
        settle(
            &mut client,
            &mut server,
            PeerId(0),
            PeerId(9),
            SimTime::ZERO,
        );
        let p = Prefix::v4(10, 10, 0, 0, 16);
        let mut to_server: Vec<BgpMessage> = Vec::new();
        for o in u1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                to_server.push(m);
            }
        }
        for m in to_server.drain(..) {
            for o in server.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                if let Output::Send(PeerId(9), msg) = o {
                    client.on_message(PeerId(0), msg, SimTime::from_secs(1));
                }
            }
        }
        for o in u2.originate(p, SimTime::from_secs(2)) {
            if let Output::Send(_, m) = o {
                for o2 in server.on_message(PeerId(2), m, SimTime::from_secs(2)) {
                    if let Output::Send(PeerId(9), msg) = o2 {
                        client.on_message(PeerId(0), msg, SimTime::from_secs(2));
                    }
                }
            }
        }
        // The client holds BOTH paths, distinguished by path id.
        let rib = client.adj_rib_in(PeerId(0)).unwrap();
        assert_eq!(rib.paths(&p).count(), 2);
        let ids: Vec<u32> = rib.paths(&p).map(|r| r.path_id).collect();
        assert_eq!(ids, vec![2, 3]); // learning-peer ids 1 and 2, plus 1
        let firsts: BTreeSet<String> = rib.paths(&p).map(|r| r.attrs.as_path.to_string()).collect();
        assert!(firsts.contains("1") && firsts.contains("2"));
    }

    #[test]
    fn damping_suppresses_flapping_route() {
        // Hold times long enough that the session outlives the damping
        // decay window without keepalive exchanges in this harness.
        let week = SimDuration::from_secs(7 * 24 * 3600);
        let mut acfg = SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1));
        acfg.hold_time = week;
        let mut a = Speaker::new(acfg);
        let mut bcfg = SpeakerConfig::new(Asn(2), Ipv4Addr::new(10, 0, 0, 2))
            .with_damping(DampingConfig::default());
        bcfg.hold_time = week;
        let mut b = Speaker::new(bcfg);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let p = Prefix::v4(10, 10, 0, 0, 16);
        let mut now = SimTime::ZERO;
        let mut suppressed_seen = false;
        for _ in 0..4 {
            now += SimDuration::from_secs(10);
            for o in a.originate(p, now) {
                if let Output::Send(_, m) = o {
                    for o2 in b.on_message(PeerId(0), m, now) {
                        if matches!(o2, Output::Event(SpeakerEvent::Suppressed(_, _))) {
                            suppressed_seen = true;
                        }
                    }
                }
            }
            now += SimDuration::from_secs(10);
            for o in a.withdraw_origin(p, now) {
                if let Output::Send(_, m) = o {
                    for o2 in b.on_message(PeerId(0), m, now) {
                        if matches!(o2, Output::Event(SpeakerEvent::Suppressed(_, _))) {
                            suppressed_seen = true;
                        }
                    }
                }
            }
        }
        assert!(suppressed_seen, "flapping must trigger suppression");
        // Announce once more: route installs to adj-in but is suppressed
        // from the decision process.
        now += SimDuration::from_secs(10);
        for o in a.originate(p, now) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, now);
            }
        }
        assert!(b.loc_rib().get(&p).is_none(), "suppressed from Loc-RIB");
        // After the penalty decays, a tick releases the route.
        let much_later = now + SimDuration::from_secs(3 * 3600);
        b.tick(much_later);
        assert!(
            b.loc_rib().get(&p).is_some(),
            "released after damping decay"
        );
    }

    #[test]
    fn table_memory_grows_with_routes_and_shares_attrs() {
        let mut b = speaker(2);
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let mut a = speaker(1);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let empty = b.table_memory();
        for i in 0..100u32 {
            let p = Prefix::v4(10, (i >> 8) as u8, (i & 0xff) as u8, 0, 24);
            for o in a.originate(p, SimTime::from_secs(1)) {
                if let Output::Send(_, m) = o {
                    b.on_message(PeerId(0), m, SimTime::from_secs(1));
                }
            }
        }
        let full = b.table_memory();
        assert!(full > empty, "memory must grow: {empty} -> {full}");
        // All 100 routes share one attribute set via the interner.
        let (distinct, hits, _misses) = b.interner_stats();
        assert!(hits >= 99, "hits={hits}");
        assert!(distinct <= 4, "distinct={distinct}");
    }

    #[test]
    fn route_refresh_resends_table() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let outs = a.on_message(PeerId(0), BgpMessage::RouteRefresh, SimTime::from_secs(1));
        // Adj-RIB-Out is unchanged so the diff suppresses re-sending; the
        // refresh still produces the End-of-RIB marker.
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if u.is_end_of_rib())));
    }

    #[test]
    fn remove_peer_withdraws_its_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        b.remove_peer(PeerId(0), SimTime::from_secs(1));
        assert!(b.loc_rib().get(&p).is_none());
        assert_eq!(b.peer_count(), 0);
    }

    /// Establish a session between two multi-peer speakers by shuttling
    /// messages directly (no single-peer assertion like `settle`).
    fn establish_pair(
        a: &mut Speaker,
        a_peer: PeerId,
        b: &mut Speaker,
        b_peer: PeerId,
        now: SimTime,
    ) {
        let filter = |outs: Vec<Output>, want: PeerId| -> Vec<BgpMessage> {
            outs.into_iter()
                .filter_map(|o| match o {
                    Output::Send(p, m) if p == want => Some(m),
                    _ => None,
                })
                .collect()
        };
        let mut to_b = filter(a.start_peer(a_peer, now), a_peer);
        let mut to_a = filter(b.start_peer(b_peer, now), b_peer);
        for _ in 0..32 {
            if to_a.is_empty() && to_b.is_empty() {
                break;
            }
            let mut na = Vec::new();
            let mut nb = Vec::new();
            for m in to_b.drain(..) {
                na.extend(filter(b.on_message(b_peer, m, now), b_peer));
            }
            for m in to_a.drain(..) {
                nb.extend(filter(a.on_message(a_peer, m, now), a_peer));
            }
            to_a = na;
            to_b = nb;
        }
        assert!(a.peer_established(a_peer) && b.peer_established(b_peer));
    }

    /// Hub-and-spoke iBGP: two spokes connected only to a hub router in
    /// the same AS.
    fn ibgp_hub_and_spokes(reflect: bool) -> (Speaker, Speaker, Speaker) {
        let asn = Asn(64620);
        let mut hub = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 1)));
        let mk_client_cfg = |id: u32, reflect: bool| {
            let cfg = PeerConfig::new(PeerId(id), asn).passive();
            if reflect {
                cfg.rr_client()
            } else {
                cfg
            }
        };
        hub.add_peer(mk_client_cfg(1, reflect));
        hub.add_peer(mk_client_cfg(2, reflect));
        let mut s1 = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 2)));
        s1.add_peer(PeerConfig::new(PeerId(0), asn));
        let mut s2 = Speaker::new(SpeakerConfig::new(asn, Ipv4Addr::new(10, 9, 0, 3)));
        s2.add_peer(PeerConfig::new(PeerId(0), asn));
        establish_pair(&mut s1, PeerId(0), &mut hub, PeerId(1), SimTime::ZERO);
        establish_pair(&mut s2, PeerId(0), &mut hub, PeerId(2), SimTime::ZERO);
        (hub, s1, s2)
    }

    #[test]
    fn without_route_reflection_ibgp_does_not_transit_the_hub() {
        let (mut hub, mut s1, mut s2) = ibgp_hub_and_spokes(false);
        let p = Prefix::v4(10, 80, 0, 0, 16);
        for o in s1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in hub.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(PeerId(2), msg) = o2 {
                        s2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        assert!(hub.loc_rib().get(&p).is_some(), "hub itself learns it");
        assert!(
            s2.loc_rib().get(&p).is_none(),
            "classic iBGP split horizon: s2 must NOT learn it via the hub"
        );
    }

    #[test]
    fn route_reflection_lets_spokes_see_each_other() {
        let (mut hub, mut s1, mut s2) = ibgp_hub_and_spokes(true);
        let p = Prefix::v4(10, 81, 0, 0, 16);
        for o in s1.originate(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                for o2 in hub.on_message(PeerId(1), m, SimTime::from_secs(1)) {
                    if let Output::Send(PeerId(2), msg) = o2 {
                        s2.on_message(PeerId(0), msg, SimTime::from_secs(1));
                    }
                }
            }
        }
        let r = s2.loc_rib().get(&p).expect("reflected to the other client");
        // iBGP preserves the path: no ASN was prepended inside the AS.
        assert_eq!(r.attrs.as_path.hop_count(), 0);
        assert_eq!(r.source, RouteSource::Ibgp);
        // The spokes hold ONE copy each — the Figure 2 discussion's
        // point about route reflectors and table copies.
        assert_eq!(s2.loc_rib().len(), 1);
    }

    #[test]
    fn invariants_hold_through_session_lifecycle() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        assert_eq!(a.check_invariants(), Ok(()));
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(a.check_invariants(), Ok(()));
        assert_eq!(b.check_invariants(), Ok(()));
        for o in a.withdraw_origin(p, SimTime::from_secs(1)) {
            if let Output::Send(_, m) = o {
                b.on_message(PeerId(0), m, SimTime::from_secs(1));
            }
        }
        b.stop_peer(PeerId(0), SimTime::from_secs(2));
        assert_eq!(b.check_invariants(), Ok(()));
        // Corrupt the Loc-RIB directly: a best route pointing at a peer
        // path that does not exist must be reported.
        let phantom = Route {
            prefix: p,
            attrs: Arc::new(PathAttributes::originate(Ipv4Addr::new(9, 9, 9, 9))),
            peer: PeerId(77),
            path_id: 3,
            source: RouteSource::Ebgp,
            igp_cost: 0,
            learned_at: SimTime::ZERO,
            trace: None,
        };
        b.loc_rib.set_best(phantom);
        let err = b.check_invariants().unwrap_err();
        assert!(err.contains("missing adj-rib-in path"), "{err}");
    }

    /// A pair where `b` retains `a`'s routes across restarts and both
    /// ends reconnect automatically.
    fn resilient_pair() -> (Speaker, Speaker) {
        let mut a = Speaker::new(
            SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1))
                .with_connect_retry(crate::fsm::ConnectRetryConfig::new(11)),
        );
        let mut b = Speaker::new(
            SpeakerConfig::new(Asn(2), Ipv4Addr::new(10, 0, 0, 2))
                .with_connect_retry(crate::fsm::ConnectRetryConfig::new(22)),
        );
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .graceful_restart(SimDuration::from_secs(120)),
        );
        (a, b)
    }

    #[test]
    fn graceful_restart_retains_stale_paths_until_end_of_rib() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());

        // Transport loss at t=5s: no forwarding gap — the route stays in
        // b's Loc-RIB even though the session is down.
        let t1 = SimTime::from_secs(5);
        let outs = b.reset_peer(PeerId(0), t1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(!b.peer_established(PeerId(0)));
        assert!(
            b.loc_rib().get(&p).is_some(),
            "stale path keeps forwarding through the restart window"
        );

        // The far end also saw the loss and retries; re-establish and
        // resync at t=20s.
        a.reset_peer(PeerId(0), t1);
        let t2 = SimTime::from_secs(20);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), t2);
        assert!(b.peer_established(PeerId(0)));
        // The route was re-announced and the End-of-RIB swept nothing.
        assert!(b.loc_rib().get(&p).is_some());
        assert_eq!(b.adj_rib_in(PeerId(0)).unwrap().len(), 1);
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn end_of_rib_sweeps_paths_not_reannounced() {
        let (mut a, mut b) = resilient_pair();
        let p1 = Prefix::v4(10, 10, 0, 0, 16);
        let p2 = Prefix::v4(10, 20, 0, 0, 16);
        a.originate(p1, SimTime::ZERO);
        a.originate(p2, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        b.reset_peer(PeerId(0), t1);
        a.reset_peer(PeerId(0), t1);
        // While down, the far end loses one origination: after resync the
        // stale copy of p2 must be swept by the End-of-RIB.
        a.withdraw_origin(p2, SimTime::from_secs(6));
        assert!(b.loc_rib().get(&p2).is_some(), "still stale before resync");
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(20));
        assert!(b.loc_rib().get(&p1).is_some());
        assert!(
            b.loc_rib().get(&p2).is_none(),
            "End-of-RIB sweeps what was not re-announced"
        );
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn restart_timer_expiry_flushes_stale_paths() {
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        b.reset_peer(PeerId(0), t1);
        assert!(b.loc_rib().get(&p).is_some());
        // The peer never comes back: at the 120 s restart deadline the
        // stale paths are flushed.
        let outs = b.tick(SimTime::from_secs(126));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(SpeakerEvent::BestChanged { new: None, .. })
        )));
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn speaker_restart_loses_learned_state_but_keeps_originations() {
        let (mut a, mut b) = resilient_pair();
        let pa = Prefix::v4(10, 10, 0, 0, 16);
        let pb = Prefix::v4(10, 30, 0, 0, 16);
        a.originate(pa, SimTime::ZERO);
        b.originate(pb, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);

        let t1 = SimTime::from_secs(5);
        let outs = b.restart(t1);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(!b.peer_established(PeerId(0)));
        assert!(b.loc_rib().get(&pa).is_none(), "learned state is gone");
        assert!(b.loc_rib().get(&pb).is_some(), "origination survives");
        assert_eq!(b.check_invariants(), Ok(()));

        // The far end noticed (transport died with the process), both
        // sides reconverge.
        a.reset_peer(PeerId(0), t1);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(30));
        assert!(b.loc_rib().get(&pa).is_some());
        assert!(a.loc_rib().get(&pb).is_some());
    }

    #[test]
    fn recoverable_corruption_is_treated_as_withdraw_not_reset() {
        // RFC 7606: a malformed attribute on an otherwise-parsable UPDATE
        // must NOT be answered with a NOTIFICATION — the session stays
        // Established and the affected routes are withdrawn.
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.loc_rib().get(&p).is_some());
        let t1 = SimTime::from_secs(5);
        // The re-announcement arrives with attributes mangled in a
        // treat-as-withdraw-recoverable way.
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            ..Default::default()
        });
        let mangled = UpdateMessage::announce(attrs, vec![Nlri::plain(p)]);
        let outs = b.on_malformed_update(PeerId(0), mangled, t1);
        assert!(
            !outs
                .iter()
                .any(|o| matches!(o, Output::Send(_, BgpMessage::Notification(_)))),
            "recoverable corruption must not trigger a NOTIFICATION"
        );
        assert!(
            b.peer_established(PeerId(0)),
            "treat-as-withdraw keeps the session up"
        );
        // The announced route was handled as withdrawn.
        assert!(b.loc_rib().get(&p).is_none());
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
        // The peer can simply re-announce — no session recycling needed.
        let t2 = SimTime::from_secs(6);
        let mut msgs: Vec<BgpMessage> = Vec::new();
        msgs.extend(
            a.withdraw_origin(p, t1)
                .into_iter()
                .filter_map(|o| match o {
                    Output::Send(_, m) => Some(m),
                    _ => None,
                }),
        );
        msgs.extend(a.originate(p, t2).into_iter().filter_map(|o| match o {
            Output::Send(_, m) => Some(m),
            _ => None,
        }));
        for m in msgs {
            b.on_message(PeerId(0), m, t2);
        }
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn unrecoverable_corruption_still_notifies_and_drops() {
        // Framing-level corruption has no recoverable interpretation:
        // the blanket NOTIFICATION-and-drop path remains.
        let (mut a, mut b) = resilient_pair();
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        let t1 = SimTime::from_secs(5);
        let outs = b.on_corrupt_message(PeerId(0), t1);
        assert!(
            outs.iter()
                .any(|o| matches!(o, Output::Send(_, BgpMessage::Notification(_)))),
            "unrecoverable corruption must be answered with a NOTIFICATION"
        );
        assert!(!b.peer_established(PeerId(0)));
        // GR keeps the path while the session recycles.
        assert!(b.loc_rib().get(&p).is_some());
        a.reset_peer(PeerId(0), t1);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::from_secs(20));
        assert!(b.peer_established(PeerId(0)));
        assert!(b.loc_rib().get(&p).is_some());
    }

    #[test]
    fn max_prefix_limit_ceases_session_and_flushes_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(
            PeerConfig::new(PeerId(0), Asn(1))
                .passive()
                .with_max_prefix(MaxPrefixConfig::new(4).warn_at(3)),
        );
        for i in 0..3u8 {
            a.originate(Prefix::v4(10, i, 0, 0, 16), SimTime::ZERO);
        }
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert!(b.peer_established(PeerId(0)), "at the warn threshold");
        assert_eq!(b.loc_rib().len(), 3);
        // Two more prefixes push the count past the hard limit.
        let t1 = SimTime::from_secs(5);
        let mut pending: Vec<BgpMessage> = Vec::new();
        for pfx in [Prefix::v4(10, 10, 0, 0, 16), Prefix::v4(10, 11, 0, 0, 16)] {
            pending.extend(a.originate(pfx, t1).into_iter().filter_map(|o| match o {
                Output::Send(_, m) => Some(m),
                _ => None,
            }));
        }
        let mut ceased = Vec::new();
        for m in pending {
            ceased.extend(b.on_message(PeerId(0), m, t1));
        }
        assert!(
            ceased.iter().any(|o| matches!(
                o,
                Output::Send(_, BgpMessage::Notification(n)) if n.code == NotifCode::Cease && n.subcode == 1
            )),
            "hard limit must be answered with Cease subcode 1"
        );
        assert!(!b.peer_established(PeerId(0)));
        assert!(b.loc_rib().is_empty(), "the flooder's routes are flushed");
        assert!(b.adj_rib_in(PeerId(0)).unwrap().is_empty());
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn set_peer_import_refilters_adj_rib_in() {
        let (mut a, mut b) = resilient_pair();
        let p1 = Prefix::v4(10, 10, 0, 0, 16);
        let p2 = Prefix::v4(10, 20, 0, 0, 16);
        a.originate(p1, SimTime::ZERO);
        a.originate(p2, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        assert_eq!(b.loc_rib().len(), 2);
        // Quarantine: reject everything the peer offers.
        let t1 = SimTime::from_secs(5);
        let outs = b.set_peer_import(PeerId(0), Policy::reject_all(), t1);
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(SpeakerEvent::BestChanged { new: None, .. })
        )));
        assert!(b.loc_rib().is_empty());
        assert!(
            b.peer_established(PeerId(0)),
            "quarantine keeps the session"
        );
        // Lift the quarantine: restore the policy and ask for a refresh.
        let t2 = SimTime::from_secs(10);
        b.set_peer_import(PeerId(0), Policy::accept_all(), t2);
        let refresh = b.request_refresh(PeerId(0));
        assert_eq!(
            refresh,
            vec![Output::Send(PeerId(0), BgpMessage::RouteRefresh)]
        );
        let mut pending: Vec<BgpMessage> = vec![BgpMessage::RouteRefresh];
        for _ in 0..8 {
            if pending.is_empty() {
                break;
            }
            let mut back: Vec<BgpMessage> = Vec::new();
            for m in pending.drain(..) {
                back.extend(
                    a.on_message(PeerId(0), m, t2)
                        .into_iter()
                        .filter_map(|o| match o {
                            Output::Send(_, m) => Some(m),
                            _ => None,
                        }),
                );
            }
            for m in back {
                b.on_message(PeerId(0), m, t2);
            }
        }
        assert_eq!(b.loc_rib().len(), 2, "refresh restores the routes");
        assert_eq!(b.check_invariants(), Ok(()));
    }

    #[test]
    fn hold_timer_expiry_clears_peer_routes() {
        let mut a = speaker(1);
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);
        // No keepalives flow; push time past the hold deadline.
        let outs = b.tick(SimTime::from_secs(300));
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Event(SpeakerEvent::PeerDown(_, _)))));
        assert!(b.loc_rib().get(&p).is_none());
    }

    /// Under MRAI packing, `WithdrawSent` must be recorded when the
    /// packed UPDATE actually hits the wire (at the flush), not when the
    /// delta is staged — and never for a staged withdraw that a later
    /// announce supersedes before the flush.
    #[test]
    fn mrai_records_withdraw_sent_at_flush_only() {
        let mrai = SimDuration::from_secs(10);
        let mut a =
            Speaker::new(SpeakerConfig::new(Asn(1), Ipv4Addr::new(10, 0, 0, 1)).with_mrai(mrai));
        let mut b = speaker(2);
        a.add_peer(PeerConfig::new(PeerId(0), Asn(2)));
        b.add_peer(PeerConfig::new(PeerId(0), Asn(1)).passive());
        let p = Prefix::v4(10, 10, 0, 0, 16);
        a.originate(p, SimTime::ZERO);
        settle(&mut a, &mut b, PeerId(0), PeerId(0), SimTime::ZERO);

        let log = ProvenanceLog::new();
        a.set_provenance(log.clone());
        let withdraw_sent = |log: &ProvenanceLog| {
            log.records()
                .into_iter()
                .filter(|r| matches!(r.event, ProvenanceEvent::WithdrawSent { .. }))
                .collect::<Vec<_>>()
        };

        // Staging records nothing: the withdrawal has not been sent.
        // (All times stay well inside the 90 s hold timer.)
        let t1 = SimTime::from_secs(1);
        let outs = a.withdraw_origin(p, t1);
        assert!(
            !outs.iter().any(|o| matches!(o, Output::Send(_, _))),
            "packed withdraw must stage, not send"
        );
        assert!(withdraw_sent(&log).is_empty());

        // Flushing records it, stamped with the flush time.
        let t2 = t1 + mrai;
        let outs = a.tick(t2);
        assert!(outs.iter().any(
            |o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if !u.withdrawn.is_empty())
        ));
        let sent = withdraw_sent(&log);
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].time, t2);
        assert!(matches!(
            sent[0].event,
            ProvenanceEvent::WithdrawSent { prefix, .. } if prefix == p
        ));

        // A withdraw superseded by a re-announce before the deadline
        // never hits the wire, so it is never recorded as sent.
        let t3 = SimTime::from_secs(20);
        a.originate(p, t3);
        a.tick(t3 + mrai);
        let t4 = SimTime::from_secs(40);
        a.withdraw_origin(p, t4);
        a.originate(p, t4 + SimDuration::from_secs(1));
        let outs = a.tick(t4 + mrai + SimDuration::from_secs(1));
        assert!(
            outs.iter().any(
                |o| matches!(o, Output::Send(_, BgpMessage::Update(u)) if !u.announced.is_empty())
            ),
            "the superseding announce flushes"
        );
        assert_eq!(
            withdraw_sent(&log).len(),
            1,
            "no WithdrawSent for the superseded staged withdraw"
        );
    }

    /// The UPDATEs in `outs`, by the peer they go to.
    fn updates_to(outs: &[Output]) -> Vec<PeerId> {
        let update = |o: &Output| match o {
            Output::Send(peer, BgpMessage::Update(_)) => Some(*peer),
            _ => None,
        };
        outs.iter().filter_map(update).collect()
    }

    /// [`feeder_and_listener`] pacing its exports at 30 s, the feeder held
    /// to two prefixes, with one export staged toward both peers at 1 s.
    fn paced_with_a_staged_export() -> Speaker {
        let cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        let mut s = establish_feeder_and_listener(
            Speaker::new(cfg.with_mrai(SimDuration::from_secs(30))),
            PeerConfig::new(PeerId(0), Asn(100)).with_max_prefix(MaxPrefixConfig::new(2)),
            PeerConfig::new(PeerId(1), Asn(200)),
        );
        let staged = s.originate(Prefix::v4(10, 9, 0, 0, 16), SimTime::from_secs(1));
        assert_eq!(updates_to(&staged), vec![], "paced exports stage");
        assert_eq!(s.next_deadline(), SimTime::from_secs(30), "keepalive first");
        s
    }

    #[test]
    fn max_prefix_cease_drops_the_deltas_staged_for_the_ceased_peer() {
        let mut s = paced_with_a_staged_export();
        let flood: Vec<Prefix> = (1..=3).map(|i| Prefix::v4(10, i, 0, 0, 16)).collect();
        let outs = s.on_message(PeerId(0), shared_attrs_update(&flood), SimTime::from_secs(2));
        assert!(!s.peer_established(PeerId(0)), "the flooder is ceased");
        assert_eq!(updates_to(&outs), vec![]);
        // Past the MRAI deadline the listener gets its batch; the staged
        // export toward the ceased session died with it.
        let flushed = s.tick(SimTime::from_secs(32));
        assert_eq!(updates_to(&flushed), vec![PeerId(1)]);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn restart_drops_every_staged_delta() {
        let mut s = paced_with_a_staged_export();
        s.restart(SimTime::from_secs(2));
        assert!(!s.peer_established(PeerId(0)) && !s.peer_established(PeerId(1)));
        assert_eq!(updates_to(&s.tick(SimTime::from_secs(32))), vec![]);
        assert_eq!(s.next_deadline(), SimTime::MAX, "no timer left armed");
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn remove_peer_takes_the_session_down_like_any_other_loss() {
        let mut s = feeder_and_listener(Policy::accept_all());
        let telemetry = Telemetry::new();
        s.set_telemetry(telemetry.clone());
        let p = Prefix::v4(10, 1, 0, 0, 16);
        s.on_message(PeerId(0), shared_attrs_update(&[p]), SimTime::from_secs(1));
        let outs = s.remove_peer(PeerId(0), SimTime::from_secs(2));
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Event(SpeakerEvent::PeerDown(PeerId(0), _))
        )));
        assert_eq!(updates_to(&outs), vec![PeerId(1)], "the route is withdrawn");
        let counters = telemetry.snapshot();
        assert_eq!(counters.counter("bgp.fsm.to_idle"), 1);
        assert_eq!(counters.counter("bgp.session.down"), 1);
        assert_eq!(s.peer_count(), 1);
        assert_eq!(s.check_invariants(), Ok(()));
    }

    /// A speaker (AS 65000) with one established feeder (peer 0, AS 100)
    /// and one established listener (peer 1, AS 200) exporting under
    /// `export`; the far ends are played by hand.
    fn feeder_and_listener(export: Policy) -> Speaker {
        establish_feeder_and_listener(
            speaker(65000),
            PeerConfig::new(PeerId(0), Asn(100)),
            PeerConfig::new(PeerId(1), Asn(200)).export(export),
        )
    }

    fn establish_feeder_and_listener(
        mut s: Speaker,
        feeder: PeerConfig,
        listener: PeerConfig,
    ) -> Speaker {
        for peer in [feeder, listener] {
            let (id, asn) = (peer.id.0, peer.asn.0);
            s.add_peer(peer);
            s.start_peer(PeerId(id), SimTime::ZERO);
            let open = crate::message::OpenMessage::new(Asn(asn), 90, Ipv4Addr::new(10, 1, 0, 1));
            s.on_message(PeerId(id), BgpMessage::Open(open), SimTime::ZERO);
            s.on_message(PeerId(id), BgpMessage::Keepalive, SimTime::ZERO);
            assert!(s.peer_established(PeerId(id)));
        }
        s
    }

    /// One UPDATE from the feeder: `prefixes` sharing one attribute set.
    fn shared_attrs_update(prefixes: &[Prefix]) -> BgpMessage {
        let attrs = PathAttributes {
            as_path: AsPath::from_asns(&[Asn(100), Asn(101)]),
            ..Default::default()
        };
        let nlris = prefixes.iter().copied().map(Nlri::plain).collect();
        BgpMessage::Update(UpdateMessage::announce(Arc::new(attrs), nlris))
    }

    #[test]
    fn prefix_reading_export_policy_is_decided_per_prefix() {
        // Two prefixes arrive in one UPDATE and share one interned
        // attribute set; an export policy that reads the prefix must
        // still give each its own verdict (and its own rewrite) rather
        // than the staged outcome memoized for the other.
        let (kept, dropped) = (Prefix::v4(10, 1, 0, 0, 16), Prefix::v4(10, 2, 0, 0, 16));
        let reads_prefix = Policy::accept_all()
            .rule(Match::PrefixExact(vec![dropped]), vec![Action::Reject])
            .rule(
                Match::PrefixIn(vec![Prefix::v4(10, 1, 0, 0, 16)]),
                vec![Action::Prepend(Asn(65000), 2)],
            );
        assert!(!reads_prefix.is_prefix_free());
        for order in [[kept, dropped], [dropped, kept]] {
            let mut s = feeder_and_listener(reads_prefix.clone());
            let outs = s.on_message(
                PeerId(0),
                shared_attrs_update(&order),
                SimTime::from_secs(1),
            );
            let sent: Vec<(Prefix, usize)> = outs
                .iter()
                .filter_map(|o| match o {
                    Output::Send(PeerId(1), BgpMessage::Update(u)) => {
                        let hops = u.attrs.as_ref()?.as_path.hop_count() as usize;
                        Some((u.announced[0].prefix, hops))
                    }
                    _ => None,
                })
                .collect();
            // The kept prefix goes out prepended twice on top of the
            // eBGP self-prepend; the dropped one does not go out at all.
            assert_eq!(sent, vec![(kept, 5)], "order {order:?}");
            let out = s.adj_rib_out(PeerId(1)).unwrap();
            assert!(out.get(&kept, 0).is_some() && out.get(&dropped, 0).is_none());
        }
    }

    #[test]
    fn prefix_free_export_policy_shares_one_staged_outcome() {
        // The counterpart: under a prefix-free policy the two prefixes
        // leave with the very same exported allocation, and the interner
        // statistics read as if each had been looked up on its own.
        let (a, b) = (Prefix::v4(10, 1, 0, 0, 16), Prefix::v4(10, 2, 0, 0, 16));
        let tag = Policy::accept_all().rule(Match::Any, vec![Action::SetMed(7)]);
        assert!(tag.is_prefix_free());
        let mut s = feeder_and_listener(tag);
        let before = s.interner_stats();
        s.on_message(
            PeerId(0),
            shared_attrs_update(&[a, b]),
            SimTime::from_secs(1),
        );
        let out = s.adj_rib_out(PeerId(1)).unwrap();
        let (ra, rb) = (out.get(&a, 0).unwrap(), out.get(&b, 0).unwrap());
        assert!(Arc::ptr_eq(&ra.attrs, &rb.attrs));
        assert_eq!(ra.attrs.med, Some(7));
        // Two imports and two listener-side exports; the feeder's own
        // group sees a split-horizon source but still stages it (2 more).
        // One allocation each for the imported and the exported set, and
        // a third for what goes back toward the feeder's group.
        let after = s.interner_stats();
        let lookups = (after.1 + after.2) - (before.1 + before.2);
        assert_eq!(lookups, 6);
        assert_eq!(after.2 - before.2, 3);
    }
}
