//! The Speaker's configuration: speaker-wide knobs, per-peer knobs, the
//! per-session prefix limits, and how a peer is assigned to an export
//! peer-group.

use crate::damping::DampingConfig;
use crate::decision::DecisionConfig;
use crate::fsm::ConnectRetryConfig;
use crate::policy::Policy;
use crate::rib::PeerId;
use peering_netsim::{Asn, SimDuration};
use std::net::Ipv4Addr;

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
    pub(super) const SOLO_BIT: u64 = 1 << 63;

    /// The dedicated single-member key for a peer that opted out of
    /// grouping (or was split out, e.g. by containment quarantine).
    pub fn solo(peer: PeerId) -> Self {
        ExportGroupKey(Self::SOLO_BIT | u64::from(peer.0))
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
    /// Never share: a dedicated group holding only this peer.
    Solo,
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
    /// [`Input::StartPeer`](super::Input::StartPeer) is a no-op until it
    /// is re-enabled — this is what lets a daemon restart bring back
    /// *configured* sessions without resurrecting ones an operator (or a
    /// migration plan) has deliberately torn down.
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

    /// Builder: opt out of export grouping — this peer always gets its
    /// own Adj-RIB-Out.
    pub fn export_solo(mut self) -> Self {
        self.grouping = ExportGrouping::Solo;
        self
    }
}
