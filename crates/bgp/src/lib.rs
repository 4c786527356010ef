//! A from-scratch BGP-4 implementation.
//!
//! PEERING servers run software routers (Quagga today, BIRD planned) to
//! hold eBGP sessions with real peers while giving hosted experiments full
//! control over announcements. This crate is the reproduction's software
//! router: a complete, deterministic BGP implementation designed to run
//! inside the discrete-event simulation.
//!
//! What is implemented, mirroring the feature set the paper relies on:
//!
//! * **Wire protocol** (RFC 4271): OPEN / UPDATE / NOTIFICATION /
//!   KEEPALIVE encoding and decoding, path attributes, capabilities
//!   (4-octet ASN per RFC 6793, ADD-PATH per RFC 7911, multiprotocol v6
//!   per RFC 4760 in the minimal form the testbed needs).
//! * **Session FSM** (RFC 4271 §8) with hold/keepalive/connect-retry
//!   timers, collision-free because the transport is simulated.
//! * **RIBs**: per-peer Adj-RIB-In and Adj-RIB-Out plus a Loc-RIB, with
//!   shared (interned) path attributes so table memory matches how real
//!   implementations behave — this is what Figure 2 measures.
//! * **Decision process** (RFC 4271 §9.1): local-pref, AS-path length,
//!   origin, MED, eBGP-over-iBGP, IGP cost, router-id tiebreak.
//! * **Policy engine**: route-maps with prefix/AS-path/community matches
//!   and set/prepend/community actions, applied on import and export.
//! * **Route-flap damping** (RFC 2439), which PEERING applies to protect
//!   peers from experiment churn.
//! * **Route-server mode** (RFC 7947): transparent AS-path and next-hop,
//!   used by the IXP crate's multilateral route server.
//! * **ADD-PATH** (RFC 7911), the mechanism the paper proposes for
//!   multiplexing many upstream sessions over one client session (the
//!   "BIRD" mux design).
//! * **Deep memory accounting** for reproducing Figure 2.

pub mod attrs;
pub mod damping;
pub mod decision;
pub mod error;
pub mod fsm;
pub mod mem;
pub mod message;
pub mod policy;
pub mod provenance;
pub mod rib;
pub mod speaker;
pub mod wire;

pub use attrs::{AsPath, AsPathSegment, Community, Origin, PathAttributes};
pub use damping::{DampingConfig, DampingState};
pub use decision::{compare_routes, DecisionConfig};
pub use error::BgpError;
pub use fsm::{
    ConnectRetryConfig, FsmState, Negotiated, Session, SessionConfig, SessionEvent, SessionInput,
};
pub use mem::DeepSize;
pub use message::{
    BgpMessage, Capability, Nlri, NotifCode, NotificationMessage, OpenMessage, UpdateMessage,
};
pub use policy::{Action, DefaultVerdict, Match, Policy, PolicyRule};
pub use provenance::{
    ExportVerdict, ImportVerdict, ProvenanceEvent, ProvenanceLog, ProvenanceRecord,
};
pub use rib::{
    digest_routes, AdjRibIn, AdjRibOut, AttrInterner, LocRib, PeerId, Route, RouteSource,
};
pub use speaker::{
    AdvertiseMode, ExportGroupKey, ExportGrouping, Input, MaxPrefixConfig, Output, PeerConfig,
    PeerExists, Speaker, SpeakerConfig, SpeakerEvent, SpeakerMode,
};

// Re-export the substrate identifiers so downstream crates can use one path.
pub use peering_netsim::{Asn, Ipv4Net, Ipv6Net, Prefix, TraceId};
