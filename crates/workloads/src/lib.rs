//! Workloads and research scenarios for the PEERING testbed.
//!
//! Two halves:
//!
//! * **Workloads** — the synthetic stand-ins for the paper's measurement
//!   inputs: an Alexa-Top-500-style content catalog with per-page
//!   resources, FQDNs, CDN-concentrated hosting and a DNS resolver
//!   ([`alexa`]); and traffic generation ([`traffic`]).
//! * **Scenarios** ([`scenarios`]) — runnable reproductions of the
//!   studies the paper cites as enabled by PEERING: LIFEGUARD failure
//!   avoidance, PoiRoot root-cause analysis, ARROW tunneling, PECAN
//!   joint content/network routing, man-in-the-middle hijack emulation,
//!   secure-BGP partial deployment, anycast catchment mapping, and a
//!   decoy-routing service.
//!
//! Plus two adversarial campaigns: [`chaos`] (sessions must survive the
//! network misbehaving) and [`abuse`] (the testbed must contain a
//! *client* misbehaving while bystanders converge untouched), and the
//! [`scale`] differential harness that pins the parallel event engine
//! to the sequential engine's Loc-RIB digests, checkpoint by
//! checkpoint, on topologies up to the full 2014 Internet.

pub mod abuse;
pub mod alexa;
pub mod catalog;
pub mod chaos;
pub mod mux_scale;
pub mod scale;
pub mod scenarios;
pub mod traffic;

pub use abuse::{AbuseReport, AbuseScenario};
pub use alexa::{CatalogConfig, ContentCatalog, Fqdn, WebSite};
pub use catalog::{migrations, MigrationSpec, ScenarioSpec};
pub use chaos::{ChaosReport, ChaosTopology};
pub use mux_scale::{run_design, MuxScalePoint, MuxScaleReport};
pub use scale::{differential, engine_profile_smoke, spaced_checkpoints, ScaleTopo};
pub use traffic::{Flow, TrafficMatrix};
