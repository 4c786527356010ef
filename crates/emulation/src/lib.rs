//! MinineXt-style lightweight intradomain emulation.
//!
//! §3 of the paper: "Mininet's lightweight container-based emulation
//! environment may be appropriate, allowing fine-grained control over
//! arbitrary topologies without the memory overhead of a virtual
//! machine... Our extension layer, MinineXt, makes it possible to build
//! highly-scalable PEERING experiments with ease" — and §4.2 demonstrates
//! it by emulating Hurricane Electric's 24-PoP backbone with a Quagga
//! routing engine per PoP on one 8 GB desktop.
//!
//! This crate is that layer for the reproduction:
//!
//! * [`container`] — containers with per-container resource accounting
//!   (the container itself is cheap; the daemons inside dominate).
//! * [`igp`] — shortest-path-first intradomain routing over weighted
//!   links, feeding IGP costs into the BGP decision process.
//! * [`emulation`] — the network namespace: containers, links, BGP
//!   sessions between hosted daemons, message scheduling over the
//!   discrete-event transport, and *external sessions* that connect an
//!   emulated router to something outside the emulation (a PEERING
//!   server).
//! * [`builder`] — build an emulation from a Topology-Zoo PoP map (one
//!   router per PoP, iBGP full mesh with IGP costs, one prefix per PoP)
//!   or as a flat mesh of single-router ASes over an edge list.
//! * [`host`] — placement of containers onto physical hosts with memory
//!   budgets ("to run even larger topologies... connect MinineXt
//!   containers across multiple physical hosts").

pub mod builder;
pub mod container;
pub mod emulation;
pub mod host;
pub mod igp;

pub use builder::{build_from_pops, flat_mesh, PopEmulation};
pub use container::{Container, ContainerKind, ResourceModel};
pub use emulation::{Emulation, ExternalHandle, SessionEnd};
pub use host::{place_containers, Placement, PlacementError};
pub use igp::{Spf, SpfTable};
