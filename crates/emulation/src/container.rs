//! Containers and their resource accounting.

use peering_bgp::Speaker;
use serde::{Deserialize, Serialize};

/// What runs inside a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContainerKind {
    /// A router running a BGP daemon (the Quagga analog).
    Router,
    /// An end host (traffic source/sink).
    Host,
    /// A layer-2 switch.
    Switch,
}

/// Memory model constants, calibrated to the paper's context: Mininet
/// containers are cheap (network namespaces), a Quagga `bgpd` has a few
/// MB of baseline footprint, and the routing tables dominate at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceModel {
    /// Per-container namespace/bookkeeping overhead (bytes).
    pub container_base: usize,
    /// Baseline footprint of a routing daemon before any routes (bytes).
    pub daemon_base: usize,
    /// Baseline footprint of a plain host process (bytes).
    pub host_base: usize,
}

impl Default for ResourceModel {
    fn default() -> Self {
        ResourceModel {
            container_base: 1_500_000, // ~1.5 MB per namespace + veth
            daemon_base: 4_000_000,    // ~4 MB empty bgpd
            host_base: 500_000,
        }
    }
}

/// One emulated container.
pub struct Container {
    /// Name ("Amsterdam", "h1").
    pub name: String,
    /// Role.
    pub kind: ContainerKind,
    /// The hosted BGP daemon, if this is a router.
    pub daemon: Option<Speaker>,
}

impl Container {
    /// A router container hosting `daemon`.
    pub fn router(name: &str, daemon: Speaker) -> Self {
        Container {
            name: name.to_string(),
            kind: ContainerKind::Router,
            daemon: Some(daemon),
        }
    }

    /// A plain host container.
    pub fn host(name: &str) -> Self {
        Container {
            name: name.to_string(),
            kind: ContainerKind::Host,
            daemon: None,
        }
    }

    /// Estimated resident memory of this container under `model`.
    pub fn memory(&self, model: &ResourceModel) -> usize {
        let base = model.container_base
            + match self.kind {
                ContainerKind::Router => model.daemon_base,
                ContainerKind::Host => model.host_base,
                ContainerKind::Switch => 0,
            };
        base + self.daemon.as_ref().map(|d| d.table_memory()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::{Asn, SpeakerConfig};
    use std::net::Ipv4Addr;

    fn daemon() -> Speaker {
        Speaker::new(SpeakerConfig::new(Asn(65001), Ipv4Addr::new(10, 0, 0, 1)))
    }

    #[test]
    fn router_memory_includes_daemon_base() {
        let model = ResourceModel::default();
        let r = Container::router("r1", daemon());
        let h = Container::host("h1");
        assert!(r.memory(&model) > h.memory(&model));
        assert!(r.memory(&model) >= model.container_base + model.daemon_base);
    }

    #[test]
    fn memory_grows_with_routes() {
        let model = ResourceModel::default();
        let mut d = daemon();
        let empty = Container::router("r", daemon()).memory(&model);
        for i in 0..200u32 {
            let p = peering_bgp::Prefix::v4(10, (i >> 8) as u8, i as u8, 0, 24);
            let now = peering_netsim::SimTime::ZERO;
            d.apply(
                peering_bgp::Input::Originate(p, vec![]),
                now,
                &mut Vec::new(),
            );
        }
        let full = Container::router("r", d).memory(&model);
        assert!(full > empty);
    }

    #[test]
    fn kinds_have_expected_bases() {
        let model = ResourceModel::default();
        let s = Container {
            name: "sw".into(),
            kind: ContainerKind::Switch,
            daemon: None,
        };
        assert_eq!(s.memory(&model), model.container_base);
    }
}
