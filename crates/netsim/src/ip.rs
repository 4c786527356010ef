//! A minimal IPv4 data plane: packets, payloads, and longest-prefix-match
//! forwarding tables.
//!
//! PEERING experiments exchange *real traffic* with the Internet; here the
//! traffic is simulated but follows the same rules: TTL decrement and
//! expiry (enabling traceroute), ICMP errors, UDP probes, and IP-in-IP
//! encapsulation for the OpenVPN-style tunnels between clients and servers
//! and for ARROW-style detour tunnels.

use crate::net::Ipv4Net;
use crate::trie::RadixTrie;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// Packet payloads understood by the simulated data plane.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// ICMP echo request (ping).
    EchoRequest {
        /// Probe identifier.
        id: u16,
        /// Sequence number.
        seq: u16,
    },
    /// ICMP echo reply.
    EchoReply {
        /// Probe identifier.
        id: u16,
        /// Sequence number.
        seq: u16,
    },
    /// ICMP time exceeded, sent by the router where TTL hit zero.
    TtlExceeded {
        /// Destination of the original packet.
        orig_dst: Ipv4Addr,
    },
    /// ICMP destination unreachable (no route).
    Unreachable {
        /// Destination of the original packet.
        orig_dst: Ipv4Addr,
    },
    /// UDP datagram with opaque application bytes.
    Udp {
        /// Source port.
        sport: u16,
        /// Destination port.
        dport: u16,
        /// Application payload.
        data: Vec<u8>,
    },
    /// An encapsulated inner packet (IP-in-IP / tunnel).
    Encap(Box<IpPacket>),
    /// Uninterpreted bytes.
    Raw(Vec<u8>),
}

impl Payload {
    /// Approximate on-the-wire size of the payload in bytes.
    pub fn size(&self) -> usize {
        match self {
            Payload::EchoRequest { .. } | Payload::EchoReply { .. } => 8,
            Payload::TtlExceeded { .. } | Payload::Unreachable { .. } => 36,
            Payload::Udp { data, .. } => 8 + data.len(),
            Payload::Encap(inner) => inner.size(),
            Payload::Raw(b) => b.len(),
        }
    }
}

/// A simulated IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpPacket {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Time to live; decremented per hop.
    pub ttl: u8,
    /// The payload.
    pub payload: Payload,
}

impl IpPacket {
    /// Default initial TTL.
    pub const DEFAULT_TTL: u8 = 64;

    /// Build a packet with the default TTL.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, payload: Payload) -> Self {
        IpPacket {
            src,
            dst,
            ttl: Self::DEFAULT_TTL,
            payload,
        }
    }

    /// Build a ping probe.
    pub fn echo_request(src: Ipv4Addr, dst: Ipv4Addr, id: u16, seq: u16) -> Self {
        IpPacket::new(src, dst, Payload::EchoRequest { id, seq })
    }

    /// Approximate total size (20-byte header + payload).
    pub fn size(&self) -> usize {
        20 + self.payload.size()
    }

    /// Wrap this packet in a tunnel envelope between tunnel endpoints.
    pub fn encapsulate(self, outer_src: Ipv4Addr, outer_dst: Ipv4Addr) -> IpPacket {
        IpPacket::new(outer_src, outer_dst, Payload::Encap(Box::new(self)))
    }

    /// Unwrap one layer of tunnel encapsulation, if present.
    pub fn decapsulate(self) -> Option<IpPacket> {
        match self.payload {
            Payload::Encap(inner) => Some(*inner),
            _ => None,
        }
    }
}

impl fmt::Display for IpPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ttl={} ", self.src, self.dst, self.ttl)?;
        match &self.payload {
            Payload::EchoRequest { id, seq } => write!(f, "echo-req id={id} seq={seq}"),
            Payload::EchoReply { id, seq } => write!(f, "echo-rep id={id} seq={seq}"),
            Payload::TtlExceeded { orig_dst } => write!(f, "ttl-exceeded orig={orig_dst}"),
            Payload::Unreachable { orig_dst } => write!(f, "unreachable orig={orig_dst}"),
            Payload::Udp { sport, dport, data } => {
                write!(f, "udp {sport}->{dport} {}B", data.len())
            }
            Payload::Encap(inner) => write!(f, "encap[{inner}]"),
            Payload::Raw(b) => write!(f, "raw {}B", b.len()),
        }
    }
}

/// A longest-prefix-match forwarding table mapping prefixes to next hops.
///
/// The next-hop type is generic: the AS-level data plane uses ASNs, the
/// intradomain emulation uses node indices, and PEERING servers use
/// upstream peer identifiers.
#[derive(Debug, Clone)]
pub struct ForwardingTable<T> {
    // A binary radix trie: one masked descent per lookup instead of a
    // scan over every populated prefix length. `iter` yields the trie's
    // preorder — deterministic (address, length) order — so FIB walks
    // can still feed compiled forwarding snapshots (`nd-hash-iter`).
    trie: RadixTrie<u32, T>,
}

impl<T> Default for ForwardingTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ForwardingTable<T> {
    /// Create an empty table.
    pub fn new() -> Self {
        ForwardingTable {
            trie: RadixTrie::new(),
        }
    }

    /// Insert or replace the entry for `net`. Returns the old value if the
    /// exact prefix was already present.
    pub fn insert(&mut self, net: Ipv4Net, next_hop: T) -> Option<T> {
        self.trie.insert(net.network_u32(), net.len(), next_hop)
    }

    /// Remove the exact-match entry for `net`.
    pub fn remove(&mut self, net: &Ipv4Net) -> Option<T> {
        self.trie.remove(net.network_u32(), net.len())
    }

    /// Longest-prefix-match lookup: the most specific covering entry.
    pub fn lookup(&self, ip: Ipv4Addr) -> Option<(Ipv4Net, &T)> {
        self.trie
            .longest_match(u32::from(ip))
            .map(|(addr, len, t)| (Ipv4Net::new(Ipv4Addr::from(addr), len), t))
    }

    /// Exact-match lookup.
    pub fn get(&self, net: &Ipv4Net) -> Option<&T> {
        self.trie.get(net.network_u32(), net.len())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// Iterate all `(prefix, next_hop)` entries in ascending
    /// `(address, length)` order.
    pub fn iter(&self) -> impl Iterator<Item = (Ipv4Net, &T)> {
        self.trie
            .iter()
            .map(|(addr, len, t)| (Ipv4Net::new(Ipv4Addr::from(addr), len), t))
    }

    /// Iterate the entries covered by `net` (including the exact entry),
    /// in ascending `(address, length)` order.
    pub fn covered(&self, net: &Ipv4Net) -> impl Iterator<Item = (Ipv4Net, &T)> {
        self.trie
            .covered(net.network_u32(), net.len())
            .map(|(addr, len, t)| (Ipv4Net::new(Ipv4Addr::from(addr), len), t))
    }

    /// Remove every entry.
    pub fn clear(&mut self) {
        self.trie.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = ForwardingTable::new();
        t.insert(net("10.0.0.0/8"), "coarse");
        t.insert(net("10.1.0.0/16"), "mid");
        t.insert(net("10.1.2.0/24"), "fine");
        let ip = |s: &str| s.parse::<Ipv4Addr>().unwrap();
        assert_eq!(t.lookup(ip("10.1.2.3")).unwrap().1, &"fine");
        assert_eq!(t.lookup(ip("10.1.9.9")).unwrap().1, &"mid");
        assert_eq!(t.lookup(ip("10.200.0.1")).unwrap().1, &"coarse");
        assert_eq!(t.lookup(ip("11.0.0.1")), None);
    }

    #[test]
    fn default_route() {
        let mut t = ForwardingTable::new();
        t.insert(net("0.0.0.0/0"), 99u32);
        assert_eq!(t.lookup("8.8.8.8".parse().unwrap()).unwrap().1, &99);
        t.insert(net("8.0.0.0/8"), 8u32);
        assert_eq!(t.lookup("8.8.8.8".parse().unwrap()).unwrap().1, &8);
    }

    #[test]
    fn insert_replace_and_remove() {
        let mut t = ForwardingTable::new();
        assert_eq!(t.insert(net("192.0.2.0/24"), 1), None);
        assert_eq!(t.insert(net("192.0.2.0/24"), 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(&net("192.0.2.0/24")), Some(2));
        assert!(t.is_empty());
        assert_eq!(t.remove(&net("192.0.2.0/24")), None);
        assert_eq!(t.lookup("192.0.2.1".parse().unwrap()), None);
    }

    #[test]
    fn exact_get_vs_lpm() {
        let mut t = ForwardingTable::new();
        t.insert(net("10.0.0.0/8"), 1);
        assert_eq!(t.get(&net("10.0.0.0/8")), Some(&1));
        assert_eq!(t.get(&net("10.0.0.0/16")), None); // exact only
    }

    #[test]
    fn iter_and_clear() {
        let mut t = ForwardingTable::new();
        t.insert(net("10.0.0.0/8"), 1);
        t.insert(net("20.0.0.0/8"), 2);
        let mut got: Vec<_> = t.iter().map(|(p, v)| (p.to_string(), *v)).collect();
        got.sort();
        assert_eq!(
            got,
            vec![("10.0.0.0/8".into(), 1), ("20.0.0.0/8".into(), 2)]
        );
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.lookup("10.0.0.1".parse().unwrap()), None);
    }

    #[test]
    fn packet_sizes_and_display() {
        let p = IpPacket::echo_request(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            7,
            1,
        );
        assert_eq!(p.size(), 28);
        assert!(p.to_string().contains("echo-req"));
        let udp = IpPacket::new(
            p.src,
            p.dst,
            Payload::Udp {
                sport: 1000,
                dport: 53,
                data: vec![0; 100],
            },
        );
        assert_eq!(udp.size(), 128);
    }

    #[test]
    fn tunnel_encap_decap_roundtrip() {
        let inner = IpPacket::echo_request(
            "10.0.0.1".parse().unwrap(),
            "203.0.113.5".parse().unwrap(),
            1,
            1,
        );
        let outer = inner
            .clone()
            .encapsulate("100.64.0.1".parse().unwrap(), "100.64.0.2".parse().unwrap());
        assert_eq!(outer.size(), 20 + inner.size());
        assert_eq!(outer.decapsulate(), Some(inner.clone()));
        assert_eq!(inner.decapsulate(), None);
    }
}
