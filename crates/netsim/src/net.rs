//! Fundamental network identifiers: AS numbers and IP prefixes.
//!
//! These types are shared by every layer of the reproduction — the BGP
//! implementation, the topology model, the IXP, and the testbed itself —
//! so they live in the substrate crate at the bottom of the dependency
//! graph.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// An autonomous system number (4-octet per RFC 6793).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Asn(pub u32);

impl Asn {
    /// PEERING's public ASN in the real deployment (AS47065).
    pub const PEERING: Asn = Asn(47065);

    /// True for 2-byte and 4-byte private-use ranges (RFC 6996).
    ///
    /// PEERING assigns private ASNs to emulated domains "behind" its public
    /// ASN and strips them before announcements reach the Internet.
    pub fn is_private(self) -> bool {
        (64512..=65534).contains(&self.0) || (4_200_000_000..=4_294_967_294).contains(&self.0)
    }

    /// True for ASNs reserved by IANA (0, 23456, 65535, 4294967295, doc ranges).
    pub fn is_reserved(self) -> bool {
        matches!(self.0, 0 | 23456 | 65535 | 4_294_967_295)
            || (64496..=64511).contains(&self.0)
            || (65536..=65551).contains(&self.0)
    }

    /// True if the ASN may legitimately appear on the public Internet.
    pub fn is_public(self) -> bool {
        !self.is_private() && !self.is_reserved()
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl From<u32> for Asn {
    fn from(v: u32) -> Self {
        Asn(v)
    }
}

/// Error produced when parsing a prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError(pub String);

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for PrefixParseError {}

/// An IPv4 network in CIDR form; host bits are always zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Ipv4Net {
    addr: u32,
    len: u8,
}

impl Ipv4Net {
    /// Construct, masking away host bits. Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "IPv4 prefix length {len} > 32");
        let raw = u32::from(addr);
        Ipv4Net {
            addr: raw & Self::mask(len),
            len,
        }
    }

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The (masked) network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.addr)
    }

    /// Raw network address as an integer.
    pub fn network_u32(&self) -> u32 {
        self.addr
    }

    /// Prefix length in bits.
    // A prefix length is not a container size; there is no is_empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Number of addresses covered (saturating for /0).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len as u64).min(63)
    }

    /// True if `ip` falls inside this network.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) & Self::mask(self.len)) == self.addr
    }

    /// True if `other` is equal to or more specific than `self`.
    pub fn covers(&self, other: &Ipv4Net) -> bool {
        other.len >= self.len && (other.addr & Self::mask(self.len)) == self.addr
    }

    /// True if the two networks share any address.
    pub fn overlaps(&self, other: &Ipv4Net) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th address within the network (no bounds check beyond size).
    pub fn addr_at(&self, i: u32) -> Ipv4Addr {
        Ipv4Addr::from(self.addr.wrapping_add(i))
    }

    /// Split into consecutive subnets of length `sub_len`.
    ///
    /// Used by the PEERING prefix allocator to carve /24 experiment
    /// prefixes out of the testbed's /19. Returns an empty vector when
    /// `sub_len < self.len`.
    pub fn subnets(&self, sub_len: u8) -> Vec<Ipv4Net> {
        assert!(sub_len <= 32);
        if sub_len < self.len {
            return Vec::new();
        }
        let count = 1u64 << (sub_len - self.len).min(31);
        let step = 1u64 << (32 - sub_len);
        (0..count)
            .map(|i| Ipv4Net {
                addr: self.addr + (i * step) as u32,
                len: sub_len,
            })
            .collect()
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Split CIDR text into an address and a length of at most `max` bits.
fn parse_cidr<A: FromStr>(s: &str, max: u8) -> Result<(A, u8), PrefixParseError> {
    let (a, l) = s
        .split_once('/')
        .ok_or_else(|| PrefixParseError(format!("{s}: missing '/'")))?;
    let addr = a
        .parse()
        .map_err(|_| PrefixParseError(format!("{s}: bad address")))?;
    let len: u8 = l
        .parse()
        .map_err(|_| PrefixParseError(format!("{s}: bad length")))?;
    if len > max {
        return Err(PrefixParseError(format!("{s}: length > {max}")));
    }
    Ok((addr, len))
}

impl FromStr for Ipv4Net {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = parse_cidr(s, 32)?;
        Ok(Ipv4Net::new(addr, len))
    }
}

/// An IPv6 network in CIDR form; host bits are always zero.
///
/// The paper lists IPv6 support as planned work; the control plane here
/// handles v6 prefixes end to end so that extension is exercised.
///
/// The address is stored as big-endian bytes rather than a `u128`: the
/// byte array has alignment 1, which keeps [`Prefix`] at 20 bytes
/// (alignment 4) instead of 48, and big-endian byte order compares like
/// the integer, so the derived `Ord` is unchanged. `Hash` and the serde
/// form are written by hand to stay those of `(u128, u8)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ipv6Net {
    addr: [u8; 16],
    len: u8,
}

impl Ipv6Net {
    /// Construct, masking away host bits. Panics if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Self {
        assert!(len <= 128, "IPv6 prefix length {len} > 128");
        Self::from_raw(u128::from(addr) & Self::mask(len), len)
    }

    fn from_raw(addr: u128, len: u8) -> Self {
        Ipv6Net {
            addr: addr.to_be_bytes(),
            len,
        }
    }

    /// The network address as an integer.
    fn raw(&self) -> u128 {
        u128::from_be_bytes(self.addr)
    }

    fn mask(len: u8) -> u128 {
        if len == 0 {
            0
        } else {
            u128::MAX << (128 - len)
        }
    }

    /// The (masked) network address.
    pub fn network(&self) -> Ipv6Addr {
        Ipv6Addr::from(self.addr)
    }

    /// Prefix length in bits.
    // A prefix length is not a container size; there is no is_empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True if `ip` falls inside this network.
    pub fn contains(&self, ip: Ipv6Addr) -> bool {
        (u128::from(ip) & Self::mask(self.len)) == self.raw()
    }

    /// True if `other` is equal to or more specific than `self`.
    pub fn covers(&self, other: &Ipv6Net) -> bool {
        other.len >= self.len && (other.raw() & Self::mask(self.len)) == self.raw()
    }

    /// True if the two networks share any address.
    pub fn overlaps(&self, other: &Ipv6Net) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `i`-th address within the network.
    pub fn addr_at(&self, i: u128) -> Ipv6Addr {
        Ipv6Addr::from(self.raw().wrapping_add(i))
    }

    /// Split into consecutive subnets of length `sub_len`, capped at
    /// `max` results (a /32 holds 65,536 /48s — nobody needs them all in
    /// a `Vec` at once). Returns an empty vector when `sub_len < len`.
    pub fn subnets(&self, sub_len: u8, max: usize) -> Vec<Ipv6Net> {
        assert!(sub_len <= 128);
        if sub_len < self.len {
            return Vec::new();
        }
        let count_exp = (sub_len - self.len) as u32;
        let count = if count_exp >= 64 {
            u64::MAX
        } else {
            1u64 << count_exp
        };
        // `::/0` into /0 is the one subnet whose step (2^128) overflows.
        let step = 1u128.checked_shl(u32::from(128 - sub_len)).unwrap_or(0);
        (0..count.min(max as u64))
            .map(|i| Ipv6Net::from_raw(self.raw() + i as u128 * step, sub_len))
            .collect()
    }
}

impl Hash for Ipv6Net {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw().hash(state);
        self.len.hash(state);
    }
}

impl Serialize for Ipv6Net {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("addr".to_string(), self.raw().to_value()),
            ("len".to_string(), self.len.to_value()),
        ])
    }
}

impl Deserialize for Ipv6Net {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let addr = u128::from_value(v.get("addr"))?;
        Ok(Ipv6Net::from_raw(addr, u8::from_value(v.get("len"))?))
    }
}

impl fmt::Display for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl fmt::Debug for Ipv6Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Ipv6Net {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = parse_cidr(s, 128)?;
        Ok(Ipv6Net::new(addr, len))
    }
}

/// An IP prefix of either family, the unit of BGP reachability (NLRI).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Prefix {
    /// IPv4 network.
    V4(Ipv4Net),
    /// IPv6 network.
    V6(Ipv6Net),
}

impl Prefix {
    /// Convenience constructor for IPv4.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Prefix {
        Prefix::V4(Ipv4Net::new(Ipv4Addr::new(a, b, c, d), len))
    }

    /// Prefix length in bits.
    // A prefix length is not a container size; there is no is_empty.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        match self {
            Prefix::V4(p) => p.len(),
            Prefix::V6(p) => p.len(),
        }
    }

    /// True for IPv4 prefixes.
    pub fn is_v4(&self) -> bool {
        matches!(self, Prefix::V4(_))
    }

    /// The IPv4 network, if this is a v4 prefix.
    pub fn as_v4(&self) -> Option<&Ipv4Net> {
        match self {
            Prefix::V4(p) => Some(p),
            Prefix::V6(_) => None,
        }
    }

    /// True if `other` is equal to or more specific than `self`
    /// (always false across families).
    pub fn covers(&self, other: &Prefix) -> bool {
        match (self, other) {
            (Prefix::V4(a), Prefix::V4(b)) => a.covers(b),
            (Prefix::V6(a), Prefix::V6(b)) => a.covers(b),
            _ => false,
        }
    }

    /// True if the two prefixes share any address.
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prefix::V4(p) => write!(f, "{p}"),
            Prefix::V6(p) => write!(f, "{p}"),
        }
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            Ok(Prefix::V6(s.parse()?))
        } else {
            Ok(Prefix::V4(s.parse()?))
        }
    }
}

impl From<Ipv4Net> for Prefix {
    fn from(p: Ipv4Net) -> Self {
        Prefix::V4(p)
    }
}

impl From<Ipv6Net> for Prefix {
    fn from(p: Ipv6Net) -> Self {
        Prefix::V6(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_classes() {
        assert!(Asn(65000).is_private());
        assert!(Asn(4_200_000_100).is_private());
        assert!(Asn(0).is_reserved());
        assert!(Asn(23456).is_reserved());
        assert!(Asn(64500).is_reserved()); // documentation range
        assert!(Asn(3356).is_public());
        assert!(Asn::PEERING.is_public());
        assert_eq!(Asn(174).to_string(), "AS174");
    }

    #[test]
    fn v4_masks_host_bits() {
        let p = Ipv4Net::new(Ipv4Addr::new(10, 1, 2, 3), 16);
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(p.size(), 65536);
    }

    #[test]
    fn v4_contains_and_covers() {
        let p: Ipv4Net = "192.0.2.0/24".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 200)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 1)));
        let wider: Ipv4Net = "192.0.0.0/16".parse().unwrap();
        assert!(wider.covers(&p));
        assert!(!p.covers(&wider));
        assert!(p.covers(&p));
        assert!(wider.overlaps(&p) && p.overlaps(&wider));
        let disjoint: Ipv4Net = "198.51.100.0/24".parse().unwrap();
        assert!(!p.overlaps(&disjoint));
    }

    #[test]
    fn v4_zero_length_prefix() {
        let all: Ipv4Net = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains(Ipv4Addr::new(8, 8, 8, 8)));
        assert!(all.covers(&"10.0.0.0/8".parse().unwrap()));
    }

    #[test]
    fn v4_subnets_carve_correctly() {
        // The PEERING /19 carves into 32 * /24s.
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let subs = pool.subnets(24);
        assert_eq!(subs.len(), 32);
        assert_eq!(subs[0].to_string(), "184.164.224.0/24");
        assert_eq!(subs[31].to_string(), "184.164.255.0/24");
        for w in subs.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
        }
        for s in &subs {
            assert!(pool.covers(s));
        }
        assert!(pool.subnets(16).is_empty());
        assert_eq!(pool.subnets(19), vec![pool]);
    }

    #[test]
    fn v4_parse_failures() {
        assert!("10.0.0.0".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Net>().is_err());
        assert!("10.0.0.300/8".parse::<Ipv4Net>().is_err());
        assert!("banana/8".parse::<Ipv4Net>().is_err());
    }

    #[test]
    fn v6_basics() {
        let p: Ipv6Net = "2001:db8::/32".parse().unwrap();
        assert!(p.contains("2001:db8::1".parse().unwrap()));
        assert!(!p.contains("2001:db9::1".parse().unwrap()));
        assert_eq!(p.to_string(), "2001:db8::/32");
        let more: Ipv6Net = "2001:db8:1::/48".parse().unwrap();
        assert!(p.covers(&more));
        assert!("::/129".parse::<Ipv6Net>().is_err());
    }

    #[test]
    fn v6_subnets_and_addresses() {
        let pool: Ipv6Net = "2804:269c::/32".parse().unwrap();
        let subs = pool.subnets(48, 10);
        assert_eq!(subs.len(), 10, "capped");
        assert_eq!(subs[0].to_string(), "2804:269c::/48");
        assert_eq!(subs[1].to_string(), "2804:269c:1::/48");
        for w in subs.windows(2) {
            assert!(!w[0].overlaps(&w[1]));
            assert!(pool.covers(&w[0]));
        }
        assert!(pool.subnets(16, 10).is_empty());
        let a = subs[2].addr_at(7);
        assert!(subs[2].contains(a));
        assert!(!subs[3].contains(a));
        assert!(pool.overlaps(&subs[5]));
    }

    #[test]
    fn prefix_enum_dispatch() {
        let v4: Prefix = "203.0.113.0/24".parse().unwrap();
        let v6: Prefix = "2001:db8::/32".parse().unwrap();
        assert!(v4.is_v4());
        assert!(!v6.is_v4());
        assert_eq!(v4.len(), 24);
        assert_eq!(v6.len(), 32);
        assert!(!v4.covers(&v6));
        assert!(!v4.overlaps(&v6));
        assert_eq!(Prefix::v4(203, 0, 113, 0, 24), v4);
        assert_eq!(format!("{v4}"), "203.0.113.0/24");
    }

    #[test]
    fn prefix_is_twenty_bytes() {
        // A `u128` v6 address would make every prefix 48 bytes.
        assert_eq!(std::mem::size_of::<Prefix>(), 20);
        assert_eq!(std::mem::align_of::<Prefix>(), 4);
    }

    #[test]
    fn prefix_ordering_is_total_and_stable() {
        let mut ps: Vec<Prefix> = vec![
            "10.0.0.0/8".parse().unwrap(),
            "10.0.0.0/16".parse().unwrap(),
            "9.0.0.0/8".parse().unwrap(),
            "2001:db8::/32".parse().unwrap(),
        ];
        ps.sort();
        assert_eq!(ps[0], "9.0.0.0/8".parse().unwrap());
        // All v4 sort before v6 (enum variant order).
        assert!(ps[3].to_string().contains(':'));
    }
}
