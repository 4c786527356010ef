//! The encoder half of [`crate::wire`]: the message is sized, then
//! written once.
//!
//! Sizing (`*_len`, `UpdateSize::of`) and writing (`put_*`) mirror each
//! other function for function; `encode_message` checks in debug builds
//! that they agreed, and the byte golden and `props` (capacity == length)
//! check it in every test run.

use super::{
    WireConfig, ATTR_AGGREGATOR, ATTR_AS_PATH, ATTR_ATOMIC_AGGREGATE, ATTR_COMMUNITY,
    ATTR_LOCAL_PREF, ATTR_MED, ATTR_MP_REACH, ATTR_MP_UNREACH, ATTR_NEXT_HOP, ATTR_ORIGIN,
    FLAG_EXT_LEN, FLAG_OPTIONAL, FLAG_TRANSITIVE, HEADER_LEN, MAX_MESSAGE, TYPE_KEEPALIVE,
    TYPE_NOTIFICATION, TYPE_OPEN, TYPE_ROUTE_REFRESH, TYPE_UPDATE,
};
use crate::attrs::{AsPath, AsPathSegment, PathAttributes};
use crate::error::BgpError;
use crate::message::{BgpMessage, Capability, Nlri, OpenMessage, UpdateMessage};
use bytes::BufMut;
use peering_netsim::{Asn, Prefix};
use std::sync::Arc;

/// MP_REACH_NLRI ahead of its NLRI: AFI, SAFI, next-hop length, the
/// 16-octet next hop, a reserved octet.
const MP_REACH_HEAD: usize = 2 + 1 + 1 + 16 + 1;
/// MP_UNREACH_NLRI ahead of its NLRI: AFI, SAFI.
const MP_UNREACH_HEAD: usize = 2 + 1;

/// `len` as a 2-octet length field, or `None` when a message that long
/// would exceed [`MAX_MESSAGE`].
fn wire_len(len: usize) -> Option<u16> {
    if len <= MAX_MESSAGE {
        u16::try_from(len).ok()
    } else {
        None
    }
}

/// The one buffer of a `total`-byte message, its header written.
fn message(total: u16, msg_type: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(usize::from(total));
    out.extend_from_slice(&[0xFF; 16]);
    out.put_u16(total);
    out.put_u8(msg_type);
    out
}

/// One NLRI: the path id under ADD-PATH, the length octet, and the
/// prefix's significant octets.
fn nlri_len(n: &Nlri, cfg: WireConfig) -> usize {
    let path_id = if cfg.add_path { 4 } else { 0 };
    path_id + 1 + usize::from(n.prefix.len()).div_ceil(8)
}

fn put_nlri(out: &mut Vec<u8>, n: &Nlri, cfg: WireConfig) {
    if cfg.add_path {
        out.put_u32(n.path_id.unwrap_or(0));
    }
    let len = n.prefix.len();
    out.put_u8(len);
    let octets = usize::from(len).div_ceil(8);
    match &n.prefix {
        Prefix::V4(p) => out.extend_from_slice(&p.network_u32().to_be_bytes()[..octets]),
        Prefix::V6(p) => out.extend_from_slice(&u128::from(p.network()).to_be_bytes()[..octets]),
    }
}

/// An attribute with a `value`-byte body: flags, type, and a one-octet
/// length, or a two-octet one past 255 (the extended-length flag).
fn attr_len(value: usize) -> usize {
    value + if value > 255 { 4 } else { 3 }
}

fn put_attr_header(out: &mut Vec<u8>, flags: u8, ty: u8, len: u16) {
    match u8::try_from(len) {
        Ok(short) => out.extend_from_slice(&[flags, ty, short]),
        Err(_) => {
            out.extend_from_slice(&[flags | FLAG_EXT_LEN, ty]);
            out.put_u16(len);
        }
    }
}

fn segment(seg: &AsPathSegment) -> (u8, &[Asn]) {
    match seg {
        AsPathSegment::Set(asns) => (1, asns),
        AsPathSegment::Sequence(asns) => (2, asns),
    }
}

/// The AS_PATH value. A segment's AS count is one octet, so a longer
/// segment goes out as runs of 255 (RFC 4271), each with its own type
/// and count octets; an empty segment writes nothing.
fn as_path_len(path: &AsPath) -> usize {
    path.segments
        .iter()
        .map(|seg| {
            let n = segment(seg).1.len();
            n.div_ceil(255) * 2 + n * 4
        })
        .sum()
}

fn put_as_path(out: &mut Vec<u8>, path: &AsPath) {
    for seg in &path.segments {
        let (ty, mut rest) = segment(seg);
        while !rest.is_empty() {
            let count = u8::try_from(rest.len()).unwrap_or(u8::MAX);
            let (run, tail) = rest.split_at(usize::from(count));
            out.extend_from_slice(&[ty, count]);
            for asn in run {
                out.put_u32(asn.0);
            }
            rest = tail;
        }
    }
}

/// The path-attribute block for `a` without the MP attributes, given its
/// AS_PATH value length.
fn attrs_len(a: &PathAttributes, as_path: usize) -> usize {
    let optional = |present: bool, value: usize| if present { attr_len(value) } else { 0 };
    attr_len(1)
        + attr_len(as_path)
        + attr_len(4)
        + optional(a.med.is_some(), 4)
        + optional(a.local_pref.is_some(), 4)
        + optional(a.atomic_aggregate, 0)
        + optional(a.aggregator.is_some(), 8)
        + optional(!a.communities.is_empty(), 4 * a.communities.len())
}

fn put_attrs(out: &mut Vec<u8>, a: &PathAttributes, size: &UpdateSize) {
    out.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ORIGIN, 1, a.origin.code()]);
    put_attr_header(out, FLAG_TRANSITIVE, ATTR_AS_PATH, size.as_path);
    put_as_path(out, &a.as_path);
    out.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4]);
    out.extend_from_slice(&a.next_hop.octets());
    if let Some(med) = a.med {
        out.extend_from_slice(&[FLAG_OPTIONAL, ATTR_MED, 4]);
        out.put_u32(med);
    }
    if let Some(lp) = a.local_pref {
        out.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_LOCAL_PREF, 4]);
        out.put_u32(lp);
    }
    if a.atomic_aggregate {
        out.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, 0]);
    }
    if let Some((asn, ip)) = a.aggregator {
        out.extend_from_slice(&[FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_AGGREGATOR, 8]);
        out.put_u32(asn.0);
        out.extend_from_slice(&ip.octets());
    }
    if !a.communities.is_empty() {
        put_attr_header(
            out,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITY,
            size.communities,
        );
        for c in &a.communities {
            out.put_u32(c.0);
        }
    }
}

/// The length fields of one UPDATE, computed before a byte is written.
/// IPv4 routes use the classic withdrawn-routes and NLRI fields, IPv6
/// routes the MP attributes.
struct UpdateSize {
    total: u16,
    /// The withdrawn-routes field.
    withdrawn: u16,
    /// The whole path-attribute block, MP attributes included.
    attrs: u16,
    /// The AS_PATH value.
    as_path: u16,
    /// The COMMUNITY value.
    communities: u16,
    /// MP_REACH_NLRI's value, when IPv6 routes are announced.
    mp_reach: Option<u16>,
    /// MP_UNREACH_NLRI's value, when IPv6 routes are withdrawn.
    mp_unreach: Option<u16>,
}

impl UpdateSize {
    fn of(u: &UpdateMessage, cfg: WireConfig) -> Result<UpdateSize, BgpError> {
        // NLRI bytes per family. Every NLRI has its length octet, so a
        // family with no routes, and only such a family, sums to 0.
        let by_family = |list: &[Nlri]| {
            list.iter().fold((0, 0), |(v4, v6), n| {
                if n.prefix.is_v4() {
                    (v4 + nlri_len(n, cfg), v6)
                } else {
                    (v4, v6 + nlri_len(n, cfg))
                }
            })
        };
        let (withdrawn, v6_withdrawn) = by_family(&u.withdrawn);
        let (announced, v6_announced) = by_family(&u.announced);
        let (as_path, communities, attrs) = match &u.attrs {
            Some(a) => {
                let as_path = as_path_len(&a.as_path);
                (as_path, 4 * a.communities.len(), attrs_len(a, as_path))
            }
            None if u.announced.is_empty() => (0, 0, 0),
            None => {
                return Err(BgpError::BadUpdate(
                    "announcement without attributes".into(),
                ))
            }
        };
        let mp_reach = (v6_announced > 0).then_some(MP_REACH_HEAD + v6_announced);
        let mp_unreach = (v6_withdrawn > 0).then_some(MP_UNREACH_HEAD + v6_withdrawn);
        let attrs = attrs + mp_reach.map_or(0, attr_len) + mp_unreach.map_or(0, attr_len);
        let total = HEADER_LEN + 2 + withdrawn + 2 + attrs + announced;
        // Every other length is part of the total, so once it fits they do.
        let field = |len: usize| {
            wire_len(len).ok_or_else(|| {
                BgpError::BadUpdate(format!("update too large ({total} bytes); chunk it"))
            })
        };
        Ok(UpdateSize {
            total: field(total)?,
            withdrawn: field(withdrawn)?,
            attrs: field(attrs)?,
            as_path: field(as_path)?,
            communities: field(communities)?,
            mp_reach: mp_reach.map(field).transpose()?,
            mp_unreach: mp_unreach.map(field).transpose()?,
        })
    }
}

fn put_update(out: &mut Vec<u8>, u: &UpdateMessage, size: &UpdateSize, cfg: WireConfig) {
    let v4 = |n: &&Nlri| n.prefix.is_v4();
    let v6 = |n: &&Nlri| !n.prefix.is_v4();
    out.put_u16(size.withdrawn);
    for n in u.withdrawn.iter().filter(v4) {
        put_nlri(out, n, cfg);
    }
    out.put_u16(size.attrs);
    if let Some(a) = &u.attrs {
        put_attrs(out, a, size);
        if let Some(len) = size.mp_reach {
            put_attr_header(out, FLAG_OPTIONAL, ATTR_MP_REACH, len);
            // AFI 2 (IPv6), SAFI 1 (unicast), the next hop v4-mapped.
            out.extend_from_slice(&[0, 2, 1, 16]);
            out.extend_from_slice(&a.next_hop.to_ipv6_mapped().octets());
            out.put_u8(0); // reserved
            for n in u.announced.iter().filter(v6) {
                put_nlri(out, n, cfg);
            }
        }
    }
    if let Some(len) = size.mp_unreach {
        put_attr_header(out, FLAG_OPTIONAL, ATTR_MP_UNREACH, len);
        out.extend_from_slice(&[0, 2, 1]);
        for n in u.withdrawn.iter().filter(v6) {
            put_nlri(out, n, cfg);
        }
    }
    for n in u.announced.iter().filter(v4) {
        put_nlri(out, n, cfg);
    }
}

/// One capability's wire bytes — code, length, value — and how many of
/// the six are used.
fn capability(c: &Capability) -> ([u8; 6], usize) {
    match *c {
        Capability::MpIpv4Unicast => ([1, 4, 0, 1, 0, 1], 6),
        Capability::MpIpv6Unicast => ([1, 4, 0, 2, 0, 1], 6),
        Capability::RouteRefresh => ([2, 0, 0, 0, 0, 0], 2),
        Capability::FourOctetAsn(asn) => {
            let [a, b, c, d] = asn.0.to_be_bytes();
            ([65, 4, a, b, c, d], 6)
        }
        Capability::AddPathIpv4 { send, receive } => {
            let mode = u8::from(receive) | u8::from(send) << 1;
            ([69, 4, 0, 1, 1, mode], 6)
        }
        Capability::GracefulRestart { restart_time_s } => {
            // RFC 4724: 4 flag bits (we never set the restart-state bit
            // on a fresh OPEN) + 12-bit restart time; no per-AFI
            // forwarding entries.
            let [hi, lo] = (restart_time_s & 0x0FFF).to_be_bytes();
            ([64, 2, hi, lo, 0, 0], 4)
        }
    }
}

fn encode_open(o: &OpenMessage) -> Result<Vec<u8>, BgpError> {
    let caps: usize = o.capabilities.iter().map(|c| capability(c).1).sum();
    // One optional parameter of type 2 (Capabilities): its length and the
    // optional-parameters length are both single octets.
    let too_long = || BgpError::BadOpen(format!("{caps} bytes of capabilities"));
    let params = u8::try_from(caps + 2).map_err(|_| too_long())?;
    // Version, 2-octet AS, hold time, router id, optional-parameters length.
    let total = wire_len(HEADER_LEN + 10 + usize::from(params)).ok_or_else(too_long)?;
    let mut out = message(total, TYPE_OPEN);
    out.put_u8(o.version);
    out.put_u16(o.my_as2);
    out.put_u16(o.hold_time);
    out.extend_from_slice(&o.router_id.octets());
    out.extend_from_slice(&[params, 2, params - 2]);
    for c in &o.capabilities {
        let (bytes, len) = capability(c);
        out.extend_from_slice(&bytes[..len]);
    }
    Ok(out)
}

/// Encode one message. UPDATEs must fit in [`MAX_MESSAGE`]; callers with
/// large route sets should use [`encode_update_chunked`].
pub fn encode_message(msg: &BgpMessage, cfg: WireConfig) -> Result<Vec<u8>, BgpError> {
    let out = match msg {
        BgpMessage::Open(o) => encode_open(o)?,
        BgpMessage::Update(u) => {
            let size = UpdateSize::of(u, cfg)?;
            let mut out = message(size.total, TYPE_UPDATE);
            put_update(&mut out, u, &size, cfg);
            out
        }
        BgpMessage::Notification(n) => {
            let total = HEADER_LEN + 2 + n.data.len();
            let len = wire_len(total)
                .ok_or_else(|| BgpError::BadNotification(format!("too large ({total} bytes)")))?;
            let mut out = message(len, TYPE_NOTIFICATION);
            out.extend_from_slice(&[n.code.code(), n.subcode]);
            out.extend_from_slice(&n.data);
            out
        }
        // The header alone.
        BgpMessage::Keepalive => message(19, TYPE_KEEPALIVE),
        BgpMessage::RouteRefresh => {
            // AFI 1 (IPv4), a reserved octet, SAFI 1 (unicast).
            let mut out = message(23, TYPE_ROUTE_REFRESH);
            out.extend_from_slice(&[0, 1, 0, 1]);
            out
        }
    };
    debug_assert_eq!(out.len(), out.capacity(), "{} sized wrong", msg.kind());
    Ok(out)
}

/// How many of `nlri` fit one message beside an attribute block of
/// `attrs` bytes: room for that many of the widest, plus the MP
/// attribute (`mp_head` bytes ahead of its NLRI) when any is IPv6.
fn nlri_per_message(
    nlri: &[Nlri],
    attrs: usize,
    mp_head: usize,
    cfg: WireConfig,
) -> Result<usize, BgpError> {
    let widest = nlri.iter().map(|n| nlri_len(n, cfg)).max().unwrap_or(1);
    // An MP attribute's header at its widest (extended length).
    let mp = if nlri.iter().all(|n| n.prefix.is_v4()) {
        0
    } else {
        4 + mp_head
    };
    match MAX_MESSAGE.checked_sub(HEADER_LEN + 2 + 2 + attrs + mp) {
        Some(room) if room >= widest => Ok(room / widest),
        _ => Err(BgpError::BadUpdate(format!(
            "{attrs} bytes of attributes leave no room for NLRI"
        ))),
    }
}

/// Encode an UPDATE, splitting the NLRI across as many messages as needed
/// to respect [`MAX_MESSAGE`]. Withdrawals and announcements are never
/// mixed with different attribute sets.
pub fn encode_update_chunked(u: &UpdateMessage, cfg: WireConfig) -> Result<Vec<Vec<u8>>, BgpError> {
    let mut msgs = Vec::new();
    if !u.withdrawn.is_empty() {
        let per_msg = nlri_per_message(&u.withdrawn, 0, MP_UNREACH_HEAD, cfg)?;
        for chunk in u.withdrawn.chunks(per_msg) {
            let m = UpdateMessage::withdraw(chunk.to_vec());
            msgs.push(encode_message(&BgpMessage::Update(m), cfg)?);
        }
    }
    if !u.announced.is_empty() {
        let attrs = u
            .attrs
            .as_ref()
            .ok_or_else(|| BgpError::BadUpdate("announcement without attributes".into()))?;
        let attrs_bytes = attrs_len(attrs, as_path_len(&attrs.as_path));
        let per_msg = nlri_per_message(&u.announced, attrs_bytes, MP_REACH_HEAD, cfg)?;
        for chunk in u.announced.chunks(per_msg) {
            let m = UpdateMessage::announce(Arc::clone(attrs), chunk.to_vec());
            msgs.push(encode_message(&BgpMessage::Update(m), cfg)?);
        }
    }
    if msgs.is_empty() {
        msgs.push(encode_message(
            &BgpMessage::Update(UpdateMessage {
                withdrawn: vec![],
                attrs: None,
                announced: vec![],
                trace: None,
            }),
            cfg,
        )?);
    }
    Ok(msgs)
}
