//! RFC 4271 wire encoding and decoding.
//!
//! The simulation passes messages between speakers as structs for speed,
//! but the codec is complete and round-trip tested so the implementation
//! would interoperate at the byte level: header with marker, OPEN with
//! capabilities (RFC 5492), UPDATE with the full attribute set, 4-octet AS
//! paths (RFC 6793), ADD-PATH NLRI (RFC 7911), and IPv6 NLRI carried in
//! MP_REACH/MP_UNREACH attributes (RFC 4760).
//!
//! The encoder's contract: each message is written once, into one `Vec`
//! of exactly its size. Pure functions compute the length of every
//! section first; header, withdrawn routes, attributes and NLRI are then
//! written straight into that buffer, so an encode is one allocation and
//! no copy. Every length field is checked against its width, never
//! truncated: a message over [`MAX_MESSAGE`], or capabilities past OPEN's
//! one-octet parameter lengths, is a [`BgpError`] — whatever encodes,
//! [`decode_message`] reads back in full. The encoder lives in the
//! private `encode` submodule; this file holds the shared wire constants
//! and the decoder.

mod encode;

pub use encode::{encode_message, encode_update_chunked};

use crate::attrs::{AsPath, AsPathSegment, Community, Origin, PathAttributes};
use crate::error::BgpError;
use crate::message::{
    BgpMessage, Capability, Nlri, NotifCode, NotificationMessage, OpenMessage, UpdateMessage,
};
use bytes::Buf;
use peering_netsim::{Asn, Ipv4Net, Ipv6Net, Prefix};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

/// Maximum BGP message size (RFC 4271). The encoder never exceeds it;
/// use [`encode_update_chunked`] for large RIB transfers.
pub const MAX_MESSAGE: usize = 4096;
const HEADER_LEN: usize = 19;

const TYPE_OPEN: u8 = 1;
const TYPE_UPDATE: u8 = 2;
const TYPE_NOTIFICATION: u8 = 3;
const TYPE_KEEPALIVE: u8 = 4;
const TYPE_ROUTE_REFRESH: u8 = 5;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_ATOMIC_AGGREGATE: u8 = 6;
const ATTR_AGGREGATOR: u8 = 7;
const ATTR_COMMUNITY: u8 = 8;
const ATTR_MP_REACH: u8 = 14;
const ATTR_MP_UNREACH: u8 = 15;

const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

/// Encoding options negotiated per session.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireConfig {
    /// ADD-PATH in effect for IPv4 unicast: NLRI carry 4-byte path IDs.
    pub add_path: bool,
}

// ---------------------------------------------------------------- decode

fn need(buf: &[u8], n: usize, what: &str) -> Result<(), BgpError> {
    if buf.len() < n {
        Err(BgpError::BadUpdate(format!(
            "truncated {what}: need {n}, have {}",
            buf.len()
        )))
    } else {
        Ok(())
    }
}

fn get_v4_nlri(buf: &mut &[u8], cfg: WireConfig) -> Result<Nlri, BgpError> {
    let path_id = if cfg.add_path {
        need(buf, 4, "path id")?;
        Some(buf.get_u32())
    } else {
        None
    };
    need(buf, 1, "nlri length")?;
    let len = buf.get_u8();
    if len > 32 {
        return Err(BgpError::BadUpdate(format!("v4 prefix length {len}")));
    }
    let n = (len as usize).div_ceil(8);
    need(buf, n, "nlri body")?;
    let mut octets = [0u8; 4];
    octets[..n].copy_from_slice(&buf[..n]);
    buf.advance(n);
    Ok(Nlri {
        prefix: Prefix::V4(Ipv4Net::new(Ipv4Addr::from(octets), len)),
        path_id,
    })
}

fn get_v6_nlri(buf: &mut &[u8], cfg: WireConfig) -> Result<Nlri, BgpError> {
    let path_id = if cfg.add_path {
        need(buf, 4, "path id")?;
        Some(buf.get_u32())
    } else {
        None
    };
    need(buf, 1, "nlri length")?;
    let len = buf.get_u8();
    if len > 128 {
        return Err(BgpError::BadUpdate(format!("v6 prefix length {len}")));
    }
    let n = (len as usize).div_ceil(8);
    need(buf, n, "nlri body")?;
    let mut octets = [0u8; 16];
    octets[..n].copy_from_slice(&buf[..n]);
    buf.advance(n);
    Ok(Nlri {
        prefix: Prefix::V6(Ipv6Net::new(Ipv6Addr::from(octets), len)),
        path_id,
    })
}

fn decode_as_path(mut buf: &[u8]) -> Result<AsPath, BgpError> {
    let mut segments = Vec::new();
    while !buf.is_empty() {
        need(buf, 2, "as-path segment header")?;
        let ty = buf.get_u8();
        let count = buf.get_u8() as usize;
        need(buf, count * 4, "as-path segment body")?;
        let mut asns = Vec::with_capacity(count);
        for _ in 0..count {
            asns.push(Asn(buf.get_u32()));
        }
        match ty {
            1 => segments.push(AsPathSegment::Set(asns)),
            2 => segments.push(AsPathSegment::Sequence(asns)),
            t => return Err(BgpError::BadAttribute(format!("as-path segment type {t}"))),
        }
    }
    // Merge adjacent sequences produced by chunked encoding.
    let mut merged: Vec<AsPathSegment> = Vec::new();
    for seg in segments {
        match (merged.last_mut(), seg) {
            (Some(AsPathSegment::Sequence(a)), AsPathSegment::Sequence(b)) => a.extend(b),
            (_, s) => merged.push(s),
        }
    }
    Ok(AsPath { segments: merged })
}

/// Decode a single message from the front of `data`, returning the message
/// and the number of bytes consumed.
pub fn decode_message(data: &[u8], cfg: WireConfig) -> Result<(BgpMessage, usize), BgpError> {
    if data.len() < HEADER_LEN {
        return Err(BgpError::BadHeader(format!("{} bytes", data.len())));
    }
    if data[..16].iter().any(|&b| b != 0xFF) {
        return Err(BgpError::BadHeader("marker not all-ones".into()));
    }
    let total = u16::from_be_bytes([data[16], data[17]]) as usize;
    if !(HEADER_LEN..=MAX_MESSAGE).contains(&total) {
        return Err(BgpError::BadLength(total as u16));
    }
    if data.len() < total {
        return Err(BgpError::BadHeader(format!(
            "message claims {total} bytes, have {}",
            data.len()
        )));
    }
    let msg_type = data[18];
    let body = &data[HEADER_LEN..total];
    let msg = match msg_type {
        TYPE_OPEN => BgpMessage::Open(decode_open(body)?),
        TYPE_UPDATE => BgpMessage::Update(decode_update(body, cfg)?),
        TYPE_NOTIFICATION => {
            if body.len() < 2 {
                return Err(BgpError::BadNotification("too short".into()));
            }
            let code = NotifCode::from_code(body[0])
                .ok_or_else(|| BgpError::BadNotification(format!("code {}", body[0])))?;
            BgpMessage::Notification(NotificationMessage {
                code,
                subcode: body[1],
                data: body[2..].to_vec(),
            })
        }
        TYPE_KEEPALIVE => {
            if !body.is_empty() {
                return Err(BgpError::BadLength(total as u16));
            }
            BgpMessage::Keepalive
        }
        TYPE_ROUTE_REFRESH => BgpMessage::RouteRefresh,
        t => return Err(BgpError::BadType(t)),
    };
    Ok((msg, total))
}

fn decode_open(mut body: &[u8]) -> Result<OpenMessage, BgpError> {
    if body.len() < 10 {
        return Err(BgpError::BadOpen("too short".into()));
    }
    let version = body.get_u8();
    if version != 4 {
        return Err(BgpError::BadOpen(format!("version {version}")));
    }
    let my_as2 = body.get_u16();
    let hold_time = body.get_u16();
    if hold_time == 1 || hold_time == 2 {
        return Err(BgpError::BadOpen(format!("hold time {hold_time}")));
    }
    let router_id = Ipv4Addr::new(body[0], body[1], body[2], body[3]);
    body.advance(4);
    let opt_len = body.get_u8() as usize;
    if body.len() < opt_len {
        return Err(BgpError::BadOpen("optional params truncated".into()));
    }
    let mut params = &body[..opt_len];
    let mut capabilities = Vec::new();
    while params.len() >= 2 {
        let ptype = params.get_u8();
        let plen = params.get_u8() as usize;
        if params.len() < plen {
            return Err(BgpError::BadOpen("param truncated".into()));
        }
        let (pbody, rest) = params.split_at(plen);
        params = rest;
        if ptype != 2 {
            continue; // unknown parameter types are skipped
        }
        let mut caps = pbody;
        while caps.len() >= 2 {
            let code = caps.get_u8();
            let clen = caps.get_u8() as usize;
            if caps.len() < clen {
                return Err(BgpError::BadOpen("capability truncated".into()));
            }
            let (cval, rest) = caps.split_at(clen);
            caps = rest;
            match (code, clen) {
                (1, 4) => {
                    let afi = u16::from_be_bytes([cval[0], cval[1]]);
                    match afi {
                        1 => capabilities.push(Capability::MpIpv4Unicast),
                        2 => capabilities.push(Capability::MpIpv6Unicast),
                        _ => {}
                    }
                }
                (2, 0) => capabilities.push(Capability::RouteRefresh),
                (65, 4) => capabilities.push(Capability::FourOctetAsn(Asn(u32::from_be_bytes([
                    cval[0], cval[1], cval[2], cval[3],
                ])))),
                (69, 4) => {
                    let mode = cval[3];
                    capabilities.push(Capability::AddPathIpv4 {
                        send: mode & 2 != 0,
                        receive: mode & 1 != 0,
                    });
                }
                (64, n) if n >= 2 => {
                    // Graceful restart: mask off the 4 flag bits, keep the
                    // 12-bit restart time; ignore trailing AFI/SAFI tuples.
                    let restart_time_s = u16::from_be_bytes([cval[0] & 0x0F, cval[1]]);
                    capabilities.push(Capability::GracefulRestart { restart_time_s });
                }
                _ => {} // unknown capabilities are ignored
            }
        }
    }
    Ok(OpenMessage {
        version,
        my_as2,
        hold_time,
        router_id,
        capabilities,
    })
}

/// How a malformed path attribute is handled under RFC 7606.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorTreatment {
    /// The error poisons message framing (or an MP attribute carrying
    /// NLRI): the session must be reset (RFC 7606 §2 last resort).
    SessionReset,
    /// The NLRI parsed, so the routes in the UPDATE are handled as if
    /// they had been withdrawn; the session stays up (RFC 7606 §2).
    TreatAsWithdraw,
    /// The attribute cannot affect route selection: drop it, keep the
    /// route (RFC 7606 §2, e.g. ATOMIC_AGGREGATE / AGGREGATOR).
    AttributeDiscard,
}

/// The RFC 7606 classification for a malformed attribute of type `ty`.
///
/// ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF, and COMMUNITY errors are
/// treat-as-withdraw (§7.1–§7.5, RFC 7606-updated community handling);
/// ATOMIC_AGGREGATE and AGGREGATOR are attribute-discard (§7.6–§7.7);
/// MP_REACH/MP_UNREACH errors compromise the NLRI itself and stay
/// session-reset (§5.1). Unrecognized well-known attributes are demoted
/// to treat-as-withdraw: the NLRI is intact, only the attributes are
/// suspect.
pub fn treatment_for_attr(ty: u8) -> ErrorTreatment {
    match ty {
        ATTR_ATOMIC_AGGREGATE | ATTR_AGGREGATOR => ErrorTreatment::AttributeDiscard,
        ATTR_MP_REACH | ATTR_MP_UNREACH => ErrorTreatment::SessionReset,
        _ => ErrorTreatment::TreatAsWithdraw,
    }
}

/// An UPDATE decoded under RFC 7606 revised error handling.
#[derive(Debug, Clone)]
pub struct RevisedUpdate {
    /// The decoded message. When `treat_as_withdraw` is set the attrs
    /// are partial and must not be used for route selection.
    pub update: UpdateMessage,
    /// A treat-as-withdraw-class attribute was malformed: the caller
    /// must handle every announced route as withdrawn.
    pub treat_as_withdraw: bool,
    /// Attribute type codes dropped under attribute-discard.
    pub discarded: Vec<u8>,
}

/// Decode one attribute body into `attrs`/`withdrawn`/`v6_announced`.
/// Errors are attribute-scoped: the value slice is already framed, so a
/// failure here never desynchronizes the surrounding attribute stream.
#[allow(clippy::too_many_arguments)]
fn decode_one_attr(
    flags: u8,
    ty: u8,
    val: &[u8],
    cfg: WireConfig,
    attrs: &mut PathAttributes,
    withdrawn: &mut Vec<Nlri>,
    v6_announced: &mut Vec<Nlri>,
) -> Result<(), BgpError> {
    match ty {
        ATTR_ORIGIN => {
            if val.len() != 1 {
                return Err(BgpError::BadAttribute("origin length".into()));
            }
            attrs.origin = Origin::from_code(val[0])
                .ok_or_else(|| BgpError::BadAttribute(format!("origin {}", val[0])))?;
        }
        ATTR_AS_PATH => attrs.as_path = decode_as_path(val)?,
        ATTR_NEXT_HOP => {
            if val.len() != 4 {
                return Err(BgpError::BadAttribute("next-hop length".into()));
            }
            attrs.next_hop = Ipv4Addr::new(val[0], val[1], val[2], val[3]);
        }
        ATTR_MED => {
            if val.len() != 4 {
                return Err(BgpError::BadAttribute("med length".into()));
            }
            attrs.med = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
        }
        ATTR_LOCAL_PREF => {
            if val.len() != 4 {
                return Err(BgpError::BadAttribute("local-pref length".into()));
            }
            attrs.local_pref = Some(u32::from_be_bytes([val[0], val[1], val[2], val[3]]));
        }
        ATTR_ATOMIC_AGGREGATE => {
            if !val.is_empty() {
                return Err(BgpError::BadAttribute("atomic-aggregate length".into()));
            }
            attrs.atomic_aggregate = true;
        }
        ATTR_AGGREGATOR => {
            if val.len() != 8 {
                return Err(BgpError::BadAttribute("aggregator length".into()));
            }
            attrs.aggregator = Some((
                Asn(u32::from_be_bytes([val[0], val[1], val[2], val[3]])),
                Ipv4Addr::new(val[4], val[5], val[6], val[7]),
            ));
        }
        ATTR_COMMUNITY => {
            if !val.len().is_multiple_of(4) {
                return Err(BgpError::BadAttribute("community length".into()));
            }
            for c in val.chunks(4) {
                attrs.add_community(Community(u32::from_be_bytes([c[0], c[1], c[2], c[3]])));
            }
        }
        ATTR_MP_REACH => {
            let mut v = val;
            need(v, 5, "mp-reach header")?;
            let afi = v.get_u16();
            let _safi = v.get_u8();
            let nh_len = v.get_u8() as usize;
            need(v, nh_len + 1, "mp-reach next hop")?;
            if afi == 2 && nh_len == 16 {
                let mut nh = [0u8; 16];
                nh.copy_from_slice(&v[..16]);
                if let Some(v4) = Ipv6Addr::from(nh).to_ipv4_mapped() {
                    attrs.next_hop = v4;
                }
            }
            v.advance(nh_len);
            v.advance(1); // reserved
            if afi == 2 {
                while !v.is_empty() {
                    v6_announced.push(get_v6_nlri(&mut v, cfg)?);
                }
            }
        }
        ATTR_MP_UNREACH => {
            let mut v = val;
            need(v, 3, "mp-unreach header")?;
            let afi = v.get_u16();
            let _safi = v.get_u8();
            if afi == 2 {
                while !v.is_empty() {
                    withdrawn.push(get_v6_nlri(&mut v, cfg)?);
                }
            }
        }
        _ => {
            // Unknown optional attributes are tolerated (and dropped);
            // unknown well-known attributes are an error.
            if flags & FLAG_OPTIONAL == 0 {
                return Err(BgpError::BadAttribute(format!("unknown well-known {ty}")));
            }
        }
    }
    Ok(())
}

fn decode_update(body: &[u8], cfg: WireConfig) -> Result<UpdateMessage, BgpError> {
    decode_update_impl(body, cfg, false).map(|r| r.update)
}

/// Decode an UPDATE body under RFC 7606 revised error handling.
///
/// Framing errors — truncated sections, attribute headers overrunning
/// the attribute block, unparsable NLRI, malformed MP attributes — still
/// return `Err` (session-reset): once framing is suspect nothing behind
/// it can be trusted. Attribute-scoped semantic errors are downgraded
/// per [`treatment_for_attr`] and reported in the [`RevisedUpdate`].
pub fn decode_update_revised(body: &[u8], cfg: WireConfig) -> Result<RevisedUpdate, BgpError> {
    decode_update_impl(body, cfg, true)
}

fn decode_update_impl(
    body: &[u8],
    cfg: WireConfig,
    revised: bool,
) -> Result<RevisedUpdate, BgpError> {
    let mut buf = body;
    need(buf, 2, "withdrawn length")?;
    let wd_len = buf.get_u16() as usize;
    need(buf, wd_len, "withdrawn routes")?;
    let (mut wd_buf, rest) = buf.split_at(wd_len);
    buf = rest;
    let mut withdrawn = Vec::new();
    while !wd_buf.is_empty() {
        withdrawn.push(get_v4_nlri(&mut wd_buf, cfg)?);
    }
    need(buf, 2, "attribute length")?;
    let attr_len = buf.get_u16() as usize;
    need(buf, attr_len, "attributes")?;
    let (mut attr_buf, mut nlri_buf) = buf.split_at(attr_len);

    let mut attrs = PathAttributes::default();
    let mut have_attrs = false;
    let mut v6_announced: Vec<Nlri> = Vec::new();
    let mut treat_as_withdraw = false;
    let mut discarded: Vec<u8> = Vec::new();
    while !attr_buf.is_empty() {
        need(attr_buf, 2, "attribute header")?;
        let flags = attr_buf.get_u8();
        let ty = attr_buf.get_u8();
        let vlen = if flags & FLAG_EXT_LEN != 0 {
            need(attr_buf, 2, "ext attr length")?;
            attr_buf.get_u16() as usize
        } else {
            need(attr_buf, 1, "attr length")?;
            attr_buf.get_u8() as usize
        };
        need(attr_buf, vlen, "attribute value")?;
        let (val, rest) = attr_buf.split_at(vlen);
        attr_buf = rest;
        have_attrs = true;
        if let Err(e) = decode_one_attr(
            flags,
            ty,
            val,
            cfg,
            &mut attrs,
            &mut withdrawn,
            &mut v6_announced,
        ) {
            if !revised {
                return Err(e);
            }
            match treatment_for_attr(ty) {
                ErrorTreatment::SessionReset => return Err(e),
                ErrorTreatment::TreatAsWithdraw => treat_as_withdraw = true,
                ErrorTreatment::AttributeDiscard => discarded.push(ty),
            }
        }
    }

    let mut announced = v6_announced;
    while !nlri_buf.is_empty() {
        announced.push(get_v4_nlri(&mut nlri_buf, cfg)?);
    }
    if !announced.is_empty() && !have_attrs {
        // RFC 7606 §5.3: NLRI with no attributes at all still parsed, so
        // the routes can be handled as withdrawn instead of resetting.
        if revised {
            treat_as_withdraw = true;
        } else {
            return Err(BgpError::BadUpdate("NLRI without attributes".into()));
        }
    }
    Ok(RevisedUpdate {
        update: UpdateMessage {
            trace: None,
            withdrawn,
            attrs: if have_attrs {
                Some(Arc::new(attrs))
            } else {
                None
            },
            announced,
        },
        treat_as_withdraw,
        discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &BgpMessage, cfg: WireConfig) -> BgpMessage {
        let bytes = encode_message(msg, cfg).expect("encode");
        let (decoded, used) = decode_message(&bytes, cfg).expect("decode");
        assert_eq!(used, bytes.len());
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        let m = BgpMessage::Keepalive;
        assert_eq!(roundtrip(&m, WireConfig::default()), m);
        let bytes = encode_message(&m, WireConfig::default()).unwrap();
        assert_eq!(bytes.len(), 19);
    }

    #[test]
    fn open_roundtrip_with_capabilities() {
        let m = BgpMessage::Open(
            OpenMessage::new(Asn(4_200_000_042), 180, Ipv4Addr::new(192, 0, 2, 1))
                .with_add_path(true, true),
        );
        let got = roundtrip(&m, WireConfig::default());
        if let (BgpMessage::Open(a), BgpMessage::Open(b)) = (&m, &got) {
            assert_eq!(a.asn(), b.asn());
            assert_eq!(a.hold_time, b.hold_time);
            assert_eq!(a.router_id, b.router_id);
            assert_eq!(b.add_path(), (true, true));
            assert_eq!(b.my_as2, 23456);
        } else {
            panic!("wrong type");
        }
    }

    #[test]
    fn update_roundtrip_full_attributes() {
        let attrs = PathAttributes {
            origin: Origin::Egp,
            as_path: AsPath::from_asns(&[Asn(64512), Asn(3356), Asn(1299)]),
            next_hop: Ipv4Addr::new(10, 9, 8, 7),
            med: Some(50),
            local_pref: Some(120),
            atomic_aggregate: true,
            aggregator: Some((Asn(3356), Ipv4Addr::new(4, 4, 4, 4))),
            communities: vec![Community::new(3356, 100), Community::NO_EXPORT],
        };
        let m = BgpMessage::Update(UpdateMessage {
            trace: None,
            withdrawn: vec![Nlri::plain(Prefix::v4(198, 51, 100, 0, 24))],
            attrs: Some(Arc::new(attrs.clone())),
            announced: vec![
                Nlri::plain(Prefix::v4(192, 0, 2, 0, 24)),
                Nlri::plain(Prefix::v4(203, 0, 113, 0, 25)),
            ],
        });
        let got = roundtrip(&m, WireConfig::default());
        if let BgpMessage::Update(u) = got {
            assert_eq!(u.withdrawn.len(), 1);
            assert_eq!(u.announced.len(), 2);
            let a = u.attrs.unwrap();
            assert_eq!(*a, attrs);
        } else {
            panic!("wrong type");
        }
    }

    #[test]
    fn update_roundtrip_with_add_path() {
        let cfg = WireConfig { add_path: true };
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            next_hop: Ipv4Addr::new(1, 2, 3, 4),
            ..Default::default()
        });
        let m = BgpMessage::Update(UpdateMessage {
            trace: None,
            withdrawn: vec![Nlri::with_path_id(Prefix::v4(10, 0, 0, 0, 8), 3)],
            attrs: Some(attrs),
            announced: vec![Nlri::with_path_id(Prefix::v4(10, 1, 0, 0, 16), 7)],
        });
        let got = roundtrip(&m, cfg);
        if let BgpMessage::Update(u) = got {
            assert_eq!(u.withdrawn[0].path_id, Some(3));
            assert_eq!(u.announced[0].path_id, Some(7));
        } else {
            panic!("wrong type");
        }
    }

    #[test]
    fn update_roundtrip_ipv6_mp_reach() {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(6939)]),
            next_hop: Ipv4Addr::new(80, 249, 208, 1),
            ..Default::default()
        });
        let m = BgpMessage::Update(UpdateMessage {
            trace: None,
            withdrawn: vec![Nlri::plain("2001:db8:dead::/48".parse().unwrap())],
            attrs: Some(attrs),
            announced: vec![
                Nlri::plain("2001:db8::/32".parse().unwrap()),
                Nlri::plain(Prefix::v4(5, 5, 5, 0, 24)),
            ],
        });
        let got = roundtrip(&m, WireConfig::default());
        if let BgpMessage::Update(u) = got {
            assert_eq!(u.announced.len(), 2);
            assert!(u.announced.iter().any(|n| !n.prefix.is_v4()));
            assert!(u.announced.iter().any(|n| n.prefix.is_v4()));
            assert_eq!(u.withdrawn.len(), 1);
            assert!(!u.withdrawn[0].prefix.is_v4());
            assert_eq!(u.attrs.unwrap().next_hop, Ipv4Addr::new(80, 249, 208, 1));
        } else {
            panic!("wrong type");
        }
    }

    #[test]
    fn notification_roundtrip() {
        let m = BgpMessage::Notification(NotificationMessage {
            code: NotifCode::Cease,
            subcode: 2,
            data: vec![1, 2, 3],
        });
        assert_eq!(roundtrip(&m, WireConfig::default()), m);
    }

    #[test]
    fn route_refresh_roundtrip() {
        let m = BgpMessage::RouteRefresh;
        assert_eq!(roundtrip(&m, WireConfig::default()), m);
    }

    #[test]
    fn long_as_path_chunks_and_merges() {
        // 600 ASes forces multiple 255-AS segments on the wire.
        let asns: Vec<Asn> = (1..=600).map(Asn).collect();
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&asns),
            next_hop: Ipv4Addr::new(1, 1, 1, 1),
            ..Default::default()
        });
        let m = BgpMessage::Update(UpdateMessage::announce(
            attrs,
            vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))],
        ));
        let got = roundtrip(&m, WireConfig::default());
        if let BgpMessage::Update(u) = got {
            let path = &u.attrs.unwrap().as_path;
            assert_eq!(path.hop_count(), 600);
            assert_eq!(path.segments.len(), 1, "chunks must merge back");
            assert_eq!(path.origin_as(), Some(Asn(600)));
        } else {
            panic!("wrong type");
        }
    }

    #[test]
    fn decode_rejects_bad_marker() {
        let mut bytes = encode_message(&BgpMessage::Keepalive, WireConfig::default()).unwrap();
        bytes[0] = 0;
        assert!(matches!(
            decode_message(&bytes, WireConfig::default()),
            Err(BgpError::BadHeader(_))
        ));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = encode_message(&BgpMessage::Keepalive, WireConfig::default()).unwrap();
        assert!(decode_message(&bytes[..10], WireConfig::default()).is_err());
        // Length field claims more than present.
        let mut b = bytes.clone();
        b[17] = 200;
        assert!(decode_message(&b, WireConfig::default()).is_err());
    }

    #[test]
    fn decode_rejects_bad_type_and_length() {
        let mut bytes = encode_message(&BgpMessage::Keepalive, WireConfig::default()).unwrap();
        bytes[18] = 99;
        assert!(matches!(
            decode_message(&bytes, WireConfig::default()),
            Err(BgpError::BadType(99))
        ));
        let mut b2 = encode_message(&BgpMessage::Keepalive, WireConfig::default()).unwrap();
        b2[16] = 0;
        b2[17] = 10; // < 19
        assert!(matches!(
            decode_message(&b2, WireConfig::default()),
            Err(BgpError::BadLength(10))
        ));
    }

    #[test]
    fn decode_rejects_bad_open() {
        let mut m = OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1));
        m.hold_time = 2; // invalid per RFC
        let bytes = encode_message(&BgpMessage::Open(m), WireConfig::default()).unwrap();
        assert!(matches!(
            decode_message(&bytes, WireConfig::default()),
            Err(BgpError::BadOpen(_))
        ));
    }

    #[test]
    fn chunked_encoding_splits_large_updates() {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            next_hop: Ipv4Addr::new(1, 1, 1, 1),
            ..Default::default()
        });
        let nlri: Vec<Nlri> = (0..2000u32)
            .map(|i| Nlri::plain(Prefix::v4(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24)))
            .collect();
        let m = UpdateMessage::announce(attrs, nlri);
        let msgs = encode_update_chunked(&m, WireConfig::default()).unwrap();
        assert!(msgs.len() > 1);
        let mut total = 0;
        for bytes in &msgs {
            assert!(bytes.len() <= MAX_MESSAGE);
            let (dec, _) = decode_message(bytes, WireConfig::default()).unwrap();
            if let BgpMessage::Update(u) = dec {
                total += u.announced.len();
            }
        }
        assert_eq!(total, 2000);
    }

    #[test]
    fn oversized_single_update_is_an_error() {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            next_hop: Ipv4Addr::new(1, 1, 1, 1),
            ..Default::default()
        });
        let nlri: Vec<Nlri> = (0..2000u32)
            .map(|i| Nlri::plain(Prefix::v4(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24)))
            .collect();
        let m = BgpMessage::Update(UpdateMessage::announce(attrs, nlri));
        assert!(encode_message(&m, WireConfig::default()).is_err());
    }

    #[test]
    fn notification_past_the_message_cap_is_an_error() {
        let notification = |len: usize| {
            BgpMessage::Notification(NotificationMessage {
                code: NotifCode::Cease,
                subcode: 0,
                data: vec![0xAB; len],
            })
        };
        let cfg = WireConfig::default();
        // Header, code and subcode leave 4,075 bytes of data.
        let largest = notification(MAX_MESSAGE - HEADER_LEN - 2);
        assert_eq!(roundtrip(&largest, cfg), largest);
        for len in [MAX_MESSAGE - HEADER_LEN - 1, 5_000, 70_000] {
            assert!(
                matches!(
                    encode_message(&notification(len), cfg),
                    Err(BgpError::BadNotification(_))
                ),
                "{len} data bytes"
            );
        }
    }

    #[test]
    fn open_capabilities_past_one_octet_are_an_error() {
        let open = |caps: usize| {
            let mut o = OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1));
            o.capabilities = vec![Capability::RouteRefresh; caps];
            BgpMessage::Open(o)
        };
        let cfg = WireConfig::default();
        // 126 two-byte capabilities + the parameter header = 254 bytes of
        // optional parameters: the one-octet length still holds them.
        assert_eq!(roundtrip(&open(126), cfg), open(126));
        assert!(matches!(
            encode_message(&open(127), cfg),
            Err(BgpError::BadOpen(_))
        ));
        // 63 capabilities of the usual kinds: 374 bytes.
        let mut o = OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1));
        for _ in 0..60 {
            o = o.with_add_path(true, true);
        }
        assert_eq!(o.capabilities.len(), 63);
        assert!(matches!(
            encode_message(&BgpMessage::Open(o), cfg),
            Err(BgpError::BadOpen(_))
        ));
    }

    #[test]
    fn chunking_refuses_attributes_that_fill_a_message() {
        let announce = |hops: u32| {
            let attrs = Arc::new(PathAttributes {
                as_path: AsPath::from_asns(&(1..=hops).map(Asn).collect::<Vec<_>>()),
                next_hop: Ipv4Addr::new(1, 1, 1, 1),
                ..Default::default()
            });
            let nlri = (0..300u32)
                .map(|i| Nlri::plain(Prefix::v4(10, (i >> 8) as u8, (i & 0xFF) as u8, 0, 24)))
                .collect();
            UpdateMessage::announce(attrs, nlri)
        };
        let cfg = WireConfig::default();
        // 1,020 ASes: the attributes alone outgrow a message.
        assert!(matches!(
            encode_update_chunked(&announce(1_020), cfg),
            Err(BgpError::BadUpdate(_))
        ));
        // 1,000 ASes leave room for a few NLRI per message.
        let msgs = encode_update_chunked(&announce(1_000), cfg).expect("chunk");
        assert!(msgs.len() > 1);
        let mut total = 0;
        for bytes in &msgs {
            let (BgpMessage::Update(u), used) = decode_message(bytes, cfg).expect("decode") else {
                panic!("wrong type");
            };
            assert_eq!(used, bytes.len());
            assert_eq!(u.attrs.expect("attrs").as_path.hop_count(), 1_000);
            total += u.announced.len();
        }
        assert_eq!(total, 300);
    }

    /// Assemble a raw UPDATE body from its three sections.
    fn update_body(withdrawn: &[u8], attrs: &[u8], nlri: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&(withdrawn.len() as u16).to_be_bytes());
        body.extend_from_slice(withdrawn);
        body.extend_from_slice(&(attrs.len() as u16).to_be_bytes());
        body.extend_from_slice(attrs);
        body.extend_from_slice(nlri);
        body
    }

    #[test]
    fn revised_decode_treats_bad_origin_as_withdraw() {
        // ORIGIN with length 2 is malformed; the NLRI still parses.
        let attrs = [FLAG_TRANSITIVE, ATTR_ORIGIN, 2, 0, 0];
        let body = update_body(&[], &attrs, &[8, 10]);
        assert!(matches!(
            decode_update(&body, WireConfig::default()),
            Err(BgpError::BadAttribute(_))
        ));
        let r = decode_update_revised(&body, WireConfig::default()).unwrap();
        assert!(r.treat_as_withdraw);
        assert!(r.discarded.is_empty());
        assert_eq!(
            r.update.announced,
            vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]
        );
    }

    #[test]
    fn revised_decode_discards_bad_aggregator() {
        let mut attrs = Vec::new();
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ORIGIN, 1, 0]);
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_AS_PATH, 6, 2, 1, 0, 0, 0, 9]);
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4, 192, 0, 2, 1]);
        // AGGREGATOR must be 8 bytes; 3 is attribute-discard territory.
        attrs.extend_from_slice(&[FLAG_OPTIONAL | FLAG_TRANSITIVE, ATTR_AGGREGATOR, 3, 1, 2, 3]);
        let body = update_body(&[], &attrs, &[8, 10]);
        assert!(decode_update(&body, WireConfig::default()).is_err());
        let r = decode_update_revised(&body, WireConfig::default()).unwrap();
        assert!(!r.treat_as_withdraw);
        assert_eq!(r.discarded, vec![ATTR_AGGREGATOR]);
        // The route survives with the good attributes intact.
        assert_eq!(r.update.announced.len(), 1);
        let a = r.update.attrs.as_ref().unwrap();
        assert_eq!(a.next_hop, Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(a.aggregator, None);
    }

    #[test]
    fn revised_decode_discards_nonempty_atomic_aggregate() {
        let mut attrs = Vec::new();
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ORIGIN, 1, 0]);
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_AS_PATH, 6, 2, 1, 0, 0, 0, 9]);
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_NEXT_HOP, 4, 192, 0, 2, 1]);
        attrs.extend_from_slice(&[FLAG_TRANSITIVE, ATTR_ATOMIC_AGGREGATE, 1, 0xAA]);
        let body = update_body(&[], &attrs, &[8, 10]);
        assert!(decode_update(&body, WireConfig::default()).is_err());
        let r = decode_update_revised(&body, WireConfig::default()).unwrap();
        assert!(!r.treat_as_withdraw);
        assert_eq!(r.discarded, vec![ATTR_ATOMIC_AGGREGATE]);
        assert!(!r.update.attrs.as_ref().unwrap().atomic_aggregate);
    }

    #[test]
    fn revised_decode_still_resets_on_bad_mp_reach() {
        // A truncated MP_REACH poisons NLRI framing: session reset even
        // under revised handling.
        let attrs = [FLAG_OPTIONAL, ATTR_MP_REACH, 2, 0, 2];
        let body = update_body(&[], &attrs, &[]);
        assert!(decode_update_revised(&body, WireConfig::default()).is_err());
        // So does a truncated attribute header.
        let body = update_body(&[], &[FLAG_TRANSITIVE], &[]);
        assert!(decode_update_revised(&body, WireConfig::default()).is_err());
    }

    #[test]
    fn revised_decode_handles_nlri_without_attributes() {
        let body = update_body(&[], &[], &[8, 10]);
        assert!(matches!(
            decode_update(&body, WireConfig::default()),
            Err(BgpError::BadUpdate(_))
        ));
        let r = decode_update_revised(&body, WireConfig::default()).unwrap();
        assert!(r.treat_as_withdraw);
        assert_eq!(r.update.announced.len(), 1);
    }

    #[test]
    fn revised_decode_of_well_formed_update_is_clean() {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(9)]),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            ..Default::default()
        });
        let m = UpdateMessage::announce(attrs, vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        let bytes = encode_message(&BgpMessage::Update(m.clone()), WireConfig::default()).unwrap();
        let r = decode_update_revised(&bytes[HEADER_LEN..], WireConfig::default()).unwrap();
        assert!(!r.treat_as_withdraw);
        assert!(r.discarded.is_empty());
        assert_eq!(r.update.announced, m.announced);
    }

    #[test]
    fn treatment_classification_matches_rfc7606() {
        use ErrorTreatment::*;
        for ty in [
            ATTR_ORIGIN,
            ATTR_AS_PATH,
            ATTR_NEXT_HOP,
            ATTR_MED,
            ATTR_LOCAL_PREF,
            ATTR_COMMUNITY,
        ] {
            assert_eq!(treatment_for_attr(ty), TreatAsWithdraw);
        }
        assert_eq!(treatment_for_attr(ATTR_ATOMIC_AGGREGATE), AttributeDiscard);
        assert_eq!(treatment_for_attr(ATTR_AGGREGATOR), AttributeDiscard);
        assert_eq!(treatment_for_attr(ATTR_MP_REACH), SessionReset);
        assert_eq!(treatment_for_attr(ATTR_MP_UNREACH), SessionReset);
    }

    #[test]
    fn empty_update_is_end_of_rib() {
        let m = BgpMessage::Update(UpdateMessage {
            withdrawn: vec![],
            attrs: None,
            announced: vec![],
            trace: None,
        });
        let got = roundtrip(&m, WireConfig::default());
        if let BgpMessage::Update(u) = got {
            assert!(u.is_end_of_rib());
        } else {
            panic!("wrong type");
        }
    }
}
