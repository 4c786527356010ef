//! BGP message types: OPEN, UPDATE, NOTIFICATION, KEEPALIVE, ROUTE-REFRESH.
//!
//! Messages are plain data; the wire encoding lives in [`crate::wire`].

use crate::attrs::PathAttributes;
use peering_netsim::{Asn, Prefix, TraceId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A capability advertised in an OPEN message (RFC 5492).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Capability {
    /// Multiprotocol IPv4 unicast (RFC 4760; afi=1, safi=1).
    MpIpv4Unicast,
    /// Multiprotocol IPv6 unicast (afi=2, safi=1).
    MpIpv6Unicast,
    /// Route refresh (RFC 2918).
    RouteRefresh,
    /// Four-octet AS numbers (RFC 6793) carrying the real ASN.
    FourOctetAsn(Asn),
    /// ADD-PATH for IPv4 unicast (RFC 7911).
    AddPathIpv4 {
        /// Willing to send multiple paths.
        send: bool,
        /// Willing to receive multiple paths.
        receive: bool,
    },
    /// Graceful restart (RFC 4724): the speaker can preserve forwarding
    /// across a control-plane restart; the peer should retain stale paths
    /// for up to `restart_time_s` seconds.
    GracefulRestart {
        /// Restart time in seconds (12-bit field on the wire).
        restart_time_s: u16,
    },
}

/// The OPEN message (RFC 4271 §4.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpenMessage {
    /// Protocol version, always 4.
    pub version: u8,
    /// The 2-octet "My Autonomous System" field; AS_TRANS (23456) when the
    /// real ASN needs four octets.
    pub my_as2: u16,
    /// Proposed hold time in seconds (0 or >= 3).
    pub hold_time: u16,
    /// BGP identifier (router ID).
    pub router_id: Ipv4Addr,
    /// Advertised capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMessage {
    /// Build an OPEN for `asn` with standard capabilities.
    pub fn new(asn: Asn, hold_time: u16, router_id: Ipv4Addr) -> Self {
        OpenMessage {
            version: 4,
            my_as2: if asn.0 <= u16::MAX as u32 {
                asn.0 as u16
            } else {
                23456 // AS_TRANS
            },
            hold_time,
            router_id,
            capabilities: vec![
                Capability::MpIpv4Unicast,
                Capability::RouteRefresh,
                Capability::FourOctetAsn(asn),
            ],
        }
    }

    /// Enable ADD-PATH send/receive on this OPEN.
    pub fn with_add_path(mut self, send: bool, receive: bool) -> Self {
        self.capabilities
            .push(Capability::AddPathIpv4 { send, receive });
        self
    }

    /// Advertise graceful restart with the given restart time.
    pub fn with_graceful_restart(mut self, restart_time_s: u16) -> Self {
        self.capabilities
            .push(Capability::GracefulRestart { restart_time_s });
        self
    }

    /// The effective ASN: the 4-octet capability value if present,
    /// otherwise the 2-octet field.
    pub fn asn(&self) -> Asn {
        for c in &self.capabilities {
            if let Capability::FourOctetAsn(a) = c {
                return *a;
            }
        }
        Asn(self.my_as2 as u32)
    }

    /// The graceful-restart time offered by this OPEN, if the capability
    /// is present.
    pub fn graceful_restart(&self) -> Option<u16> {
        for c in &self.capabilities {
            if let Capability::GracefulRestart { restart_time_s } = c {
                return Some(*restart_time_s);
            }
        }
        None
    }

    /// The negotiated ADD-PATH directions offered by this OPEN.
    pub fn add_path(&self) -> (bool, bool) {
        for c in &self.capabilities {
            if let Capability::AddPathIpv4 { send, receive } = c {
                return (*send, *receive);
            }
        }
        (false, false)
    }
}

/// A piece of NLRI: a prefix, optionally tagged with an ADD-PATH path ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Nlri {
    /// The announced or withdrawn prefix.
    pub prefix: Prefix,
    /// ADD-PATH identifier; `None` when ADD-PATH is not in use.
    pub path_id: Option<u32>,
}

impl Nlri {
    /// NLRI without a path ID.
    pub fn plain(prefix: Prefix) -> Self {
        Nlri {
            prefix,
            path_id: None,
        }
    }

    /// NLRI carrying an ADD-PATH identifier.
    pub fn with_path_id(prefix: Prefix, id: u32) -> Self {
        Nlri {
            prefix,
            path_id: Some(id),
        }
    }
}

impl fmt::Display for Nlri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.path_id {
            Some(id) => write!(f, "{} (path-id {id})", self.prefix),
            None => write!(f, "{}", self.prefix),
        }
    }
}

/// The UPDATE message (RFC 4271 §4.3).
///
/// Attributes are reference-counted: a speaker fanning one route out to
/// hundreds of sessions shares a single attribute allocation, exactly the
/// sharing whose absence would blow up the Figure 2 memory curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UpdateMessage {
    /// Withdrawn routes.
    pub withdrawn: Vec<Nlri>,
    /// Attributes applying to every prefix in `announced`.
    pub attrs: Option<Arc<PathAttributes>>,
    /// Announced routes.
    pub announced: Vec<Nlri>,
    /// Provenance id of the originated change this update descends from.
    ///
    /// Out-of-band metadata: it never touches the wire encoding and is
    /// excluded from equality, so carrying it cannot perturb protocol
    /// behaviour. The route collector keys propagation DAGs on it.
    pub trace: Option<TraceId>,
}

// Equality deliberately ignores `trace`: two updates that would be
// byte-identical on the wire are the same message regardless of the
// observational provenance riding along.
impl PartialEq for UpdateMessage {
    fn eq(&self, other: &Self) -> bool {
        self.withdrawn == other.withdrawn
            && self.attrs == other.attrs
            && self.announced == other.announced
    }
}

impl UpdateMessage {
    /// An update announcing `nlri` with `attrs`.
    pub fn announce(attrs: Arc<PathAttributes>, nlri: Vec<Nlri>) -> Self {
        UpdateMessage {
            withdrawn: Vec::new(),
            attrs: Some(attrs),
            announced: nlri,
            trace: None,
        }
    }

    /// An update withdrawing `nlri`.
    pub fn withdraw(nlri: Vec<Nlri>) -> Self {
        UpdateMessage {
            withdrawn: nlri,
            attrs: None,
            announced: Vec::new(),
            trace: None,
        }
    }

    /// Tag the update with a provenance id.
    pub fn with_trace(mut self, trace: Option<TraceId>) -> Self {
        self.trace = trace;
        self
    }

    /// True when the update carries nothing (End-of-RIB marker).
    pub fn is_end_of_rib(&self) -> bool {
        self.withdrawn.is_empty() && self.announced.is_empty() && self.attrs.is_none()
    }
}

/// NOTIFICATION error codes (RFC 4271 §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NotifCode {
    /// Malformed header.
    MessageHeaderError,
    /// Problem in an OPEN message.
    OpenMessageError,
    /// Problem in an UPDATE message.
    UpdateMessageError,
    /// Hold timer expired without a message.
    HoldTimerExpired,
    /// Event not allowed in the current FSM state.
    FsmError,
    /// Administrative shutdown / reset and friends.
    Cease,
}

impl NotifCode {
    /// Wire code per RFC 4271.
    pub fn code(self) -> u8 {
        match self {
            NotifCode::MessageHeaderError => 1,
            NotifCode::OpenMessageError => 2,
            NotifCode::UpdateMessageError => 3,
            NotifCode::HoldTimerExpired => 4,
            NotifCode::FsmError => 5,
            NotifCode::Cease => 6,
        }
    }

    /// Decode from the wire code.
    pub fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            1 => NotifCode::MessageHeaderError,
            2 => NotifCode::OpenMessageError,
            3 => NotifCode::UpdateMessageError,
            4 => NotifCode::HoldTimerExpired,
            5 => NotifCode::FsmError,
            6 => NotifCode::Cease,
            _ => return None,
        })
    }
}

/// The NOTIFICATION message: fatal error, close the session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotificationMessage {
    /// Error class.
    pub code: NotifCode,
    /// Error detail within the class.
    pub subcode: u8,
    /// Diagnostic bytes.
    pub data: Vec<u8>,
}

impl NotificationMessage {
    /// Build a notification.
    pub fn new(code: NotifCode, subcode: u8) -> Self {
        NotificationMessage {
            code,
            subcode,
            data: Vec::new(),
        }
    }
}

/// Any BGP message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BgpMessage {
    /// Session establishment offer.
    Open(OpenMessage),
    /// Route announcements and withdrawals.
    Update(UpdateMessage),
    /// Fatal error, closes the session.
    Notification(NotificationMessage),
    /// Liveness probe.
    Keepalive,
    /// Request to re-advertise (RFC 2918), afi/safi implied v4 unicast.
    RouteRefresh,
}

impl BgpMessage {
    /// Approximate wire size in bytes (used for link transmission cost
    /// without forcing an encode on the hot path).
    pub fn approx_size(&self) -> usize {
        match self {
            BgpMessage::Open(o) => 29 + o.capabilities.len() * 8,
            BgpMessage::Update(u) => {
                23 + u.withdrawn.len() * 9
                    + u.announced.len() * 9
                    + u.attrs
                        .as_ref()
                        .map(|a| 40 + a.as_path.hop_count() as usize * 4 + a.communities.len() * 4)
                        .unwrap_or(0)
            }
            BgpMessage::Notification(n) => 21 + n.data.len(),
            BgpMessage::Keepalive => 19,
            BgpMessage::RouteRefresh => 23,
        }
    }

    /// Short tag for traces.
    pub fn kind(&self) -> &'static str {
        match self {
            BgpMessage::Open(_) => "OPEN",
            BgpMessage::Update(_) => "UPDATE",
            BgpMessage::Notification(_) => "NOTIFICATION",
            BgpMessage::Keepalive => "KEEPALIVE",
            BgpMessage::RouteRefresh => "ROUTE-REFRESH",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;

    #[test]
    fn an_nlri_is_28_bytes() {
        // A 20-byte `Prefix` keeps it at 28; a `u128` v6 address made it 64.
        assert_eq!(std::mem::size_of::<Nlri>(), 28);
    }

    #[test]
    fn open_two_octet_asn() {
        let o = OpenMessage::new(Asn(65000), 90, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(o.my_as2, 65000);
        assert_eq!(o.asn(), Asn(65000));
        assert_eq!(o.version, 4);
    }

    #[test]
    fn open_four_octet_asn_uses_as_trans() {
        let o = OpenMessage::new(Asn(4_200_000_001), 90, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(o.my_as2, 23456);
        assert_eq!(o.asn(), Asn(4_200_000_001));
    }

    #[test]
    fn open_add_path_negotiation() {
        let o = OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(o.add_path(), (false, false));
        let o = o.with_add_path(true, false);
        assert_eq!(o.add_path(), (true, false));
    }

    #[test]
    fn update_constructors_and_eor() {
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(1)]),
            ..Default::default()
        });
        let ann = UpdateMessage::announce(attrs, vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        assert!(!ann.is_end_of_rib());
        assert_eq!(ann.announced.len(), 1);
        let wd = UpdateMessage::withdraw(vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        assert!(!wd.is_end_of_rib());
        let eor = UpdateMessage {
            withdrawn: vec![],
            attrs: None,
            announced: vec![],
            trace: None,
        };
        assert!(eor.is_end_of_rib());
    }

    #[test]
    fn open_graceful_restart_capability() {
        let o = OpenMessage::new(Asn(1), 90, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(o.graceful_restart(), None);
        let o = o.with_graceful_restart(120);
        assert_eq!(o.graceful_restart(), Some(120));
    }

    #[test]
    fn nlri_display() {
        let p = Prefix::v4(192, 0, 2, 0, 24);
        assert_eq!(Nlri::plain(p).to_string(), "192.0.2.0/24");
        assert_eq!(
            Nlri::with_path_id(p, 7).to_string(),
            "192.0.2.0/24 (path-id 7)"
        );
    }

    #[test]
    fn notif_code_roundtrip() {
        for c in [
            NotifCode::MessageHeaderError,
            NotifCode::OpenMessageError,
            NotifCode::UpdateMessageError,
            NotifCode::HoldTimerExpired,
            NotifCode::FsmError,
            NotifCode::Cease,
        ] {
            assert_eq!(NotifCode::from_code(c.code()), Some(c));
        }
        assert_eq!(NotifCode::from_code(0), None);
        assert_eq!(NotifCode::from_code(7), None);
    }

    #[test]
    fn message_kinds_and_sizes() {
        assert_eq!(BgpMessage::Keepalive.kind(), "KEEPALIVE");
        assert_eq!(BgpMessage::Keepalive.approx_size(), 19);
        let n = BgpMessage::Notification(NotificationMessage::new(NotifCode::Cease, 2));
        assert_eq!(n.kind(), "NOTIFICATION");
        assert!(n.approx_size() >= 21);
    }
}
