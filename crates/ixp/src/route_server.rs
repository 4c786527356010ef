//! The multilateral route server.
//!
//! "Many IXPs now offer route servers, which offer a central point for
//! multilateral peering, sidestepping the need to establish bilateral
//! agreements" (§3). The route server is a [`Speaker`] in RFC 7947 mode:
//! it does not insert its own ASN, does not touch the next hop, and runs
//! per-member export control driven by the conventional RS communities —
//! tagging an announcement with `0:<peer>` withholds it from that peer,
//! `0:0` withholds it from everyone not explicitly allowed.

use crate::member::{IxpMember, MemberId};
use peering_bgp::policy::{Action, Match, Policy};
use peering_bgp::{Community, PeerConfig, PeerId, Speaker, SpeakerConfig};
use peering_netsim::Asn;
use std::net::Ipv4Addr;

/// Route-server parameters.
#[derive(Debug, Clone)]
pub struct RouteServerConfig {
    /// The RS's own ASN (transparent, so rarely visible).
    pub asn: Asn,
    /// Router id on the fabric.
    pub router_id: Ipv4Addr,
}

impl Default for RouteServerConfig {
    fn default() -> Self {
        // AMS-IX's route servers use AS6777.
        RouteServerConfig {
            asn: Asn(6777),
            router_id: Ipv4Addr::new(80, 249, 208, 255),
        }
    }
}

/// The low 16 bits of an ASN, as used in RS control communities.
fn as16(asn: Asn) -> u16 {
    (asn.0 & 0xFFFF) as u16
}

/// The "do not announce to `member`" community.
pub fn block_community(member_asn: Asn) -> Community {
    Community::new(0, as16(member_asn))
}

/// The export policy every RS member shares: honor the `0:0`
/// withhold-from-all community, then strip the control communities
/// before export. Because the policy is identical across members, all
/// members land in one export peer-group — the RFC 7947 fanout is one
/// staged computation and one copy-on-write Adj-RIB-Out regardless of
/// member count. Per-member `0:<member>` block communities are handled
/// by the engine itself ([`SpeakerConfig::with_rs_member_blocks`]) as
/// per-member deltas on the shared base.
pub fn shared_export_policy() -> Policy {
    Policy::accept_all()
        .rule(
            Match::HasCommunity(Community::new(0, 0)),
            vec![Action::Reject],
        )
        .rule(Match::Any, vec![Action::RemoveCommunitiesWithAsn(0)])
}

/// Build a route-server speaker with every RS member configured as a
/// passive peer. Peer ids equal member ids, so the caller can wire
/// messages by member. Panics if a member id repeats.
pub fn route_server_speaker(
    cfg: &RouteServerConfig,
    members: impl IntoIterator<Item = (MemberId, IxpMember)>,
) -> Speaker {
    let mut rs = Speaker::new(
        SpeakerConfig::new(cfg.asn, cfg.router_id)
            .route_server()
            .with_rs_member_blocks(),
    );
    for (id, m) in members {
        rs.add_peer(
            PeerConfig::new(PeerId(id.0), m.asn)
                .passive()
                .export(shared_export_policy()),
        )
        .expect("member ids are distinct");
    }
    rs
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::{BgpMessage, Input, Output, Prefix};
    use peering_netsim::SimTime;
    use peering_topology::{AsIdx, PeeringPolicy};
    use std::collections::VecDeque;

    fn member(id: u32, asn: u32) -> (MemberId, IxpMember) {
        (
            MemberId(id),
            IxpMember {
                as_idx: AsIdx(id),
                asn: Asn(asn),
                policy: PeeringPolicy::Open,
                on_route_server: true,
                country: *b"NL",
                name: None,
            },
        )
    }

    fn client(asn: u32, rs_asn: Asn) -> Speaker {
        let mut s = Speaker::new(SpeakerConfig::new(
            Asn(asn),
            Ipv4Addr::new(80, 249, 208, asn as u8),
        ));
        s.add_peer(PeerConfig::new(PeerId(0), rs_asn)).unwrap();
        s
    }

    /// Apply `input` at `now` to the route server (`from` is `None`) or
    /// to client `i` (`Some(i)`), then carry every message between the
    /// route server and the clients until all are quiet. Client `i` is the
    /// route server's peer `i` and reaches it on its own peer 0. Returns
    /// the peers the route server sent UPDATEs to, in order.
    fn relay(
        rs: &mut Speaker,
        clients: &mut [Speaker],
        from: Option<usize>,
        input: Input,
        now: SimTime,
    ) -> Vec<PeerId> {
        let mut queue = VecDeque::from([(from, input)]);
        let mut updates = Vec::new();
        while let Some((at, input)) = queue.pop_front() {
            let mut outs = Vec::new();
            match at {
                None => rs.apply(input, now, &mut outs),
                Some(i) => clients[i].apply(input, now, &mut outs),
            }
            for o in outs {
                let Output::Send(peer, msg) = o else {
                    continue;
                };
                let next = match at {
                    Some(i) => (None, Input::Message(PeerId(i as u32), msg)),
                    None => {
                        if matches!(msg, BgpMessage::Update(_)) {
                            updates.push(peer);
                        }
                        if peer.0 as usize >= clients.len() {
                            continue;
                        }
                        (Some(peer.0 as usize), Input::Message(PeerId(0), msg))
                    }
                };
                queue.push_back(next);
            }
        }
        updates
    }

    /// Bring each client's session with the route server up, in order.
    fn establish(rs: &mut Speaker, clients: &mut [Speaker]) {
        for i in 0..clients.len() {
            let member = PeerId(i as u32);
            relay(rs, clients, None, Input::StartPeer(member), SimTime::ZERO);
            relay(
                rs,
                clients,
                Some(i),
                Input::StartPeer(PeerId(0)),
                SimTime::ZERO,
            );
            assert!(rs.peer_established(member));
        }
    }

    #[test]
    fn members_share_one_export_group() {
        let cfg = RouteServerConfig::default();
        let rs = route_server_speaker(
            &cfg,
            vec![member(0, 64600), member(1, 64601), member(2, 64602)],
        );
        let g0 = rs.export_group_of(PeerId(0)).expect("member 0 grouped");
        assert_eq!(rs.export_group_of(PeerId(1)), Some(g0));
        assert_eq!(rs.export_group_of(PeerId(2)), Some(g0));
        assert_eq!(rs.export_group_len(g0), 3, "one group carries all members");
    }

    #[test]
    fn one_session_brings_multilateral_peering() {
        let cfg = RouteServerConfig::default();
        let n = 20usize;
        let mut rs = route_server_speaker(&cfg, (0..n as u32).map(|i| member(i, 64600 + i)));
        let mut clients: Vec<Speaker> = (0..n as u32).map(|i| client(64600 + i, cfg.asn)).collect();
        establish(&mut rs, &mut clients);
        // Member 0 announces one prefix; the RS fans it to all others.
        let p = Prefix::v4(185, 0, 0, 0, 24);
        let announce = Input::Originate(p, vec![]);
        let fanout = relay(
            &mut rs,
            &mut clients,
            Some(0),
            announce,
            SimTime::from_secs(1),
        );
        assert!(!fanout.contains(&PeerId(0)), "split horizon");
        assert_eq!(
            fanout.len(),
            n - 1,
            "announcement reaches all other members"
        );
        for (i, c) in clients.iter().enumerate().skip(1) {
            let r = c.loc_rib().get(&p).unwrap_or_else(|| panic!("client {i}"));
            // Transparent: path is just the announcer.
            assert_eq!(r.attrs.as_path.to_string(), "64600");
        }
    }

    #[test]
    fn block_community_withholds_from_one_member() {
        let cfg = RouteServerConfig::default();
        let mut rs = route_server_speaker(
            &cfg,
            vec![member(0, 64600), member(1, 64601), member(2, 64602)],
        );
        let mut clients = [64600, 64601, 64602].map(|asn| client(asn, cfg.asn));
        establish(&mut rs, &mut clients);
        // c0 announces tagged "do not send to 64601".
        let p = Prefix::v4(185, 1, 0, 0, 24);
        let tagged = Input::Originate(p, vec![block_community(Asn(64601))]);
        let went_to = relay(
            &mut rs,
            &mut clients,
            Some(0),
            tagged,
            SimTime::from_secs(1),
        );
        assert_eq!(went_to, vec![PeerId(2)], "member 1 must be skipped");
        // And the control community was stripped on the way out.
        let r = clients[2].loc_rib().get(&p).expect("c2 got the route");
        assert!(!r.attrs.has_community(block_community(Asn(64601))));
    }

    #[test]
    fn block_all_community_withholds_from_everyone() {
        let cfg = RouteServerConfig::default();
        let mut rs = route_server_speaker(&cfg, vec![member(0, 64600), member(1, 64601)]);
        let mut clients = [64600, 64601].map(|asn| client(asn, cfg.asn));
        establish(&mut rs, &mut clients);
        let p = Prefix::v4(185, 2, 0, 0, 24);
        let tagged = Input::Originate(p, vec![Community::new(0, 0)]);
        let went_to = relay(
            &mut rs,
            &mut clients,
            Some(0),
            tagged,
            SimTime::from_secs(1),
        );
        assert!(went_to.is_empty(), "0:0 must suppress all exports");
        assert!(clients[1].loc_rib().get(&p).is_none());
    }
}
