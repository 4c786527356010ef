//! Packet processing at PEERING servers.
//!
//! §3: "Researchers can also run lightweight code in VMs on PEERING
//! servers to process packets. They can rewrite, rate-limit, or DPI
//! traffic... The virtual machines allow flexibility but incur high
//! overhead. Going forward, we plan to expose a lightweight packet
//! processing API (e.g., running an OpenFlow software switch or
//! extending Linux's iptables) to provide common packet processing
//! capabilities to clients at lower overhead."
//!
//! [`PacketProcessor`] is that API: an ordered match/action pipeline
//! over experiment traffic, with the execution backend modeled as either
//! a full VM (high per-packet overhead) or the proposed lightweight
//! datapath — the ablation the paper's plan implies.

use peering_netsim::{IpPacket, Ipv4Net, Payload, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Packet predicates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PktMatch {
    /// Always matches.
    Any,
    /// Destination inside a network.
    DstIn(Ipv4Net),
    /// Source inside a network.
    SrcIn(Ipv4Net),
    /// UDP datagram to this destination port.
    UdpDport(u16),
    /// ICMP echo request/reply.
    Icmp,
    /// Payload starts with these bytes (the DPI primitive).
    PayloadPrefix(Vec<u8>),
    /// Negation.
    Not(Box<PktMatch>),
    /// Conjunction.
    All(Vec<PktMatch>),
}

impl PktMatch {
    /// Evaluate against a packet.
    pub fn matches(&self, pkt: &IpPacket) -> bool {
        match self {
            PktMatch::Any => true,
            PktMatch::DstIn(net) => net.contains(pkt.dst),
            PktMatch::SrcIn(net) => net.contains(pkt.src),
            PktMatch::UdpDport(port) => {
                matches!(&pkt.payload, Payload::Udp { dport, .. } if dport == port)
            }
            PktMatch::Icmp => matches!(
                &pkt.payload,
                Payload::EchoRequest { .. } | Payload::EchoReply { .. }
            ),
            PktMatch::PayloadPrefix(bytes) => match &pkt.payload {
                Payload::Udp { data, .. } => data.starts_with(bytes),
                Payload::Raw(data) => data.starts_with(bytes),
                _ => false,
            },
            PktMatch::Not(m) => !m.matches(pkt),
            PktMatch::All(ms) => ms.iter().all(|m| m.matches(pkt)),
        }
    }
}

/// Actions on a matched packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PktAction {
    /// Deliver unchanged (terminal).
    Pass,
    /// Discard (terminal).
    Drop,
    /// Rewrite the destination (decoy-routing style) and continue.
    RewriteDst(Ipv4Addr),
    /// Rewrite the source (NAT style) and continue.
    RewriteSrc(Ipv4Addr),
    /// Enforce a token-bucket rate limit; over-rate packets drop
    /// (terminal when it drops, else continue).
    RateLimit {
        /// Sustained bytes per second.
        bytes_per_sec: u64,
        /// Bucket depth in bytes.
        burst: u64,
    },
    /// Count the packet and continue (monitoring tap).
    Count,
}

/// A processing rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PktRule {
    /// Predicate.
    pub matches: PktMatch,
    /// Actions applied in order.
    pub actions: Vec<PktAction>,
}

/// The execution backend, with its per-packet overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Backend {
    /// A VM on the server ("allow flexibility but incur high overhead").
    Vm,
    /// The proposed lightweight datapath (OpenFlow/iptables class).
    Lightweight,
}

impl Backend {
    /// Modeled per-packet processing latency.
    pub fn per_packet_overhead(self) -> SimDuration {
        match self {
            // Context switch + virtio round trip.
            Backend::Vm => SimDuration::from_micros(150),
            // Kernel-path match/action.
            Backend::Lightweight => SimDuration::from_micros(6),
        }
    }
}

/// Per-rule token-bucket state. A fresh bucket starts full (the burst
/// allowance is immediately available).
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    tokens: f64,
    last: SimTime,
    initialized: bool,
}

/// What happened to a processed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PktVerdict {
    /// Deliver this (possibly rewritten) packet.
    Deliver(IpPacket),
    /// Dropped by policy or rate limit.
    Dropped,
}

/// An ordered match/action pipeline bound to a backend.
#[derive(Debug, Clone)]
pub struct PacketProcessor {
    rules: Vec<PktRule>,
    buckets: Vec<Bucket>,
    /// Execution backend.
    pub backend: Backend,
    /// Packets processed.
    pub processed: u64,
    /// Packets dropped.
    pub dropped: u64,
    /// Packets counted by `Count` actions.
    pub counted: u64,
    /// Cumulative processing latency spent.
    pub busy: SimDuration,
}

impl PacketProcessor {
    /// An empty pipeline (passes everything) on a backend.
    pub fn new(backend: Backend) -> Self {
        PacketProcessor {
            rules: Vec::new(),
            buckets: Vec::new(),
            backend,
            processed: 0,
            dropped: 0,
            counted: 0,
            busy: SimDuration::ZERO,
        }
    }

    /// Append a rule.
    pub fn rule(mut self, matches: PktMatch, actions: Vec<PktAction>) -> Self {
        self.rules.push(PktRule { matches, actions });
        self.buckets.push(Bucket::default());
        self
    }

    /// Process one packet at `now`. First terminal action decides; a
    /// packet matching no rule passes unchanged.
    pub fn process(&mut self, mut pkt: IpPacket, now: SimTime) -> PktVerdict {
        self.processed += 1;
        self.busy += self.backend.per_packet_overhead();
        let size = pkt.size() as f64;
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.matches.matches(&pkt) {
                continue;
            }
            for action in &rule.actions {
                match action {
                    PktAction::Pass => return PktVerdict::Deliver(pkt),
                    PktAction::Drop => {
                        self.dropped += 1;
                        return PktVerdict::Dropped;
                    }
                    PktAction::RewriteDst(ip) => pkt.dst = *ip,
                    PktAction::RewriteSrc(ip) => pkt.src = *ip,
                    PktAction::Count => self.counted += 1,
                    PktAction::RateLimit {
                        bytes_per_sec,
                        burst,
                    } => {
                        let b = &mut self.buckets[i];
                        if !b.initialized {
                            b.initialized = true;
                            b.tokens = *burst as f64;
                            b.last = now;
                        }
                        let dt = now.since(b.last).as_secs_f64();
                        b.last = now;
                        b.tokens = (b.tokens + dt * *bytes_per_sec as f64).min(*burst as f64);
                        if b.tokens >= size {
                            b.tokens -= size;
                        } else {
                            self.dropped += 1;
                            return PktVerdict::Dropped;
                        }
                    }
                }
            }
        }
        PktVerdict::Deliver(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udp(src: &str, dst: &str, dport: u16, data: &[u8]) -> IpPacket {
        IpPacket::new(
            src.parse().unwrap(),
            dst.parse().unwrap(),
            Payload::Udp {
                sport: 40000,
                dport,
                data: data.to_vec(),
            },
        )
    }

    #[test]
    fn match_primitives() {
        let p = udp("10.0.0.1", "184.164.224.5", 53, b"query");
        assert!(PktMatch::Any.matches(&p));
        assert!(PktMatch::DstIn("184.164.224.0/24".parse().unwrap()).matches(&p));
        assert!(!PktMatch::DstIn("10.0.0.0/8".parse().unwrap()).matches(&p));
        assert!(PktMatch::SrcIn("10.0.0.0/8".parse().unwrap()).matches(&p));
        assert!(PktMatch::UdpDport(53).matches(&p));
        assert!(!PktMatch::UdpDport(80).matches(&p));
        assert!(!PktMatch::Icmp.matches(&p));
        assert!(PktMatch::PayloadPrefix(b"que".to_vec()).matches(&p));
        assert!(!PktMatch::PayloadPrefix(b"xx".to_vec()).matches(&p));
        assert!(PktMatch::Not(Box::new(PktMatch::Icmp)).matches(&p));
        assert!(PktMatch::All(vec![PktMatch::UdpDport(53), PktMatch::Any]).matches(&p));
        let ping = IpPacket::echo_request(
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1,
            1,
        );
        assert!(PktMatch::Icmp.matches(&ping));
    }

    #[test]
    fn first_terminal_action_decides() {
        let mut pp = PacketProcessor::new(Backend::Lightweight)
            .rule(PktMatch::UdpDport(23), vec![PktAction::Drop])
            .rule(PktMatch::Any, vec![PktAction::Pass]);
        let telnet = udp("10.0.0.1", "10.0.0.2", 23, b"");
        assert_eq!(pp.process(telnet, SimTime::ZERO), PktVerdict::Dropped);
        let dns = udp("10.0.0.1", "10.0.0.2", 53, b"");
        assert!(matches!(
            pp.process(dns, SimTime::ZERO),
            PktVerdict::Deliver(_)
        ));
        assert_eq!(pp.processed, 2);
        assert_eq!(pp.dropped, 1);
    }

    #[test]
    fn rewrite_and_count_continue() {
        let covert: Ipv4Addr = "198.51.100.9".parse().unwrap();
        let mut pp = PacketProcessor::new(Backend::Lightweight).rule(
            PktMatch::PayloadPrefix(b"DECOY".to_vec()),
            vec![
                PktAction::Count,
                PktAction::RewriteDst(covert),
                PktAction::Pass,
            ],
        );
        let p = udp("10.0.0.1", "203.0.113.80", 443, b"DECOY+payload");
        match pp.process(p, SimTime::ZERO) {
            PktVerdict::Deliver(out) => assert_eq!(out.dst, covert),
            other => panic!("{other:?}"),
        }
        assert_eq!(pp.counted, 1);
    }

    #[test]
    fn unmatched_packets_pass_unchanged() {
        let mut pp =
            PacketProcessor::new(Backend::Vm).rule(PktMatch::UdpDport(9999), vec![PktAction::Drop]);
        let p = udp("10.0.0.1", "10.0.0.2", 53, b"x");
        assert_eq!(pp.process(p.clone(), SimTime::ZERO), PktVerdict::Deliver(p));
    }

    #[test]
    fn rate_limit_enforces_token_bucket() {
        // 1000 B/s, 200 B burst; ~128 B packets.
        let mut pp = PacketProcessor::new(Backend::Lightweight).rule(
            PktMatch::Any,
            vec![
                PktAction::RateLimit {
                    bytes_per_sec: 1000,
                    burst: 200,
                },
                PktAction::Pass,
            ],
        );
        let pkt = udp("10.0.0.1", "10.0.0.2", 80, &[0u8; 100]);
        // Burst allows one packet immediately; the second (t=0) drops.
        assert!(matches!(
            pp.process(pkt.clone(), SimTime::ZERO),
            PktVerdict::Deliver(_)
        ));
        assert_eq!(pp.process(pkt.clone(), SimTime::ZERO), PktVerdict::Dropped);
        // After a second, tokens refill.
        assert!(matches!(
            pp.process(pkt.clone(), SimTime::from_secs(1)),
            PktVerdict::Deliver(_)
        ));
        // Sustained flooding at 10x the rate mostly drops.
        let mut delivered = 0;
        for i in 0..100 {
            let t = SimTime::from_secs(2) + SimDuration::from_millis(i * 10);
            if matches!(pp.process(pkt.clone(), t), PktVerdict::Deliver(_)) {
                delivered += 1;
            }
        }
        // 1 second elapsed at 1000 B/s = ~1000 B = ~7-8 packets of 128 B.
        assert!((5..=12).contains(&delivered), "delivered={delivered}");
    }

    #[test]
    fn backend_overhead_ablation() {
        let pkt = udp("10.0.0.1", "10.0.0.2", 53, b"x");
        let mut vm = PacketProcessor::new(Backend::Vm).rule(PktMatch::Any, vec![PktAction::Pass]);
        let mut light =
            PacketProcessor::new(Backend::Lightweight).rule(PktMatch::Any, vec![PktAction::Pass]);
        for _ in 0..1000 {
            vm.process(pkt.clone(), SimTime::ZERO);
            light.process(pkt.clone(), SimTime::ZERO);
        }
        // The paper's motivation: the lightweight API frees up processing
        // power — here >20x less busy time for the same workload.
        assert!(vm.busy > light.busy * 20, "{} vs {}", vm.busy, light.busy);
    }
}
