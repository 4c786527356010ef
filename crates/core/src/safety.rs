//! Safety enforcement at PEERING servers.
//!
//! "By applying outbound filters on prefixes and origin AS and by
//! route-flap dampening, PEERING prevents experiments from impacting
//! routing for prefixes outside PEERING control. Clients cannot hijack or
//! leak prefixes, and they cannot spoof traffic in uncontrolled ways"
//! (§3). Servers interpose on both planes, so this module checks both
//! announcements and packets.

use peering_bgp::{Action, DampingConfig, DampingState, Match, Policy};
use peering_netsim::{Asn, Ipv4Net, Ipv6Net, Prefix, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Why an announcement or packet was blocked.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// The prefix is outside every PEERING pool of its family: announcing
    /// it would hijack someone else's address space.
    Hijack(Prefix),
    /// The prefix is PEERING space but not allocated to this experiment:
    /// it would stomp a concurrent experiment.
    NotYourPrefix(Prefix),
    /// The route's origin ASN is not a PEERING ASN (origin spoofing).
    BadOrigin(Asn),
    /// A non-PEERING route would be re-exported (providing transit /
    /// leaking).
    RouteLeak,
    /// Prepend count above the configured ceiling.
    ExcessivePrepend(u8),
    /// Poison list longer than allowed.
    ExcessivePoison(usize),
    /// Flap damping suppressed this prefix.
    Damped(Prefix),
    /// Announcement rate limit exceeded.
    RateLimited,
    /// Data-plane packet with a source address outside the experiment's
    /// prefix (uncontrolled spoofing).
    SpoofedSource(Ipv4Addr),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Hijack(p) => write!(f, "hijack attempt: {p} is not PEERING space"),
            Violation::NotYourPrefix(p) => write!(f, "{p} belongs to another experiment"),
            Violation::BadOrigin(a) => write!(f, "origin {a} is not a PEERING ASN"),
            Violation::RouteLeak => write!(f, "re-exporting non-PEERING routes (leak)"),
            Violation::ExcessivePrepend(n) => write!(f, "prepend {n} above limit"),
            Violation::ExcessivePoison(n) => write!(f, "poison list of {n} above limit"),
            Violation::Damped(p) => write!(f, "{p} suppressed by flap damping"),
            Violation::RateLimited => write!(f, "announcement rate limit exceeded"),
            Violation::SpoofedSource(ip) => write!(f, "spoofed source {ip}"),
        }
    }
}

/// The filter's decision.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SafetyVerdict {
    /// Pass it along.
    Allowed,
    /// Blocked with a reason.
    Blocked(Violation),
}

impl SafetyVerdict {
    /// True when allowed.
    pub fn is_allowed(&self) -> bool {
        *self == SafetyVerdict::Allowed
    }
}

/// Safety limits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SafetyConfig {
    /// Address pools PEERING controls.
    pub pools: Vec<Ipv4Net>,
    /// IPv6 pools PEERING controls.
    pub pools_v6: Vec<Ipv6Net>,
    /// ASNs announcements may originate from.
    pub public_asns: Vec<Asn>,
    /// Flap-damping parameters applied per experiment prefix.
    pub damping: DampingConfig,
    /// Max AS-path prepends per announcement.
    pub max_prepend: u8,
    /// Max poisoned ASNs per announcement.
    pub max_poison: usize,
    /// Max control-plane actions per prefix per rate window.
    pub max_actions_per_window: u32,
    /// The rate-limit window.
    pub rate_window: SimDuration,
    /// Experiments with explicit spoofing approval (source prefixes they
    /// may use beyond their own) — "carefully controlled" spoofing.
    pub spoof_allowlist: Vec<(u32, Ipv4Net)>,
}

impl SafetyConfig {
    /// Defaults matching the testbed's published rules.
    pub fn new(pools: Vec<Ipv4Net>, public_asns: Vec<Asn>) -> Self {
        SafetyConfig {
            pools,
            pools_v6: Vec::new(),
            public_asns,
            damping: DampingConfig::default(),
            max_prepend: 10,
            max_poison: 5,
            max_actions_per_window: 20,
            rate_window: SimDuration::from_secs(3600),
            spoof_allowlist: Vec::new(),
        }
    }

    /// The conventional deployment: the 184.164.224.0/19 pool, the
    /// 2804:269c::/32 v6 pool, and AS47065 — matching
    /// [`PrefixAllocator::peering_default`](crate::alloc::PrefixAllocator::peering_default).
    pub fn peering_default() -> Self {
        let mut cfg = SafetyConfig::new(
            vec!["184.164.224.0/19".parse().expect("valid pool")],
            vec![Asn::PEERING],
        );
        cfg.pools_v6 = vec!["2804:269c::/32".parse().expect("valid v6 pool")];
        cfg
    }

    /// Longest announcement the testbed forwards upstream: the global
    /// table's conventional /24 (v4) and /48 (v6) acceptance limits.
    pub const MAX_V4_LEN: u8 = 24;
    /// See [`MAX_V4_LEN`](Self::MAX_V4_LEN).
    pub const MAX_V6_LEN: u8 = 48;

    /// Import policy for client-facing (mux) sessions: accept only
    /// PEERING-pool prefixes no more specific than the global-table
    /// limits, reject everything else. A client session carrying this
    /// policy cannot inject a hijack ([`Violation::Hijack`]) or an
    /// unroutable more-specific into the testbed's RIBs.
    pub fn client_import_policy(&self) -> Policy {
        let v4: Vec<Prefix> = self.pools.iter().copied().map(Prefix::from).collect();
        let v6: Vec<Prefix> = self.pools_v6.iter().copied().map(Prefix::from).collect();
        let mut p = Policy::reject_all();
        if !v4.is_empty() {
            p = p.rule(
                Match::All(vec![
                    Match::PrefixIn(v4),
                    Match::Not(Box::new(Match::LongerThan(Self::MAX_V4_LEN))),
                ]),
                vec![Action::Accept],
            );
        }
        if !v6.is_empty() {
            p = p.rule(
                Match::All(vec![
                    Match::PrefixIn(v6),
                    Match::Not(Box::new(Match::LongerThan(Self::MAX_V6_LEN))),
                ]),
                vec![Action::Accept],
            );
        }
        p
    }

    /// Export policy for upstream-facing sessions: only PEERING-pool
    /// prefixes leave the testbed (everything else is a
    /// [`Violation::RouteLeak`]), and private ASNs used by emulated
    /// domains are stripped at the border.
    pub fn export_safety_policy(&self) -> Policy {
        let mut nets: Vec<Prefix> = self.pools.iter().copied().map(Prefix::from).collect();
        nets.extend(self.pools_v6.iter().copied().map(Prefix::from));
        Policy::reject_all().rule(
            Match::PrefixIn(nets),
            vec![Action::StripPrivateAsns, Action::Accept],
        )
    }

    /// The stateless safety rules, for either address family and in this
    /// order: `prefix` lies in a pool of its own family, inside `owned`
    /// (the experiment's allocation), is originated by a PEERING ASN, and
    /// stays within the prepend and poison budgets. This is the pure
    /// kernel of [`SafetyFilter::check_announcement`]: no damping or rate
    /// state, so the same announcement always yields the same verdict and
    /// the check can run before an experiment is ever executed.
    pub fn static_check(
        &self,
        owned: Prefix,
        prefix: Prefix,
        origin: Asn,
        prepend: u8,
        poison_len: usize,
    ) -> Result<(), Violation> {
        let in_pool = match &prefix {
            Prefix::V4(p) => self.pools.iter().any(|pool| pool.covers(p)),
            Prefix::V6(p) => self.pools_v6.iter().any(|pool| pool.covers(p)),
        };
        if !in_pool {
            return Err(Violation::Hijack(prefix));
        }
        if !owned.covers(&prefix) {
            return Err(Violation::NotYourPrefix(prefix));
        }
        if !self.public_asns.contains(&origin) {
            return Err(Violation::BadOrigin(origin));
        }
        if prepend > self.max_prepend {
            return Err(Violation::ExcessivePrepend(prepend));
        }
        if poison_len > self.max_poison {
            return Err(Violation::ExcessivePoison(poison_len));
        }
        Ok(())
    }
}

/// Stateful safety filter: one per testbed (damping and rate state are
/// tracked per experiment prefix).
#[derive(Debug)]
pub struct SafetyFilter {
    /// The active limits.
    pub cfg: SafetyConfig,
    damping: DampingState,
    rate: BTreeMap<Prefix, (SimTime, u32)>,
    /// Count of blocked actions, by experiment tag.
    pub blocked: BTreeMap<u32, u32>,
}

impl SafetyFilter {
    /// Build from a config.
    pub fn new(cfg: SafetyConfig) -> Self {
        SafetyFilter {
            cfg,
            damping: DampingState::new(),
            rate: BTreeMap::new(),
            blocked: BTreeMap::new(),
        }
    }

    fn block(&mut self, tag: u32, v: Violation) -> SafetyVerdict {
        *self.blocked.entry(tag).or_insert(0) += 1;
        SafetyVerdict::Blocked(v)
    }

    /// Check a client's announcement, either family: the stateless rules
    /// of [`SafetyConfig::static_check`], then the per-prefix rate limit,
    /// then flap damping.
    ///
    /// `tag` identifies the experiment; `owned` is the prefix allocated
    /// to it; `prefix` is what it is trying to announce.
    #[allow(clippy::too_many_arguments)]
    pub fn check_announcement(
        &mut self,
        tag: u32,
        owned: Prefix,
        prefix: Prefix,
        origin: Asn,
        prepend: u8,
        poison_len: usize,
        now: SimTime,
    ) -> SafetyVerdict {
        let checked = self
            .cfg
            .static_check(owned, prefix, origin, prepend, poison_len)
            .and_then(|()| self.check_rate_and_damping(prefix, now));
        match checked {
            Ok(()) => SafetyVerdict::Allowed,
            Err(v) => self.block(tag, v),
        }
    }

    /// The stateful rules: count one action on `prefix` in its rate
    /// window, then feed the announcement to flap damping.
    fn check_rate_and_damping(&mut self, prefix: Prefix, now: SimTime) -> Result<(), Violation> {
        let entry = self.rate.entry(prefix).or_insert((now, 0));
        if now.since(entry.0) > self.cfg.rate_window {
            *entry = (now, 0);
        }
        entry.1 += 1;
        if entry.1 > self.cfg.max_actions_per_window {
            return Err(Violation::RateLimited);
        }
        if self.damping.on_announce(prefix, now, &self.cfg.damping)
            || self.damping.is_suppressed(&prefix, now, &self.cfg.damping)
        {
            return Err(Violation::Damped(prefix));
        }
        Ok(())
    }

    /// Record a withdrawal (feeds damping; withdrawals themselves are
    /// always allowed — pulling a route back is safe).
    pub fn note_withdrawal(&mut self, prefix: Prefix, now: SimTime) {
        self.damping.on_withdraw(prefix, now, &self.cfg.damping);
    }

    /// Check a route a client wants PEERING to re-export (transit). The
    /// testbed "will not provide transit for non-PEERING destinations".
    pub fn check_reexport(&mut self, tag: u32, prefix: &Ipv4Net) -> SafetyVerdict {
        if self.cfg.pools.iter().any(|p| p.covers(prefix)) {
            SafetyVerdict::Allowed
        } else {
            self.block(tag, Violation::RouteLeak)
        }
    }

    /// Check a data-plane packet's source address.
    pub fn check_packet_source(
        &mut self,
        tag: u32,
        owned: &Ipv4Net,
        src: Ipv4Addr,
    ) -> SafetyVerdict {
        if owned.contains(src) {
            return SafetyVerdict::Allowed;
        }
        if self
            .cfg
            .spoof_allowlist
            .iter()
            .any(|(t, net)| *t == tag && net.contains(src))
        {
            return SafetyVerdict::Allowed;
        }
        self.block(tag, Violation::SpoofedSource(src))
    }

    /// Total blocked actions across experiments.
    pub fn total_blocked(&self) -> u32 {
        self.blocked.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filter over the v4 /19 and the v6 /32.
    fn filter() -> SafetyFilter {
        SafetyFilter::new(SafetyConfig::peering_default())
    }

    /// The prefixes every rule is pinned with, once per address family.
    struct Family {
        /// The experiment's allocation.
        owned: Prefix,
        /// A more-specific of it.
        sub: Prefix,
        /// Another experiment's allocation from the same pool.
        other: Prefix,
        /// Space outside every pool.
        foreign: Prefix,
    }

    fn families() -> [Family; 2] {
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        [
            Family {
                owned: p("184.164.225.0/24"),
                sub: p("184.164.225.0/25"),
                other: p("184.164.230.0/24"),
                foreign: p("8.8.8.0/24"),
            },
            Family {
                owned: p("2804:269c:1::/48"),
                sub: p("2804:269c:1:8000::/49"),
                other: p("2804:269c:2::/48"),
                foreign: p("2001:db8::/48"),
            },
        ]
    }

    #[test]
    fn legitimate_announcement_allowed() {
        for fam in families() {
            let mut f = filter();
            let v =
                f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 2, 1, SimTime::ZERO);
            assert!(v.is_allowed(), "{}", fam.owned);
            assert_eq!(f.total_blocked(), 0);
        }
    }

    #[test]
    fn hijack_blocked() {
        for fam in families() {
            let mut f = filter();
            let v =
                f.check_announcement(1, fam.owned, fam.foreign, Asn::PEERING, 0, 0, SimTime::ZERO);
            assert_eq!(v, SafetyVerdict::Blocked(Violation::Hijack(fam.foreign)));
            assert_eq!(f.blocked[&1], 1);
        }
    }

    #[test]
    fn cross_experiment_stomp_blocked() {
        for fam in families() {
            let mut f = filter();
            let v =
                f.check_announcement(1, fam.owned, fam.other, Asn::PEERING, 0, 0, SimTime::ZERO);
            assert_eq!(
                v,
                SafetyVerdict::Blocked(Violation::NotYourPrefix(fam.other))
            );
        }
    }

    #[test]
    fn more_specific_of_own_prefix_allowed() {
        for fam in families() {
            let mut f = filter();
            let v = f.check_announcement(1, fam.owned, fam.sub, Asn::PEERING, 0, 0, SimTime::ZERO);
            assert!(v.is_allowed(), "{}", fam.sub);
        }
    }

    #[test]
    fn bad_origin_blocked() {
        for fam in families() {
            let mut f = filter();
            let v = f.check_announcement(1, fam.owned, fam.owned, Asn(15169), 0, 0, SimTime::ZERO);
            assert_eq!(v, SafetyVerdict::Blocked(Violation::BadOrigin(Asn(15169))));
        }
    }

    #[test]
    fn prepend_and_poison_limits() {
        for fam in families() {
            let mut f = filter();
            let v =
                f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 11, 0, SimTime::ZERO);
            assert_eq!(v, SafetyVerdict::Blocked(Violation::ExcessivePrepend(11)));
            let v =
                f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 0, 6, SimTime::ZERO);
            assert_eq!(v, SafetyVerdict::Blocked(Violation::ExcessivePoison(6)));
        }
    }

    #[test]
    fn flapping_gets_damped() {
        for fam in families() {
            let mut f = filter();
            let mut now = SimTime::ZERO;
            let mut damped = false;
            for _ in 0..10 {
                now += SimDuration::from_secs(30);
                let v = f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 0, 0, now);
                if v == SafetyVerdict::Blocked(Violation::Damped(fam.owned)) {
                    damped = true;
                    break;
                }
                now += SimDuration::from_secs(30);
                f.note_withdrawal(fam.owned, now);
            }
            assert!(
                damped,
                "{}: rapid announce/withdraw cycles must be damped",
                fam.owned
            );
        }
    }

    #[test]
    fn rate_limit_kicks_in() {
        for fam in families() {
            let mut f = filter();
            // Disable damping interference by spreading within window but
            // using a huge damping suppress threshold.
            f.cfg.damping.suppress_threshold = 1e12;
            let limited = (0..25)
                .map(|i| SimTime::from_secs(i * 10))
                .map(|now| f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 0, 0, now))
                .filter(|v| *v == SafetyVerdict::Blocked(Violation::RateLimited))
                .count();
            assert_eq!(limited, 5, "{}: 20 actions per window", fam.owned);
            // A new window resets the counter.
            let later = SimTime::from_secs(10 * 3600);
            let v = f.check_announcement(1, fam.owned, fam.owned, Asn::PEERING, 0, 0, later);
            assert!(v.is_allowed(), "{}: {v:?}", fam.owned);
        }
    }

    #[test]
    fn transit_leak_blocked() {
        let mut f = filter();
        let outside: Ipv4Net = "1.2.3.0/24".parse().unwrap();
        assert_eq!(
            f.check_reexport(3, &outside),
            SafetyVerdict::Blocked(Violation::RouteLeak)
        );
        let inside: Ipv4Net = "184.164.226.0/24".parse().unwrap();
        assert!(f.check_reexport(3, &inside).is_allowed());
    }

    #[test]
    fn spoof_control() {
        let mut f = filter();
        let owned: Ipv4Net = "184.164.225.0/24".parse().unwrap();
        let ok = f.check_packet_source(1, &owned, "184.164.225.7".parse().unwrap());
        assert!(ok.is_allowed());
        let bad_ip: Ipv4Addr = "9.9.9.9".parse().unwrap();
        let bad = f.check_packet_source(1, &owned, bad_ip);
        assert_eq!(
            bad,
            SafetyVerdict::Blocked(Violation::SpoofedSource(bad_ip))
        );
        // Allowlisted controlled spoofing (e.g. reverse traceroute).
        f.cfg
            .spoof_allowlist
            .push((1, "9.9.9.0/24".parse().unwrap()));
        assert!(f.check_packet_source(1, &owned, bad_ip).is_allowed());
        // ...but only for the approved experiment.
        assert!(!f.check_packet_source(2, &owned, bad_ip).is_allowed());
    }

    #[test]
    fn client_import_policy_admits_only_pool_space() {
        use peering_bgp::PathAttributes;
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let cfg = SafetyConfig::new(vec![pool], vec![Asn::PEERING]);
        let policy = cfg.client_import_policy();
        let mut attrs = PathAttributes::default();
        assert!(policy.apply(&Prefix::v4(184, 164, 225, 0, 24), &mut attrs));
        // Outside PEERING space: would be a hijack.
        assert!(!policy.apply(&Prefix::v4(8, 8, 8, 0, 24), &mut attrs));
        // More specific than the global-table limit.
        assert!(!policy.apply(&Prefix::v4(184, 164, 225, 0, 25), &mut attrs));
        // A covering supernet of the pool is NOT pool space.
        assert!(!policy.apply(&Prefix::v4(184, 164, 0, 0, 16), &mut attrs));
    }

    #[test]
    fn export_safety_policy_blocks_leaks_and_strips_private_asns() {
        use peering_bgp::{AsPath, PathAttributes};
        let pool: Ipv4Net = "184.164.224.0/19".parse().unwrap();
        let cfg = SafetyConfig::new(vec![pool], vec![Asn::PEERING]);
        let policy = cfg.export_safety_policy();
        let mut attrs = PathAttributes {
            as_path: AsPath::from_asns(&[Asn::PEERING, Asn(65001)]),
            ..Default::default()
        };
        assert!(policy.apply(&Prefix::v4(184, 164, 226, 0, 24), &mut attrs));
        assert_eq!(attrs.as_path.to_string(), "47065", "private ASN stripped");
        // A route for non-PEERING space must never leave the testbed.
        let mut attrs = PathAttributes::default();
        assert!(!policy.apply(&Prefix::v4(1, 2, 3, 0, 24), &mut attrs));
    }

    #[test]
    fn static_check_agrees_with_dynamic_filter() {
        for fam in families() {
            let mut f = filter();
            let cfg = f.cfg.clone();
            // (prefix, origin, prepend, poison): clean, then one row per
            // stateless rule, in the kernel's order.
            let rows = [
                (fam.owned, Asn::PEERING, 0, 0),
                (fam.foreign, Asn::PEERING, 0, 0),
                (fam.other, Asn::PEERING, 0, 0),
                (fam.owned, Asn(15169), 0, 0),
                (fam.owned, Asn::PEERING, 11, 0),
                (fam.owned, Asn::PEERING, 0, 6),
            ];
            for (i, &(prefix, origin, prepend, poison)) in rows.iter().enumerate() {
                let statically = cfg.static_check(fam.owned, prefix, origin, prepend, poison);
                assert_eq!(statically.is_ok(), i == 0, "{} row {i}", fam.owned);
                let now = SimTime::from_secs(7200 * (i as u64 + 1));
                let dynamically =
                    f.check_announcement(1, fam.owned, prefix, origin, prepend, poison, now);
                match (&statically, &dynamically) {
                    (Ok(()), SafetyVerdict::Allowed) => {}
                    (Err(a), SafetyVerdict::Blocked(b)) => {
                        assert_eq!(a, b, "{} row {i}", fam.owned)
                    }
                    other => panic!("{} row {i}: static/dynamic disagree: {other:?}", fam.owned),
                }
            }
            // Damping and the rate limit are the stateful rules: they
            // block a flood the stateless kernel passes.
            assert_eq!(
                cfg.static_check(fam.owned, fam.owned, Asn::PEERING, 0, 0),
                Ok(())
            );
            let flood = |suppress_threshold: f64| {
                let mut f = filter();
                f.cfg.damping.suppress_threshold = suppress_threshold;
                (0..=f.cfg.max_actions_per_window)
                    .map(|_| {
                        f.check_announcement(
                            1,
                            fam.owned,
                            fam.owned,
                            Asn::PEERING,
                            0,
                            0,
                            SimTime::ZERO,
                        )
                    })
                    .find(|v| !v.is_allowed())
            };
            let damped = SafetyVerdict::Blocked(Violation::Damped(fam.owned));
            assert_eq!(flood(cfg.damping.suppress_threshold), Some(damped));
            let limited = SafetyVerdict::Blocked(Violation::RateLimited);
            assert_eq!(flood(1e12), Some(limited));
        }
    }

    #[test]
    fn violation_display() {
        let v = Violation::Hijack("8.8.8.0/24".parse().unwrap());
        assert_eq!(
            v.to_string(),
            "hijack attempt: 8.8.8.0/24 is not PEERING space"
        );
        let v = Violation::Damped("2804:269c:1::/48".parse().unwrap());
        assert_eq!(v.to_string(), "2804:269c:1::/48 suppressed by flap damping");
        assert!(Violation::RouteLeak.to_string().contains("leak"));
    }
}
