//! Route policy: the match/action engine applied on import and export.
//!
//! This is the mechanism behind two of the paper's pillars: *fine-grained
//! announcement control* for clients (prepend, poison, steer by community)
//! and *safety enforcement* at servers ("outbound filters on prefixes and
//! origin AS" that make hijacks and leaks impossible).

use crate::attrs::{Community, Origin, PathAttributes};
use peering_netsim::{Asn, Prefix};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A predicate over `(prefix, attributes)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Match {
    /// Always true.
    Any,
    /// Prefix is covered by one of these (e.g. "inside PEERING's /19").
    PrefixIn(Vec<Prefix>),
    /// Prefix is exactly one of these.
    PrefixExact(Vec<Prefix>),
    /// Prefix length is strictly greater than the bound (e.g. >24 is
    /// conventionally not globally routable).
    LongerThan(u8),
    /// AS path contains the ASN anywhere.
    AsPathContains(Asn),
    /// The route's origin AS equals the ASN.
    OriginatedBy(Asn),
    /// AS path is longer than this many hops.
    AsPathLongerThan(u32),
    /// The community is attached.
    HasCommunity(Community),
    /// ORIGIN attribute equals.
    OriginIs(Origin),
    /// Negation.
    Not(Box<Match>),
    /// Conjunction.
    All(Vec<Match>),
    /// Disjunction.
    AnyOf(Vec<Match>),
}

impl Match {
    /// True when the predicate depends only on the prefix, never on the
    /// path attributes. Static analyzers use this to decide whether a
    /// rule's match region can be computed exactly: a prefix-structural
    /// match is a pure region of `(address, length)` space, while a match
    /// involving attributes can fire or not per announcement.
    pub fn is_prefix_structural(&self) -> bool {
        match self {
            Match::Any | Match::PrefixIn(_) | Match::PrefixExact(_) | Match::LongerThan(_) => true,
            Match::AsPathContains(_)
            | Match::OriginatedBy(_)
            | Match::AsPathLongerThan(_)
            | Match::HasCommunity(_)
            | Match::OriginIs(_) => false,
            Match::Not(m) => m.is_prefix_structural(),
            Match::All(ms) | Match::AnyOf(ms) => ms.iter().all(Match::is_prefix_structural),
        }
    }

    /// True when the predicate never reads the prefix — the complement
    /// of [`is_prefix_structural`](Self::is_prefix_structural) (only
    /// [`Match::Any`] is both). Such a match gives every prefix carrying
    /// one attribute set the same answer, which is what lets the speaker
    /// evaluate a policy once per attribute set instead of once per
    /// route.
    pub fn is_prefix_free(&self) -> bool {
        match self {
            Match::Any
            | Match::AsPathContains(_)
            | Match::OriginatedBy(_)
            | Match::AsPathLongerThan(_)
            | Match::HasCommunity(_)
            | Match::OriginIs(_) => true,
            Match::PrefixIn(_) | Match::PrefixExact(_) | Match::LongerThan(_) => false,
            Match::Not(m) => m.is_prefix_free(),
            Match::All(ms) | Match::AnyOf(ms) => ms.iter().all(Match::is_prefix_free),
        }
    }

    /// Evaluate the predicate.
    pub fn matches(&self, prefix: &Prefix, attrs: &PathAttributes) -> bool {
        match self {
            Match::Any => true,
            Match::PrefixIn(list) => list.iter().any(|p| p.covers(prefix)),
            Match::PrefixExact(list) => list.contains(prefix),
            Match::LongerThan(len) => prefix.len() > *len,
            Match::AsPathContains(asn) => attrs.as_path.contains(*asn),
            Match::OriginatedBy(asn) => attrs.as_path.origin_as() == Some(*asn),
            Match::AsPathLongerThan(n) => attrs.as_path.hop_count() > *n,
            Match::HasCommunity(c) => attrs.has_community(*c),
            Match::OriginIs(o) => attrs.origin == *o,
            Match::Not(m) => !m.matches(prefix, attrs),
            Match::All(ms) => ms.iter().all(|m| m.matches(prefix, attrs)),
            Match::AnyOf(ms) => ms.iter().any(|m| m.matches(prefix, attrs)),
        }
    }
}

/// An action taken when a rule matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Accept the route, stopping rule evaluation.
    Accept,
    /// Reject the route, stopping rule evaluation.
    Reject,
    /// Set LOCAL_PREF.
    SetLocalPref(u32),
    /// Set MED.
    SetMed(u32),
    /// Prepend an ASN n times.
    Prepend(Asn, u8),
    /// Attach a community.
    AddCommunity(Community),
    /// Detach a community.
    RemoveCommunity(Community),
    /// Detach every community whose high 16 bits equal the value (route
    /// servers strip their `0:*` control communities on export).
    RemoveCommunitiesWithAsn(u16),
    /// Strip every community.
    ClearCommunities,
    /// Rewrite the next hop.
    SetNextHop(Ipv4Addr),
    /// Strip private ASNs from the path (PEERING does this for emulated
    /// domains behind its public ASN).
    StripPrivateAsns,
}

impl Action {
    /// True for `Accept` and `Reject`, the two actions that stop rule
    /// evaluation.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Action::Accept | Action::Reject)
    }

    /// `Some(true)` for `Accept`, `Some(false)` for `Reject`, `None` for
    /// every modifying action.
    pub fn terminal_verdict(&self) -> Option<bool> {
        match self {
            Action::Accept => Some(true),
            Action::Reject => Some(false),
            _ => None,
        }
    }
}

/// A rule: when `matches` holds, run `actions` in order. An `Accept` or
/// `Reject` action is terminal; a rule without a terminal action falls
/// through to the next rule (with its modifications kept).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// The predicate.
    pub matches: Match,
    /// Actions to run on match.
    pub actions: Vec<Action>,
}

impl PolicyRule {
    /// Build a rule.
    pub fn new(matches: Match, actions: Vec<Action>) -> Self {
        PolicyRule { matches, actions }
    }

    /// The verdict this rule yields when it matches: `Some(true)` if its
    /// first terminal action accepts, `Some(false)` if it rejects, `None`
    /// if the rule falls through.
    pub fn verdict(&self) -> Option<bool> {
        self.actions.iter().find_map(Action::terminal_verdict)
    }

    /// Indices of actions that can never run because an earlier action in
    /// the same rule is terminal.
    pub fn unreachable_actions(&self) -> Vec<usize> {
        match self.actions.iter().position(Action::is_terminal) {
            Some(t) => ((t + 1)..self.actions.len()).collect(),
            None => Vec::new(),
        }
    }
}

/// The verdict when no rule terminates evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DefaultVerdict {
    /// Accept unmatched routes.
    Accept,
    /// Reject unmatched routes.
    Reject,
}

/// An ordered rule list with a default verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Policy {
    /// Rules evaluated first to last. Clones share them (a cloned
    /// `PeerConfig`, an export group's fingerprint); the first
    /// [`rule`](Self::rule) on a shared list copies it.
    pub rules: Arc<Vec<PolicyRule>>,
    /// Verdict when no terminal action fires.
    pub default: DefaultVerdict,
}

impl Default for Policy {
    fn default() -> Self {
        Policy::accept_all()
    }
}

impl Policy {
    /// Accept everything unchanged.
    pub fn accept_all() -> Self {
        Policy {
            rules: Arc::default(),
            default: DefaultVerdict::Accept,
        }
    }

    /// Reject everything.
    pub fn reject_all() -> Self {
        Policy {
            rules: Arc::default(),
            default: DefaultVerdict::Reject,
        }
    }

    /// Builder: append a rule.
    pub fn rule(mut self, matches: Match, actions: Vec<Action>) -> Self {
        Arc::make_mut(&mut self.rules).push(PolicyRule::new(matches, actions));
        self
    }

    /// Builder: set the default verdict.
    pub fn default_verdict(mut self, v: DefaultVerdict) -> Self {
        self.default = v;
        self
    }

    /// True when no rule's match reads the prefix (actions never do):
    /// [`apply`](Self::apply) then depends on the attributes alone.
    pub fn is_prefix_free(&self) -> bool {
        self.rules.iter().all(|rule| rule.matches.is_prefix_free())
    }

    /// Apply the policy. Returns `true` to accept (with `attrs` possibly
    /// modified) or `false` to reject.
    pub fn apply(&self, prefix: &Prefix, attrs: &mut PathAttributes) -> bool {
        for rule in self.rules.iter() {
            if !rule.matches.matches(prefix, attrs) {
                continue;
            }
            for action in &rule.actions {
                match action {
                    Action::Accept => return true,
                    Action::Reject => return false,
                    Action::SetLocalPref(v) => attrs.local_pref = Some(*v),
                    Action::SetMed(v) => attrs.med = Some(*v),
                    Action::Prepend(asn, n) => attrs.as_path.prepend(*asn, *n as usize),
                    Action::AddCommunity(c) => attrs.add_community(*c),
                    Action::RemoveCommunity(c) => attrs.remove_community(*c),
                    Action::RemoveCommunitiesWithAsn(asn) => {
                        attrs.communities.retain(|c| c.asn() != *asn)
                    }
                    Action::ClearCommunities => attrs.communities.clear(),
                    Action::SetNextHop(ip) => attrs.next_hop = *ip,
                    Action::StripPrivateAsns => attrs.as_path.strip_private(),
                }
            }
        }
        self.default == DefaultVerdict::Accept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AsPath;

    fn attrs(path: &[u32]) -> PathAttributes {
        PathAttributes {
            as_path: AsPath::from_asns(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>()),
            ..Default::default()
        }
    }

    #[test]
    fn match_primitives() {
        let p = Prefix::v4(184, 164, 224, 0, 24);
        let a = attrs(&[100, 200]);
        assert!(Match::Any.matches(&p, &a));
        assert!(Match::PrefixIn(vec![Prefix::v4(184, 164, 224, 0, 19)]).matches(&p, &a));
        assert!(!Match::PrefixIn(vec![Prefix::v4(10, 0, 0, 0, 8)]).matches(&p, &a));
        assert!(Match::PrefixExact(vec![p]).matches(&p, &a));
        assert!(!Match::PrefixExact(vec![Prefix::v4(184, 164, 224, 0, 19)]).matches(&p, &a));
        assert!(Match::LongerThan(19).matches(&p, &a));
        assert!(!Match::LongerThan(24).matches(&p, &a));
        assert!(Match::AsPathContains(Asn(200)).matches(&p, &a));
        assert!(Match::OriginatedBy(Asn(200)).matches(&p, &a));
        assert!(!Match::OriginatedBy(Asn(100)).matches(&p, &a));
        assert!(Match::AsPathLongerThan(1).matches(&p, &a));
        assert!(!Match::AsPathLongerThan(2).matches(&p, &a));
        assert!(Match::OriginIs(Origin::Igp).matches(&p, &a));
    }

    #[test]
    fn match_combinators() {
        let p = Prefix::v4(10, 0, 0, 0, 24);
        let a = attrs(&[1]);
        let yes = Match::Any;
        let no = Match::Not(Box::new(Match::Any));
        assert!(!no.matches(&p, &a));
        assert!(Match::All(vec![yes.clone(), yes.clone()]).matches(&p, &a));
        assert!(!Match::All(vec![yes.clone(), no.clone()]).matches(&p, &a));
        assert!(Match::AnyOf(vec![no.clone(), yes.clone()]).matches(&p, &a));
        assert!(!Match::AnyOf(vec![no.clone(), no]).matches(&p, &a));
        assert!(Match::All(vec![]).matches(&p, &a));
        assert!(!Match::AnyOf(vec![]).matches(&p, &a));
    }

    #[test]
    fn first_terminal_action_decides() {
        let policy = Policy::accept_all()
            .rule(Match::AsPathContains(Asn(666)), vec![Action::Reject])
            .rule(Match::Any, vec![Action::SetLocalPref(200), Action::Accept]);
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut bad = attrs(&[666, 1]);
        assert!(!policy.apply(&p, &mut bad));
        let mut good = attrs(&[1]);
        assert!(policy.apply(&p, &mut good));
        assert_eq!(good.local_pref, Some(200));
    }

    #[test]
    fn fallthrough_keeps_modifications() {
        // First rule prepends but does not terminate; default accepts.
        let policy = Policy::accept_all()
            .rule(Match::Any, vec![Action::Prepend(Asn(47065), 2)])
            .rule(
                Match::Any,
                vec![Action::AddCommunity(Community::new(47065, 1))],
            );
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut a = attrs(&[1]);
        assert!(policy.apply(&p, &mut a));
        assert_eq!(a.as_path.hop_count(), 3);
        assert!(a.has_community(Community::new(47065, 1)));
    }

    #[test]
    fn default_verdicts() {
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut a = attrs(&[1]);
        assert!(Policy::accept_all().apply(&p, &mut a));
        assert!(!Policy::reject_all().apply(&p, &mut a));
        // reject_all with an explicit allow rule = allowlist.
        let allow = Policy::reject_all().rule(
            Match::PrefixIn(vec![Prefix::v4(184, 164, 224, 0, 19)]),
            vec![Action::Accept],
        );
        let mut a2 = attrs(&[1]);
        assert!(allow.apply(&Prefix::v4(184, 164, 230, 0, 24), &mut a2));
        assert!(!allow.apply(&p, &mut a2));
    }

    #[test]
    fn action_mutations() {
        let policy = Policy::accept_all().rule(
            Match::Any,
            vec![
                Action::SetMed(50),
                Action::SetNextHop(Ipv4Addr::new(9, 9, 9, 9)),
                Action::AddCommunity(Community::new(1, 1)),
                Action::AddCommunity(Community::new(1, 2)),
                Action::RemoveCommunity(Community::new(1, 1)),
            ],
        );
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut a = attrs(&[1]);
        assert!(policy.apply(&p, &mut a));
        assert_eq!(a.med, Some(50));
        assert_eq!(a.next_hop, Ipv4Addr::new(9, 9, 9, 9));
        assert_eq!(a.communities, vec![Community::new(1, 2)]);
        // ClearCommunities wipes everything.
        let wipe = Policy::accept_all().rule(Match::Any, vec![Action::ClearCommunities]);
        assert!(wipe.apply(&p, &mut a));
        assert!(a.communities.is_empty());
    }

    #[test]
    fn strip_private_asns_action() {
        let policy = Policy::accept_all().rule(Match::Any, vec![Action::StripPrivateAsns]);
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut a = attrs(&[47065, 65001, 3356]);
        assert!(policy.apply(&p, &mut a));
        assert_eq!(a.as_path.to_string(), "47065 3356");
    }

    #[test]
    fn introspection_terminal_and_structural() {
        assert!(Action::Accept.is_terminal());
        assert!(Action::Reject.is_terminal());
        assert!(!Action::SetMed(1).is_terminal());
        assert_eq!(Action::Accept.terminal_verdict(), Some(true));
        assert_eq!(Action::Reject.terminal_verdict(), Some(false));
        assert_eq!(Action::StripPrivateAsns.terminal_verdict(), None);

        let rule = PolicyRule::new(
            Match::Any,
            vec![
                Action::SetMed(1),
                Action::Reject,
                Action::Accept,
                Action::SetMed(2),
            ],
        );
        assert_eq!(rule.verdict(), Some(false));
        assert_eq!(rule.unreachable_actions(), vec![2, 3]);
        let fallthrough = PolicyRule::new(Match::Any, vec![Action::SetMed(1)]);
        assert_eq!(fallthrough.verdict(), None);
        assert!(fallthrough.unreachable_actions().is_empty());

        assert!(Match::Any.is_prefix_structural());
        assert!(Match::PrefixIn(vec![Prefix::v4(10, 0, 0, 0, 8)]).is_prefix_structural());
        assert!(Match::LongerThan(24).is_prefix_structural());
        assert!(!Match::AsPathContains(Asn(1)).is_prefix_structural());
        assert!(Match::Not(Box::new(Match::LongerThan(24))).is_prefix_structural());
        assert!(Match::All(vec![Match::Any, Match::LongerThan(8)]).is_prefix_structural());
        assert!(
            !Match::AnyOf(vec![Match::Any, Match::OriginIs(Origin::Igp)]).is_prefix_structural()
        );
    }

    #[test]
    fn prefix_free_matches_and_policies() {
        let pfx = Prefix::v4(10, 0, 0, 0, 8);
        let c = Community::new(1, 1);
        let reads_attrs = [
            Match::AsPathContains(Asn(1)),
            Match::OriginatedBy(Asn(1)),
            Match::AsPathLongerThan(3),
            Match::HasCommunity(c),
            Match::OriginIs(Origin::Igp),
        ];
        let reads_prefix = [
            Match::PrefixIn(vec![pfx]),
            Match::PrefixExact(vec![pfx]),
            Match::LongerThan(24),
        ];
        // Every variant is prefix-free or prefix-structural; only `Any`,
        // which reads nothing, is both.
        assert!(Match::Any.is_prefix_free() && Match::Any.is_prefix_structural());
        for m in &reads_attrs {
            assert!(m.is_prefix_free() && !m.is_prefix_structural(), "{m:?}");
        }
        for m in &reads_prefix {
            assert!(!m.is_prefix_free() && m.is_prefix_structural(), "{m:?}");
        }
        // Combinators are prefix-free exactly when every leaf is, at any
        // depth: one prefix-reading leaf taints the whole tree.
        let free = || Match::HasCommunity(c);
        let bound = || Match::LongerThan(24);
        let not = |m: Match| Match::Not(Box::new(m));
        assert!(not(free()).is_prefix_free());
        assert!(!not(bound()).is_prefix_free());
        assert!(Match::All(vec![]).is_prefix_free() && Match::AnyOf(vec![]).is_prefix_free());
        assert!(Match::All(vec![free(), Match::Any]).is_prefix_free());
        assert!(!Match::All(vec![free(), bound()]).is_prefix_free());
        assert!(Match::AnyOf(vec![free(), not(free())]).is_prefix_free());
        assert!(!Match::AnyOf(vec![free(), bound()]).is_prefix_free());
        let nested = |leaf: Match| {
            Match::All(vec![
                free(),
                Match::AnyOf(vec![Match::Any, not(Match::All(vec![leaf]))]),
            ])
        };
        assert!(nested(free()).is_prefix_free());
        assert!(!nested(bound()).is_prefix_free());
        // A mixed tree is neither.
        assert!(!nested(bound()).is_prefix_structural());

        // A policy is prefix-free when every rule's match is; actions and
        // the default verdict never read the prefix.
        assert!(Policy::accept_all().is_prefix_free());
        assert!(Policy::reject_all().is_prefix_free());
        let steer = Policy::reject_all()
            .rule(free(), vec![Action::SetLocalPref(200), Action::Accept])
            .rule(Match::Any, vec![Action::Prepend(Asn(7), 2)]);
        assert!(steer.is_prefix_free());
        assert!(!steer.rule(bound(), vec![Action::Reject]).is_prefix_free());
    }

    #[test]
    fn community_steering_no_export() {
        // The classic "don't send to this peer" community gate.
        let policy = Policy::accept_all().rule(
            Match::HasCommunity(Community::NO_EXPORT),
            vec![Action::Reject],
        );
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let mut tagged = attrs(&[1]);
        tagged.add_community(Community::NO_EXPORT);
        assert!(!policy.apply(&p, &mut tagged));
        let mut plain = attrs(&[1]);
        assert!(policy.apply(&p, &mut plain));
    }

    #[test]
    fn clones_share_rules_until_one_is_extended() {
        let base = Policy::accept_all().rule(Match::Any, vec![Action::SetMed(1)]);
        let clone = base.clone();
        assert!(Arc::ptr_eq(&base.rules, &clone.rules));
        let extended = clone.rule(Match::Any, vec![Action::Reject]);
        assert_eq!(base.rules.len(), 1);
        assert_eq!(base.rules[0].actions, vec![Action::SetMed(1)]);
        assert_eq!(extended.rules.len(), 2);
        assert!(!Arc::ptr_eq(&base.rules, &extended.rules));
    }

    #[test]
    fn debug_and_json_forms_are_pinned() {
        // Export-group keys hash the `Debug` form, so sharing the rules
        // must not change a byte of it, nor of the serialized policy.
        let policy = Policy::reject_all()
            .rule(
                Match::HasCommunity(Community::new(47065, 1)),
                vec![Action::SetLocalPref(200), Action::Accept],
            )
            .rule(
                Match::PrefixIn(vec![Prefix::v4(184, 164, 224, 0, 19)]),
                vec![Action::Prepend(Asn(47065), 2)],
            );
        assert_eq!(
            format!("{policy:?}"),
            "Policy { rules: [PolicyRule { matches: HasCommunity(Community(3084451841)), \
             actions: [SetLocalPref(200), Accept] }, PolicyRule { matches: \
             PrefixIn([184.164.224.0/19]), actions: [Prepend(Asn(47065), 2)] }], \
             default: Reject }"
        );
        let json = serde_json::to_string(&policy).unwrap();
        assert_eq!(
            json,
            r#"{"rules":[{"matches":{"HasCommunity":3084451841},"actions":"#.to_string()
                + r#"[{"SetLocalPref":200},"Accept"]},{"matches":{"PrefixIn":"#
                + r#"[{"V4":{"addr":3097812992,"len":19}}]},"actions":[{"Prepend":"#
                + r#"[47065,2]}]}],"default":"Reject"}"#
        );
        assert_eq!(serde_json::from_str::<Policy>(&json).unwrap(), policy);
    }
}
