//! Whole-config verification: experiments against the safety rules, and
//! policy chains against the three violations they must exclude.

use crate::domain::PrefixSet;
use crate::policy::{analyze_policy, AbstractPath};
use crate::report::{Finding, FindingCode, Report};
use peering_bgp::Policy;
use peering_core::safety::SafetyConfig;
use peering_core::{Experiment, Violation};
use peering_netsim::{Asn, Prefix};

/// The region of prefix space PEERING is allowed to emit: everything
/// covered by a configured v4 or v6 pool.
fn pool_region(safety: &SafetyConfig) -> PrefixSet {
    let mut region = PrefixSet::empty();
    for net in &safety.pools {
        region = region.union(&PrefixSet::covered_by(&Prefix::V4(*net)));
    }
    for net in &safety.pools_v6 {
        region = region.union(&PrefixSet::covered_by(&Prefix::V6(*net)));
    }
    region
}

/// Report structural defects (dead rules, shadowed rules, unreachable
/// action arms) of one policy as warnings.
fn report_policy_structure(name: &str, policy: &Policy, ctx: &AbstractPath, report: &mut Report) {
    let analysis = analyze_policy(policy, ctx);
    for i in &analysis.dead_rules {
        report.push(Finding::warning(
            FindingCode::DeadRule,
            format!("{name} rule {i}"),
            "its match region is empty: the rule can never fire".to_string(),
        ));
    }
    for (i, by) in &analysis.shadowed_rules {
        report.push(Finding::warning(
            FindingCode::ShadowedRule,
            format!("{name} rule {i}"),
            format!("every prefix it could match is already decided by rule {by}"),
        ));
    }
    for (i, arms) in &analysis.unreachable_actions {
        report.push(Finding::warning(
            FindingCode::UnreachableActions,
            format!("{name} rule {i}"),
            format!("action(s) {arms:?} follow a terminal Accept/Reject and can never run"),
        ));
    }
}

/// Statically verify a mux policy chain against the safety config.
///
/// Proves (or refutes with a witness prefix) that the composed
/// `import ∘ export` chain can never emit:
///
/// - a **hijack** — a route for space outside PEERING's pools reaching
///   an upstream: checked as `accept(import) ∩ accept(export) ⊆ pools`,
/// - a **route leak** — a route learned from the Internet re-exported
///   back out: checked as `accept(export) ⊆ pools` under the
///   no-knowledge context (an Internet route for non-pool space can
///   carry arbitrary attributes, so only the export filter stands
///   between it and a leak).
///
/// Both checks use over-approximations of the accept regions, so a pass
/// is a proof; a failure yields a concrete witness prefix but may in
/// principle be a false alarm for attribute-gated policies (none of the
/// shipped chains are attribute-gated on the accept side).
///
/// Also reports dead/shadowed rules and unreachable action arms in
/// either policy, as warnings.
pub fn verify_chain(import: &Policy, export: &Policy, safety: &SafetyConfig) -> Report {
    let mut report = Report::new();
    let ctx = AbstractPath::top();
    let pools = pool_region(safety);

    let import_analysis = analyze_policy(import, &ctx);
    let export_analysis = analyze_policy(export, &ctx);

    // Hijack: something outside the pools survives both filters.
    let emit = import_analysis
        .accept_may
        .intersect(&export_analysis.accept_may);
    let escape = emit.subtract(&pools);
    if let Some(witness) = escape.example() {
        report.push(Finding::error(
            FindingCode::HijackPossible,
            "import+export chain",
            format!(
                "the composed policies can emit {witness}, which is outside every PEERING pool"
            ),
        ));
    }

    // Route leak: the export filter alone must pin emissions to the
    // pools, because Internet-learned routes bypass the client import
    // policy.
    let leak = export_analysis.accept_may.subtract(&pools);
    if let Some(witness) = leak.example() {
        report.push(Finding::error(
            FindingCode::RouteLeakPossible,
            "export policy",
            format!("a route learned from the Internet for {witness} would be re-exported"),
        ));
    }

    report_policy_structure("import policy", import, &ctx, &mut report);
    report_policy_structure("export policy", export, &ctx, &mut report);
    report
}

/// One active announcement of either family, as the per-announcement
/// checks see it.
struct Active<'a> {
    /// The experiment's allocation in the announcement's family.
    owned: Prefix,
    prefix: Prefix,
    prepend: u8,
    poison: &'a [Asn],
    emulated_origin: Option<Asn>,
}

impl Active<'_> {
    /// The abstract path context for this announcement with the given
    /// origin: origin + prepends + poisons, nothing else.
    fn path_context(&self, origin: Asn) -> AbstractPath {
        let mut must = vec![origin];
        must.extend(self.poison.iter().copied());
        must.extend(self.emulated_origin);
        let extra = u32::from(self.prepend) + self.poison.len() as u32;
        AbstractPath {
            origin: if self.poison.is_empty() && self.emulated_origin.is_none() {
                Some(origin)
            } else {
                None
            },
            must_contain: must,
            closed: true,
            min_hops: Some(1),
            max_hops: Some(1 + extra + u32::from(self.emulated_origin.is_some())),
        }
    }
}

fn violation_finding(subject: String, v: &Violation) -> Finding {
    let code = match v {
        Violation::Hijack(_) => FindingCode::HijackPossible,
        Violation::NotYourPrefix(_) => FindingCode::NotYourPrefix,
        Violation::BadOrigin(_) => FindingCode::BadOrigin,
        Violation::ExcessivePrepend(_) => FindingCode::ExcessivePrepend,
        Violation::ExcessivePoison(_) => FindingCode::ExcessivePoison,
        // The remaining violations are dynamic (damping, rate limits,
        // spoofing) and cannot arise from static_check.
        _ => FindingCode::FilteredAnnouncement,
    };
    Finding::error(code, subject, v.to_string())
}

/// Statically verify one experiment's configuration against the safety
/// rules, without executing anything.
///
/// Per announcement, v4 and v6 alike: the pure
/// [`SafetyConfig::static_check`] (hijack, ownership, origin, prepend and
/// poison budgets), then a reachability check against the mux import
/// policy — an announcement the mux would silently drop (e.g. a too-long
/// prefix) is flagged as [`FindingCode::FilteredAnnouncement`]. Per
/// experiment: the composed import/export chain is verified via
/// [`verify_chain`].
pub fn verify_experiment(exp: &Experiment, safety: &SafetyConfig) -> Report {
    let mut report = Report::new();
    let origin = exp
        .origin_asn
        .or_else(|| safety.public_asns.first().copied())
        .unwrap_or(Asn::PEERING);

    let import = safety.client_import_policy();
    let export = safety.export_safety_policy();

    let v4 = exp.active.values().map(|spec| Active {
        owned: Prefix::V4(exp.prefix),
        prefix: Prefix::V4(spec.prefix),
        prepend: spec.prepend,
        poison: &spec.poison,
        emulated_origin: spec.emulated_origin,
    });
    // A v6 announcement is the experiment's /48, announced plain. Without
    // a /48 the experiment owns no v6 space: its v4 allocation covers no
    // v6 prefix, so the kernel reports the announcement as not its own.
    let owned_v6 = exp.v6_prefix.map_or(Prefix::V4(exp.prefix), Prefix::V6);
    let v6 = exp.active_v6.keys().map(|net| Active {
        owned: owned_v6,
        prefix: Prefix::V6(*net),
        prepend: 0,
        poison: &[],
        emulated_origin: None,
    });
    for a in v4.chain(v6) {
        let subject = format!("experiment \"{}\" announcement {}", exp.name, a.prefix);
        let verdict = safety.static_check(a.owned, a.prefix, origin, a.prepend, a.poison.len());
        if let Err(v) = verdict {
            report.push(violation_finding(subject, &v));
            continue;
        }
        // The announcement passed the safety rules; make sure the mux's
        // import policy will actually carry it. A dropped announcement is
        // not a safety problem, but it is a misconfiguration worth
        // flagging. Analyzing under the announcement's own path context
        // keeps the check precise for attribute-gated import policies.
        let import_accept = analyze_policy(&import, &a.path_context(origin)).accept_may;
        let region = PrefixSet::exactly(&a.prefix);
        if region.intersect(&import_accept).is_empty() {
            report.push(Finding::warning(
                FindingCode::FilteredAnnouncement,
                subject,
                format!(
                    "{} passes the safety rules but the mux import policy rejects it \
                     (too specific or outside the pools): it would be silently dropped",
                    a.prefix
                ),
            ));
        }
    }

    report.merge(verify_chain(&import, &export, safety));
    report
}

/// Verify a set of concurrently-provisioned experiments: each one
/// individually, plus cross-experiment prefix allocation conflicts
/// (overlapping v4 /24s or v6 /48s).
pub fn verify_experiments(exps: &[Experiment], safety: &SafetyConfig) -> Report {
    let mut report = Report::new();
    for exp in exps {
        report.merge(verify_experiment(exp, safety));
    }
    for (i, a) in exps.iter().enumerate() {
        for b in exps.iter().skip(i + 1) {
            if a.prefix.overlaps(&b.prefix) {
                report.push(Finding::error(
                    FindingCode::AllocationConflict,
                    format!("experiments \"{}\" and \"{}\"", a.name, b.name),
                    format!("allocations {} and {} overlap", a.prefix, b.prefix),
                ));
            }
            if let (Some(av6), Some(bv6)) = (a.v6_prefix, b.v6_prefix) {
                if av6.overlaps(&bv6) {
                    report.push(Finding::error(
                        FindingCode::AllocationConflict,
                        format!("experiments \"{}\" and \"{}\"", a.name, b.name),
                        format!("v6 allocations {av6} and {bv6} overlap"),
                    ));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_core::{AnnouncementSpec, ExperimentId};
    use peering_netsim::{Ipv4Net, SimTime};
    use std::collections::BTreeMap;

    fn experiment(name: &str, prefix: Ipv4Net) -> Experiment {
        Experiment {
            id: ExperimentId(1),
            name: name.to_string(),
            owner: "repro".to_string(),
            prefix,
            created: SimTime::ZERO,
            active: BTreeMap::new(),
            v6_prefix: None,
            origin_asn: None,
            active_v6: BTreeMap::new(),
        }
    }

    fn pool24() -> Ipv4Net {
        "184.164.225.0/24".parse().expect("net")
    }

    #[test]
    fn default_chain_verifies_clean() {
        let safety = SafetyConfig::peering_default();
        let report = verify_chain(
            &safety.client_import_policy(),
            &safety.export_safety_policy(),
            &safety,
        );
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn clean_experiment_produces_no_findings() {
        let safety = SafetyConfig::peering_default();
        let mut exp = experiment("anycast", pool24());
        exp.active.insert(
            pool24(),
            AnnouncementSpec::everywhere(pool24(), vec![0, 1, 2]),
        );
        let report = verify_experiment(&exp, &safety);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn hijacking_spec_is_flagged() {
        let safety = SafetyConfig::peering_default();
        let outside: Ipv4Net = "8.8.8.0/24".parse().expect("net");
        let mut exp = experiment("evil", pool24());
        exp.active
            .insert(outside, AnnouncementSpec::everywhere(outside, vec![0]));
        let report = verify_experiment(&exp, &safety);
        assert!(report.has_errors());
        assert_eq!(report.with_code(FindingCode::HijackPossible).count(), 1);
    }

    #[test]
    fn announcing_anothers_prefix_is_flagged() {
        let safety = SafetyConfig::peering_default();
        let other: Ipv4Net = "184.164.226.0/24".parse().expect("net");
        let mut exp = experiment("squatter", pool24());
        exp.active
            .insert(other, AnnouncementSpec::everywhere(other, vec![0]));
        let report = verify_experiment(&exp, &safety);
        assert_eq!(report.with_code(FindingCode::NotYourPrefix).count(), 1);
    }

    #[test]
    fn budget_violations_are_flagged() {
        let safety = SafetyConfig::peering_default();
        let mut exp = experiment("loud", pool24());
        exp.active.insert(
            pool24(),
            AnnouncementSpec::everywhere(pool24(), vec![0]).prepended(safety.max_prepend + 1),
        );
        let report = verify_experiment(&exp, &safety);
        assert_eq!(report.with_code(FindingCode::ExcessivePrepend).count(), 1);

        let mut exp2 = experiment("poisoner", pool24());
        exp2.active.insert(
            pool24(),
            AnnouncementSpec::everywhere(pool24(), vec![0])
                .poisoned((0..safety.max_poison as u32 + 1).map(Asn).collect()),
        );
        let report2 = verify_experiment(&exp2, &safety);
        assert_eq!(report2.with_code(FindingCode::ExcessivePoison).count(), 1);
    }

    #[test]
    fn too_specific_announcement_warns_filtered() {
        let safety = SafetyConfig::peering_default();
        let sliver: Ipv4Net = "184.164.225.0/25".parse().expect("net");
        let mut exp = experiment("sliver", pool24());
        exp.active
            .insert(sliver, AnnouncementSpec::everywhere(sliver, vec![0]));
        let report = verify_experiment(&exp, &safety);
        // Passes the safety rules (inside the pool, inside the /24) but
        // the mux would drop it.
        assert!(!report.has_errors(), "{report}");
        assert_eq!(
            report.with_code(FindingCode::FilteredAnnouncement).count(),
            1
        );
    }

    #[test]
    fn overlapping_allocations_conflict() {
        let safety = SafetyConfig::peering_default();
        let a = experiment("first", pool24());
        let b = experiment("second", "184.164.225.128/25".parse().expect("net"));
        let report = verify_experiments(&[a, b], &safety);
        assert_eq!(report.with_code(FindingCode::AllocationConflict).count(), 1);
        // Disjoint allocations are clean.
        let c = experiment("third", "184.164.226.0/24".parse().expect("net"));
        let d = experiment("fourth", "184.164.227.0/24".parse().expect("net"));
        let report2 = verify_experiments(&[c, d], &safety);
        assert!(report2.is_clean(), "{report2}");
    }

    #[test]
    fn v6_announcements_checked_against_pool_and_allocation() {
        let safety = SafetyConfig::peering_default();
        let mut exp = experiment("v6", pool24());
        exp.v6_prefix = Some("2804:269c:1::/48".parse().expect("net"));
        // Outside the v6 pool entirely.
        exp.active_v6
            .insert("2001:db8::/48".parse().expect("net"), vec![0]);
        // Inside the pool but not this experiment's /48.
        exp.active_v6
            .insert("2804:269c:2::/48".parse().expect("net"), vec![0]);
        // Fine.
        exp.active_v6
            .insert("2804:269c:1::/48".parse().expect("net"), vec![0]);
        // Its own space, but longer than the mux imports.
        exp.active_v6
            .insert("2804:269c:1::/56".parse().expect("net"), vec![0]);
        let report = verify_experiment(&exp, &safety);
        assert_eq!(report.with_code(FindingCode::HijackPossible).count(), 1);
        assert_eq!(report.with_code(FindingCode::NotYourPrefix).count(), 1);
        assert_eq!(
            report.with_code(FindingCode::FilteredAnnouncement).count(),
            1
        );
        assert_eq!(report.findings.len(), 3, "{report}");
    }

    #[test]
    fn leaky_export_policy_is_refuted_with_witness() {
        let safety = SafetyConfig::peering_default();
        let report = verify_chain(
            &safety.client_import_policy(),
            &Policy::accept_all(),
            &safety,
        );
        assert!(report.has_errors());
        assert_eq!(report.with_code(FindingCode::RouteLeakPossible).count(), 1);
        // The import policy still pins the composed chain to the pools,
        // so no hijack finding — the leak is the export policy's fault.
        assert_eq!(report.with_code(FindingCode::HijackPossible).count(), 0);
    }
}
