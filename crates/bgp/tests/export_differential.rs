//! Export-engine differential: seeded random scripts driven through four
//! [`Speaker`]s in lockstep, compared after every step.
//!
//! The production speaker skips the re-export of a prefix whose best path
//! did not move, stages once per attribute set under prefix-free
//! policies, and imports once per UPDATE. None of that may be observable:
//!
//! 1. **production ≡ executable spec** — the same script on
//!    `without_export_groups().without_interning()` leaves an equal
//!    Loc-RIB and equal `adj_rib_out()` for every peer, and has put the
//!    same routes on the wire toward every peer;
//! 2. **provenance attached ≡ detached** — attaching a log (which keeps
//!    the speaker on the full re-export path) changes no `Vec<Output>`;
//! 3. **immediate ≡ MRAI** — once the batch timer has flushed, every
//!    peer holds what the immediate speaker sent it.
//!
//! On top of that each speaker's wire history must add up to its own
//! Adj-RIB-Out: a skipped re-export that should have emitted shows up as
//! a peer holding something other than what the speaker believes it sent.
//! And no speaker may ever put an UPDATE on a session that is not
//! Established — what a lost session had staged dies with it, however the
//! session was lost (reset, max-prefix Cease, restart, removal).

use peering_bgp::{
    Action, AsPath, Asn, BgpMessage, Community, Match, MaxPrefixConfig, Nlri, OpenMessage, Output,
    PathAttributes, PeerConfig, PeerId, Policy, Prefix, ProvenanceLog, Route, RouteSource, Speaker,
    SpeakerConfig, SpeakerEvent, UpdateMessage,
};
use peering_netsim::{SimDuration, SimRng, SimTime, TraceId};
use peering_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

const FEEDERS: [PeerId; 3] = [PeerId(1), PeerId(2), PeerId(3)];
const LISTENERS: [PeerId; 6] = [
    PeerId(10),
    PeerId(11),
    PeerId(12),
    PeerId(13),
    PeerId(14),
    PeerId(15),
];
/// Feeder 2 restarts gracefully; everyone else loses its paths at once.
const GR_PEER: PeerId = PeerId(2);
const GR_WINDOW_S: u64 = 30;
const PREFIXES: u8 = 8;
/// Feeder 1 may hold all prefixes but one, and once ceased for more stays
/// down until the script starts it again.
const FLOODER: PeerId = PeerId(1);

fn p(n: u8) -> Prefix {
    Prefix::v4(10, n, 0, 0, 16)
}

fn tagged() -> Community {
    Community::new(100, 666)
}

/// Export policies a listener can be switched to: the identity, one that
/// reads the prefix to reject, one that reads it to modify, and two that
/// read only attributes.
fn export_policy(i: usize) -> Policy {
    let quarter = Match::PrefixIn(vec![Prefix::v4(10, 0, 0, 0, 14)]);
    match i % 5 {
        0 => Policy::accept_all(),
        1 => Policy::accept_all().rule(Match::PrefixExact(vec![p(2)]), vec![Action::Reject]),
        2 => Policy::accept_all().rule(quarter, vec![Action::Prepend(Asn(65000), 2)]),
        3 => Policy::accept_all().rule(
            Match::HasCommunity(Community::new(65000, 1)),
            vec![Action::Reject],
        ),
        _ => Policy::accept_all().rule(Match::Any, vec![Action::SetMed(9)]),
    }
}

fn peers() -> Vec<PeerConfig> {
    let listener = |id: PeerId, asn: u32| PeerConfig::new(id, Asn(asn));
    vec![
        // A prefix-free import policy: the verdict is per attribute set.
        PeerConfig::new(FLOODER, Asn(100))
            .import(Policy::accept_all().rule(Match::HasCommunity(tagged()), vec![Action::Reject]))
            .with_max_prefix(
                MaxPrefixConfig::new(PREFIXES as usize - 1)
                    .idle_hold(SimDuration::from_secs(1_000_000)),
            ),
        PeerConfig::new(FEEDERS[1], Asn(200)).graceful_restart(SimDuration::from_secs(GR_WINDOW_S)),
        // A prefix-reading one: NLRIs of one UPDATE import differently.
        PeerConfig::new(FEEDERS[2], Asn(300)).import(Policy::accept_all().rule(
            Match::PrefixExact(vec![p(3)]),
            vec![Action::SetLocalPref(200)],
        )),
        listener(LISTENERS[0], 1000),
        // Paths through AS 1100 are a sender-side loop for this one alone.
        listener(LISTENERS[1], 1100),
        listener(LISTENERS[2], 1200).export(export_policy(1)),
        listener(LISTENERS[3], 1300).all_paths(),
        listener(LISTENERS[4], 1400)
            .all_paths()
            .export(export_policy(2)),
        listener(LISTENERS[5], 1500).all_paths(),
    ]
}

/// What one peer holds, going by the UPDATEs it was sent.
type Held = BTreeMap<(Prefix, u32), Arc<PathAttributes>>;

/// One speaker under the script plus the receiving end of its sessions.
struct Rig {
    s: Speaker,
    held: BTreeMap<PeerId, Held>,
    /// Sessions that are Established, going by the events reported.
    up: BTreeSet<PeerId>,
    telemetry: Telemetry,
}

impl Rig {
    fn new(cfg: SpeakerConfig) -> Rig {
        let mut s = Speaker::new(cfg);
        let telemetry = Telemetry::new();
        s.set_telemetry(telemetry.clone());
        peers()
            .into_iter()
            .for_each(|peer| s.add_peer(peer).expect("peer ids are distinct"));
        Rig {
            s,
            held: BTreeMap::new(),
            up: BTreeSet::new(),
            telemetry,
        }
    }

    /// Apply what the speaker sent to the receiving ends, in order: an
    /// UPDATE only ever travels on an Established session, and a far end
    /// whose session went down forgets what it held.
    fn absorb(&mut self, label: &str, outs: &[Output]) {
        for out in outs {
            let (peer, u) = match out {
                Output::Send(peer, BgpMessage::Update(u)) => (peer, u),
                Output::Event(SpeakerEvent::PeerUp(peer)) => {
                    self.up.insert(*peer);
                    continue;
                }
                Output::Event(SpeakerEvent::PeerDown(peer, _)) => {
                    self.up.remove(peer);
                    self.held.remove(peer);
                    continue;
                }
                _ => continue,
            };
            assert!(
                self.up.contains(peer),
                "{label}: UPDATE toward {peer}, whose session is not Established: {u:?}"
            );
            let held = self.held.entry(*peer).or_default();
            for nlri in &u.withdrawn {
                held.remove(&(nlri.prefix, nlri.path_id.unwrap_or(0)));
            }
            for nlri in &u.announced {
                let attrs = u.attrs.clone().expect("announcement carries attributes");
                held.insert((nlri.prefix, nlri.path_id.unwrap_or(0)), attrs);
            }
        }
    }

    /// Loc-RIB and every Adj-RIB-Out, flattened for comparison. The
    /// `learned_at` of a locally originated route is its staging time,
    /// which a shared base and a solo one legitimately stamp differently.
    fn tables(&self) -> Vec<(String, Vec<String>)> {
        let rows = |routes: &mut dyn Iterator<Item = &Route>| -> Vec<String> {
            routes
                .map(|r| {
                    let learned = (r.source != RouteSource::Local).then_some(r.learned_at);
                    format!(
                        "{} id={} from={} {:?} igp={} at={learned:?} trace={:?} {:?}",
                        r.prefix, r.path_id, r.peer, r.source, r.igp_cost, r.trace, r.attrs
                    )
                })
                .collect()
        };
        let mut tables = vec![("loc-rib".to_string(), rows(&mut self.s.loc_rib().iter()))];
        for peer in self.s.peer_ids() {
            let out = self.s.adj_rib_out(peer).expect("configured peer");
            tables.push((format!("adj-rib-out {peer}"), rows(&mut out.iter())));
        }
        tables
    }

    /// The wire history of every session must add up to the Adj-RIB-Out
    /// the speaker reports for it.
    fn assert_wire_matches_rib(&self, label: &str) {
        for peer in self.s.peer_ids() {
            let out = self.s.adj_rib_out(peer).expect("configured peer");
            let believed: Held = out
                .iter()
                .map(|r| ((r.prefix, r.path_id), Arc::clone(&r.attrs)))
                .collect();
            let held = self.held.get(&peer).cloned().unwrap_or_default();
            assert_eq!(held, believed, "{label}: {peer} holds what it was not sent");
        }
    }
}

/// The four speakers of one script.
struct Bench {
    production: Rig,
    spec: Rig,
    observed: Rig,
    paced: Rig,
    /// Script clock in whole seconds.
    t: u64,
}

impl Bench {
    fn new() -> Bench {
        let cfg = || SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
        let mut observed = Rig::new(cfg());
        observed.s.set_provenance(ProvenanceLog::new());
        Bench {
            production: Rig::new(cfg()),
            spec: Rig::new(cfg().without_export_groups().without_interning()),
            observed,
            paced: Rig::new(cfg().with_mrai(SimDuration::from_millis(400))),
            t: 0,
        }
    }

    /// One step: `f` on every speaker at the next whole second, then two
    /// ticks each past the MRAI interval — the second flushes what a
    /// timer firing in the first one staged — then every check.
    fn step(&mut self, label: &str, f: impl Fn(&mut Speaker, SimTime) -> Vec<Output>) {
        self.t += 1;
        let now = SimTime::from_secs(self.t);
        let drive = |rig: &mut Rig| {
            let mut outs = f(&mut rig.s, now);
            outs.extend(rig.s.tick(now + SimDuration::from_millis(450)));
            outs.extend(rig.s.tick(now + SimDuration::from_millis(900)));
            rig.absorb(label, &outs);
            assert_eq!(rig.s.check_invariants(), Ok(()), "{label}");
            let established = rig.s.peer_ids().filter(|p| rig.s.peer_established(*p));
            assert!(established.eq(rig.up.iter().copied()), "{label}: sessions");
            outs
        };
        let plain = drive(&mut self.production);
        let watched = drive(&mut self.observed);
        drive(&mut self.spec);
        drive(&mut self.paced);

        assert_eq!(
            plain, watched,
            "{label}: a provenance log changed the output"
        );
        let tables = self.production.tables();
        assert_eq!(tables, self.spec.tables(), "{label}: production vs spec");
        assert_eq!(tables, self.paced.tables(), "{label}: immediate vs MRAI");
        assert_eq!(
            self.production.held, self.spec.held,
            "{label}: production and spec sent different routes"
        );
        assert_eq!(
            self.production.held, self.paced.held,
            "{label}: MRAI packing changed what a peer ends up holding"
        );
        self.production.assert_wire_matches_rib(label);
    }

    fn up(&mut self, peer: PeerId) {
        let asn = self.production.s.peer_asn(peer).expect("scripted peer");
        // Hold time 0 disables the session timers; every peer accepts
        // ADD-PATH from the speaker, feeder 3 also sends it.
        let mut open = OpenMessage::new(asn, 0, Ipv4Addr::new(192, 0, 2, peer.0 as u8))
            .with_add_path(peer == FEEDERS[2], true);
        if peer == GR_PEER {
            open = open.with_graceful_restart(GR_WINDOW_S as u16);
        }
        self.step(&format!("start {peer}"), |s, now| s.start_peer(peer, now));
        self.step(&format!("OPEN {peer}"), |s, now| {
            s.on_message(peer, BgpMessage::Open(open.clone()), now)
        });
        self.step(&format!("KEEPALIVE {peer}"), |s, now| {
            s.on_message(peer, BgpMessage::Keepalive, now)
        });
        assert!(self.production.s.peer_established(peer), "{peer} up");
    }

    fn feed(&mut self, label: &str, from: PeerId, update: &UpdateMessage, times: usize) {
        self.step(label, |s, now| {
            let mut outs = Vec::new();
            for _ in 0..times {
                outs.extend(s.on_message(from, BgpMessage::Update(update.clone()), now));
            }
            outs
        });
    }
}

/// A random announcement from `from`: one of a few paths (short, long,
/// through AS 1100), one of a few attribute tweaks, up to three prefixes
/// sharing the one attribute set.
fn announcement(rng: &mut SimRng, from: PeerId, asn: u32) -> UpdateMessage {
    let path: &[u32] = match rng.index(5) {
        0 | 1 => &[],
        2 => &[901],
        3 => &[902, 903, 904],
        _ => &[1100],
    };
    let asns: Vec<Asn> = std::iter::once(asn)
        .chain(path.iter().copied())
        .map(Asn)
        .collect();
    let mut attrs = PathAttributes {
        as_path: AsPath::from_asns(&asns),
        next_hop: Ipv4Addr::new(192, 0, 2, from.0 as u8),
        ..Default::default()
    };
    match rng.index(6) {
        0 => attrs.med = Some(5),
        1 => attrs.add_community(tagged()),
        2 => attrs.add_community(Community::new(65000, 1)),
        _ => {}
    }
    let count = 1 + rng.index(3);
    let nlris = rng
        .distinct_indices(PREFIXES as usize, count)
        .into_iter()
        .map(|n| {
            // Feeder 3 speaks ADD-PATH: one path id per prefix.
            let path_id = (from == FEEDERS[2]).then_some(1);
            Nlri {
                prefix: p(n as u8),
                path_id,
            }
        })
        .collect();
    let trace = rng
        .chance(0.5)
        .then(|| TraceId::new(asn, rng.below(4) as u32));
    UpdateMessage::announce(Arc::new(attrs), nlris).with_trace(trace)
}

fn run_script(seed: u64, steps: usize) {
    let mut rng = SimRng::new(seed);
    let mut b = Bench::new();
    let everyone: Vec<PeerId> = FEEDERS.iter().chain(&LISTENERS).copied().collect();
    for &peer in &everyone {
        b.up(peer);
    }
    let mut last: BTreeMap<PeerId, UpdateMessage> = BTreeMap::new();
    for i in 0..steps {
        let tag = |what: String| format!("seed {seed} step {i}: {what}");
        // A session goes down by script or because the flooder tripped
        // its limit on its own.
        let is_up = |peer: &PeerId| b.production.up.contains(peer);
        let mut down: Vec<PeerId> = everyone.iter().copied().filter(|p| !is_up(p)).collect();
        let feeders_up: Vec<PeerId> = FEEDERS.iter().copied().filter(is_up).collect();
        // An export staged toward every peer at the instant a session is
        // lost: what the paced speaker must drop with the session.
        let q = p(rng.index(PREFIXES as usize) as u8);
        let stage_an_export = move |s: &mut Speaker, now| {
            let mut outs = s.withdraw_origin(q, now);
            outs.extend(s.originate(q, now));
            outs
        };
        match rng.index(20) {
            // Announce / replace / losing challenger, sometimes delivered
            // twice at one instant: the second copy moves nothing at all.
            0..=5 if !feeders_up.is_empty() => {
                let from = *rng.pick(&feeders_up).expect("non-empty");
                let asn = b.production.s.peer_asn(from).expect("scripted").0;
                let update = announcement(&mut rng, from, asn);
                let times = 1 + rng.index(2);
                b.feed(
                    &tag(format!("{from} x{times} {update:?}")),
                    from,
                    &update,
                    times,
                );
                last.insert(from, update);
            }
            // The same attributes again from the same peer, a step later.
            6 if !feeders_up.is_empty() => {
                let from = *rng.pick(&feeders_up).expect("non-empty");
                if let Some(update) = last.get(&from).cloned() {
                    b.feed(&tag(format!("{from} repeats {update:?}")), from, &update, 1);
                }
            }
            7 | 8 if !feeders_up.is_empty() => {
                let from = *rng.pick(&feeders_up).expect("non-empty");
                let count = 1 + rng.index(2);
                let nlris = rng
                    .distinct_indices(PREFIXES as usize, count)
                    .into_iter()
                    .map(|n| Nlri {
                        prefix: p(n as u8),
                        path_id: (from == FEEDERS[2]).then_some(1),
                    })
                    .collect();
                let update = UpdateMessage::withdraw(nlris);
                b.feed(&tag(format!("{from} {update:?}")), from, &update, 1);
            }
            // Session loss, with (feeder 2) and without graceful restart.
            9 => {
                let peer = *rng.pick(&everyone).expect("non-empty");
                if !down.contains(&peer) {
                    b.step(&tag(format!("reset {peer}")), |s, now| {
                        s.reset_peer(peer, now)
                    });
                }
            }
            10 | 11 if !down.is_empty() => {
                let peer = down.swap_remove(rng.index(down.len()));
                b.up(peer);
                if peer == GR_PEER && rng.chance(0.7) {
                    let eor = UpdateMessage::withdraw(Vec::new());
                    b.feed(&tag(format!("End-of-RIB {peer}")), peer, &eor, 1);
                }
            }
            12 => {
                let peer = *rng.pick(&LISTENERS).expect("non-empty");
                if !down.contains(&peer) {
                    b.step(&tag(format!("ROUTE-REFRESH {peer}")), |s, now| {
                        s.on_message(peer, BgpMessage::RouteRefresh, now)
                    });
                }
            }
            13 => {
                let peer = *rng.pick(&LISTENERS).expect("non-empty");
                let policy = export_policy(rng.index(5));
                b.step(
                    &tag(format!("set_peer_export {peer} {policy:?}")),
                    |s, now| s.set_peer_export(peer, policy.clone(), now),
                );
            }
            14 => {
                let n = rng.index(PREFIXES as usize) as u8;
                if rng.chance(0.6) {
                    b.step(&tag(format!("originate {}", p(n))), |s, now| {
                        s.originate(p(n), now)
                    });
                } else {
                    b.step(&tag(format!("withdraw origin {}", p(n))), |s, now| {
                        s.withdraw_origin(p(n), now)
                    });
                }
            }
            // The flooder offers one prefix too many and is ceased.
            16 if !down.contains(&FLOODER) => {
                let attrs = PathAttributes {
                    as_path: AsPath::from_asns(&[Asn(100)]),
                    ..Default::default()
                };
                let all = (0..PREFIXES).map(|n| Nlri::plain(p(n))).collect();
                let flood = BgpMessage::Update(UpdateMessage::announce(Arc::new(attrs), all));
                b.step(&tag(format!("{FLOODER} floods")), |s, now| {
                    let mut outs = stage_an_export(s, now);
                    outs.extend(s.on_message(FLOODER, flood.clone(), now));
                    outs
                });
                assert!(!b.production.s.peer_established(FLOODER), "ceased");
            }
            // The speaker restarts cold; every session comes back.
            17 => {
                b.step(&tag("restart".into()), |s, now| {
                    let mut outs = stage_an_export(s, now);
                    outs.extend(s.restart(now));
                    outs
                });
                for &peer in &everyone {
                    b.up(peer);
                }
            }
            // A peer is deconfigured, and configured again from scratch.
            18 => {
                let peer = *rng.pick(&everyone).expect("non-empty");
                let cfg = peers()
                    .into_iter()
                    .find(|c| c.id == peer)
                    .expect("scripted");
                b.step(&tag(format!("remove {peer}")), |s, now| {
                    let mut outs = stage_an_export(s, now);
                    outs.extend(s.remove_peer(peer, now));
                    s.add_peer(cfg.clone()).expect("peer ids are distinct");
                    outs
                });
            }
            // Let a graceful-restart window run out.
            15 if down.contains(&GR_PEER) => {
                b.t += GR_WINDOW_S;
                b.step(&tag("wait out the restart window".into()), |s, now| {
                    s.tick(now)
                });
            }
            _ => {}
        }
    }
    // The skip path must actually have been taken, or the script proves
    // nothing about it: with equal outputs, the production speaker staged
    // strictly fewer group exports than the one a provenance log keeps on
    // the full path.
    let staged = |rig: &Rig| {
        rig.telemetry
            .snapshot()
            .counter("bgp.export.group_computed")
    };
    assert!(
        staged(&b.production) < staged(&b.observed),
        "seed {seed}: no re-export was skipped ({} staged)",
        staged(&b.production)
    );
}

#[test]
fn random_scripts_agree_across_speakers() {
    for seed in 0..24 {
        run_script(seed, 160);
    }
}
