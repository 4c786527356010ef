//! Export-engine transcript golden: one scripted [`Speaker`] driven
//! through every export path — per-prefix diff, initial table sync,
//! export-group reseat, MRAI staging and flush — with every returned
//! `Vec<Output>` and the provenance stream rendered to text and pinned
//! against `goldens/export_transcript.txt`.
//!
//! The scripts run over {BestOnly, AllPaths/ADD-PATH} × {immediate,
//! `with_mrai`}, provenance on. Refresh with `UPDATE_GOLDENS=1 cargo test
//! -p peering-bgp --test export_transcript` after an *intentional* wire
//! or provenance change; a refactor of the export engine must leave the
//! file byte-identical.

use peering_bgp::{
    Action, AdvertiseMode, AsPath, Asn, BgpMessage, Community, ExportGrouping, Input, Match, Nlri,
    OpenMessage, Output, PathAttributes, PeerConfig, PeerId, Policy, Prefix, ProvenanceLog,
    Speaker, SpeakerConfig, TraceId, UpdateMessage,
};
use peering_netsim::{SimDuration, SimTime};
use peering_telemetry::Telemetry;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// `(prefix number, ADD-PATH id)`: one scripted NLRI.
type ScriptNlri = (u8, Option<u32>);

/// One scripted input. The `Debug` form is the step's transcript label.
#[derive(Debug, Clone)]
enum Step {
    /// Bring the session up, playing the remote end of the handshake.
    Up(PeerId),
    /// UPDATE announcing the NLRIs over an AS path.
    Announce(PeerId, &'static [u32], &'static [ScriptNlri], Tweak),
    /// UPDATE withdrawing the NLRIs.
    Withdraw(PeerId, &'static [ScriptNlri]),
    /// An announcement arriving RFC 7606-malformed.
    Malformed(PeerId, &'static [u32], &'static [ScriptNlri]),
    EndOfRib(PeerId),
    RouteRefresh(PeerId),
    SetExport(PeerId, Policy),
    SetGrouping(PeerId, ExportGrouping),
    /// Transport reset under the session.
    Reset(PeerId),
    Corrupt(PeerId),
    Stop(PeerId),
    Originate(u8, Community),
    WithdrawOrigin(u8),
    /// Let this many seconds pass, then tick.
    Wait(u64),
}
use Step::*;

/// What an announcement carries besides its path.
#[derive(Debug, Clone, Copy)]
enum Tweak {
    Plain,
    Med(u32),
    Tag(Community),
}

fn p(n: u8) -> Prefix {
    Prefix::v4(10, n, 0, 0, 16)
}

fn nlris(list: &[ScriptNlri]) -> Vec<Nlri> {
    let nlri = |&(n, path_id): &ScriptNlri| Nlri {
        prefix: p(n),
        path_id,
    };
    list.iter().map(nlri).collect()
}

fn announcement(path: &[u32], list: &[ScriptNlri], tweak: Tweak) -> UpdateMessage {
    let asns: Vec<Asn> = path.iter().map(|a| Asn(*a)).collect();
    let mut attrs = PathAttributes {
        as_path: AsPath::from_asns(&asns),
        next_hop: Ipv4Addr::new(192, 0, 2, 1),
        ..Default::default()
    };
    match tweak {
        Tweak::Plain => {}
        Tweak::Med(med) => attrs.med = Some(med),
        Tweak::Tag(c) => attrs.add_community(c),
    }
    UpdateMessage::announce(Arc::new(attrs), nlris(list))
}

/// The speaker under test plus the transcript it has produced so far.
struct Script {
    s: Speaker,
    log: ProvenanceLog,
    telemetry: Telemetry,
    /// Provenance records already rendered.
    seen: usize,
    /// Script clock, whole seconds; every step is followed by a tick at
    /// +500 ms, past the MRAI interval, so staged deltas reach the text.
    t: u64,
    /// Trace sequence number of the last scripted UPDATE.
    seq: u32,
    text: String,
}

impl Script {
    fn new(cfg: SpeakerConfig, mrai: bool, peers: Vec<PeerConfig>) -> Self {
        let cfg = if mrai {
            cfg.with_mrai(SimDuration::from_millis(400))
        } else {
            cfg
        };
        let mut s = Speaker::new(cfg);
        let (log, telemetry) = (ProvenanceLog::new(), Telemetry::new());
        s.set_provenance(log.clone());
        s.set_telemetry(telemetry.clone());
        peers
            .into_iter()
            .for_each(|peer| s.add_peer(peer).expect("peer ids are distinct"));
        Script {
            s,
            log,
            telemetry,
            seen: 0,
            t: 0,
            seq: 0,
            text: String::new(),
        }
    }

    fn render(&mut self, label: &str, outs: Vec<Output>) {
        writeln!(self.text, "## {label}").expect("write");
        for o in &outs {
            writeln!(self.text, "  out  {o:?}").expect("write");
        }
        let records = self.log.records();
        for r in &records[self.seen..] {
            writeln!(self.text, "  prov {r:?}").expect("write");
        }
        self.seen = records.len();
        assert_eq!(self.s.check_invariants(), Ok(()), "after {label}");
    }

    /// Apply `input` at the next whole second, then tick.
    fn at_next_second(&mut self, label: &str, input: Input) {
        self.t += 1;
        let now = SimTime::from_secs(self.t);
        let mut outs = Vec::new();
        self.s.apply(input, now, &mut outs);
        self.render(&format!("t={}s {label}", self.t), outs);
        let mut outs = Vec::new();
        let later = now + SimDuration::from_millis(500);
        self.s.apply(Input::Tick, later, &mut outs);
        self.render(&format!("t={}.5s tick", self.t), outs);
    }

    /// `update` as coming from `from`, traced as a fresh routing change.
    fn traced(&mut self, from: PeerId, update: UpdateMessage) -> UpdateMessage {
        self.seq += 1;
        let asn = self.s.peer_asn(from).expect("scripted peer").0;
        update.with_trace(Some(TraceId::new(asn, self.seq)))
    }

    /// What `step` feeds the speaker, each input with its label.
    fn lower(&mut self, step: &Step) -> Vec<(String, Input)> {
        let update = |from, update| Input::Message(from, BgpMessage::Update(update));
        let input = match step.clone() {
            Up(peer) => {
                // Hold time 0 disables the session timers, so ticks
                // only ever show export-engine output. Peer 2 restarts
                // gracefully, peer 3 sends ADD-PATH, and every peer
                // accepts ADD-PATH from the speaker.
                let asn = self.s.peer_asn(peer).expect("scripted peer");
                let router_id = Ipv4Addr::new(192, 0, 2, peer.0 as u8);
                let mut open =
                    OpenMessage::new(asn, 0, router_id).with_add_path(peer == PeerId(3), true);
                if peer == PeerId(2) {
                    open = open.with_graceful_restart(30);
                }
                let open = Input::Message(peer, BgpMessage::Open(open));
                let keepalive = Input::Message(peer, BgpMessage::Keepalive);
                return vec![
                    (format!("{step:?}"), Input::StartPeer(peer)),
                    ("  OPEN".into(), open),
                    ("  KEEPALIVE".into(), keepalive),
                ];
            }
            Announce(from, path, list, tweak) => {
                update(from, self.traced(from, announcement(path, list, tweak)))
            }
            Withdraw(from, list) => update(
                from,
                self.traced(from, UpdateMessage::withdraw(nlris(list))),
            ),
            Malformed(from, path, list) => {
                let announced = announcement(path, list, Tweak::Plain);
                Input::MalformedUpdate(from, self.traced(from, announced))
            }
            EndOfRib(from) => update(from, UpdateMessage::withdraw(Vec::new())),
            RouteRefresh(from) => Input::Message(from, BgpMessage::RouteRefresh),
            SetExport(peer, policy) => Input::SetPeerExport(peer, policy),
            SetGrouping(peer, g) => Input::SetPeerExportGrouping(peer, g),
            Reset(peer) => Input::ResetPeer(peer),
            Corrupt(peer) => Input::CorruptMessage(peer),
            Stop(peer) => Input::StopPeer(peer),
            Originate(n, c) => Input::Originate(p(n), vec![c]),
            WithdrawOrigin(n) => Input::WithdrawOrigin(p(n)),
            Wait(secs) => {
                self.t += secs;
                Input::Tick
            }
        };
        vec![(format!("{step:?}"), input)]
    }

    fn run(mut self, script: &[Step]) -> String {
        for step in script {
            for (label, input) in self.lower(step) {
                self.at_next_second(&label, input);
            }
            if let Up(peer) = step {
                assert!(self.s.peer_established(*peer), "{peer} established");
            }
        }
        self.final_state()
    }

    /// Append every peer's final RIB state and the non-FSM counters.
    fn final_state(mut self) -> String {
        writeln!(self.text, "## final state").expect("write");
        for r in self.s.loc_rib().iter() {
            writeln!(self.text, "  loc  {r:?}").expect("write");
        }
        for peer in self.s.peer_ids().collect::<Vec<_>>() {
            let group = self.s.export_group_of(peer).expect("configured");
            let members = self.s.export_group_len(group);
            writeln!(self.text, "  {peer} group_len={members}").expect("write");
            for r in self.s.adj_rib_out(peer).expect("configured").iter() {
                writeln!(self.text, "  out[{peer}] {r:?}").expect("write");
            }
        }
        let (sent, received) = (self.s.updates_sent, self.s.updates_received);
        writeln!(
            self.text,
            "  updates_sent={sent} updates_received={received}"
        )
        .expect("write");
        for (name, v) in &self.telemetry.snapshot().counters {
            // `bgp.fsm.*` is pinned by the speaker's own unit tests; the
            // transcript is about routes, wire messages and provenance.
            if !name.starts_with("bgp.fsm.") {
                writeln!(self.text, "  counter {name}={v}").expect("write");
            }
        }
        self.text
    }
}

fn listener(id: u32, asn: u32, advertise: AdvertiseMode) -> PeerConfig {
    let cfg = PeerConfig::new(PeerId(id), Asn(asn));
    match advertise {
        AdvertiseMode::BestOnly => cfg,
        AdvertiseMode::AllPaths => cfg.all_paths(),
    }
}

/// A normal router: feeders 1 (import rejects `100:666`), 2 (graceful
/// restart) and 3 (ADD-PATH sender); listeners 10 and 11 auto-grouped,
/// 12 solo. Listener 11's ASN is 1100, so paths through AS 1100 are a
/// sender-side loop for it alone.
fn router_script(advertise: AdvertiseMode, mrai: bool) -> String {
    let (f1, f2, f3) = (PeerId(1), PeerId(2), PeerId(3));
    let (l1, l2, l3) = (PeerId(10), PeerId(11), PeerId(12));
    let tagged = Community::new(100, 666);
    let reject = |m: Match| Policy::accept_all().rule(m, vec![Action::Reject]);
    let peers = vec![
        PeerConfig::new(f1, Asn(100)).import(reject(Match::HasCommunity(tagged))),
        PeerConfig::new(f2, Asn(200)).graceful_restart(SimDuration::from_secs(30)),
        PeerConfig::new(f3, Asn(300)),
        listener(10, 1000, advertise),
        listener(11, 1100, advertise),
        listener(12, 1200, advertise).export_solo(),
    ];
    let cfg = SpeakerConfig::new(Asn(65000), Ipv4Addr::new(10, 0, 0, 1));
    Script::new(cfg, mrai, peers).run(&[
        Up(f1),
        Up(f2),
        Up(f3),
        Up(l1),
        Up(l3),
        Announce(f1, &[100], &[(1, None)], Tweak::Plain),
        Announce(f2, &[200, 201], &[(1, None), (2, None)], Tweak::Plain),
        Announce(f1, &[100, 1100], &[(3, None)], Tweak::Plain),
        // One path per (prefix, feeder): AllPaths export derives the path
        // id from the learning peer, so a feeder's own ids only need
        // exercising on the Adj-RIB-In side.
        Announce(f3, &[300, 301, 302], &[(1, Some(1))], Tweak::Plain),
        Announce(f3, &[300, 303], &[(7, Some(2))], Tweak::Plain),
        // An initial sync into a group whose base is already live.
        Up(l2),
        Originate(5, Community::new(65000, 5)),
        Announce(f2, &[200], &[(1, None)], Tweak::Med(7)),
        Announce(f1, &[100, 101], &[(4, None)], Tweak::Plain),
        // Import reject of a held path: an implicit withdraw.
        Announce(f1, &[100, 101], &[(4, None)], Tweak::Tag(tagged)),
        Withdraw(f3, &[(1, Some(1))]),
        Withdraw(f1, &[(1, None)]),
        RouteRefresh(l1),
        SetExport(l2, reject(Match::PrefixExact(vec![p(2)]))),
        Announce(f2, &[200, 206], &[(6, None)], Tweak::Plain),
        SetExport(l2, Policy::accept_all()),
        SetGrouping(l3, ExportGrouping::Auto),
        SetGrouping(l1, ExportGrouping::Solo),
        Malformed(f1, &[100, 1100], &[(3, None)]),
        // Graceful restart: paths go stale, p2 comes back, End-of-RIB
        // sweeps the rest.
        Reset(f2),
        Up(f2),
        Announce(f2, &[200, 201], &[(2, None)], Tweak::Plain),
        EndOfRib(f2),
        Reset(f1),
        Corrupt(f3),
        Reset(l2),
        Up(l2),
        WithdrawOrigin(5),
        Stop(l3),
        // A restart that never completes: the window expires in a tick.
        Reset(f2),
        Wait(40),
    ])
}

/// An RFC 7947 route server with engine-side `0:<member>` blocks: the
/// three members share one export group; the block is a per-member mask.
fn route_server_script(advertise: AdvertiseMode, mrai: bool) -> String {
    let (a, b, c) = (PeerId(1), PeerId(2), PeerId(3));
    let strip = vec![Action::RemoveCommunitiesWithAsn(0), Action::Accept];
    let strip_control = Policy::accept_all().rule(Match::Any, strip);
    let member = |id, asn| listener(id, asn, advertise).export(strip_control.clone());
    let peers = vec![member(1, 64501), member(2, 64502), member(3, 64503)];
    let cfg = SpeakerConfig::new(Asn(64500), Ipv4Addr::new(10, 0, 0, 1))
        .route_server()
        .with_rs_member_blocks();
    Script::new(cfg, mrai, peers).run(&[
        Up(a),
        Up(b),
        Up(c),
        Announce(
            a,
            &[64501],
            &[(101, None)],
            Tweak::Tag(Community::new(0, 64502)),
        ),
        Announce(a, &[64501], &[(102, None)], Tweak::Plain),
        Announce(c, &[64503, 64510], &[(101, None)], Tweak::Plain),
        SetGrouping(b, ExportGrouping::Solo),
        SetGrouping(b, ExportGrouping::Auto),
        RouteRefresh(b),
        // The block lifts: b's mask entry goes and b hears the route.
        Announce(a, &[64501], &[(101, None)], Tweak::Plain),
        Withdraw(a, &[(101, None), (102, None)]),
    ])
}

#[test]
fn export_transcript_matches_golden() {
    let mut rendered = String::new();
    for advertise in [AdvertiseMode::BestOnly, AdvertiseMode::AllPaths] {
        for mrai in [false, true] {
            let pacing = if mrai { "mrai" } else { "immediate" };
            writeln!(rendered, "# router {advertise:?} {pacing}").expect("write");
            rendered.push_str(&router_script(advertise, mrai));
            writeln!(rendered, "# route-server {advertise:?} {pacing}").expect("write");
            rendered.push_str(&route_server_script(advertise, mrai));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens/export_transcript.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let on_disk = std::fs::read_to_string(&path).expect("golden; refresh with UPDATE_GOLDENS=1");
    // Report the first differing line: the transcript is too long for a
    // whole-file assert_eq! diff to be readable.
    for (i, (want, got)) in on_disk.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "export transcript drifted at line {}", i + 1);
    }
    let (want, got) = (on_disk.lines().count(), rendered.lines().count());
    assert_eq!(want, got, "export transcript length drifted");
}
