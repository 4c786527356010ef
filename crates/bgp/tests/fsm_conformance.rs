//! RFC 4271 §8 conformance: the full state × event matrix.
//!
//! Every FSM state is driven through every input class — administrative
//! (ManualStart/ManualStop), transport (connection loss, corrupt bytes),
//! every message type, and every timer (ConnectRetry, hold, keepalive) —
//! and checked against an explicit expected-transition table. A
//! completeness check guarantees no pair is silently skipped.
//!
//! The subject is an *active, retry-enabled* endpoint (the shape every
//! production speaker in this codebase uses), so a non-administrative
//! down lands in `Connect` with the ConnectRetry timer armed rather than
//! `Idle`. A second, smaller table pins the classic retry-less behavior.

use peering_bgp::{
    AsPath, Asn, BgpMessage, ConnectRetryConfig, FsmState, Nlri, NotifCode, NotificationMessage,
    OpenMessage, PathAttributes, Prefix, Session, SessionConfig, SessionEvent, SessionInput,
    UpdateMessage,
};
use peering_netsim::{SimDuration, SimTime};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Input classes, one per RFC 4271 event group the simulation models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Ev {
    /// ManualStart.
    Start,
    /// ManualStop.
    Stop,
    /// TcpConnectionFails / transport reset, no message on the wire.
    DropConn,
    /// Undecodable bytes from the transport.
    Corrupt,
    /// BGPOpen received.
    MsgOpen,
    /// KeepAliveMsg received.
    MsgKeepalive,
    /// UpdateMsg received.
    MsgUpdate,
    /// NotifMsg received.
    MsgNotification,
    /// Route-refresh received.
    MsgRouteRefresh,
    /// ConnectRetryTimer expires (tick at the armed deadline, or a
    /// no-op tick when the timer is idle).
    RetryExpire,
    /// HoldTimer expires (tick past the hold time).
    HoldExpire,
    /// KeepaliveTimer fires (tick past one third of the hold time).
    KeepaliveDue,
}

const EVENTS: [Ev; 12] = [
    Ev::Start,
    Ev::Stop,
    Ev::DropConn,
    Ev::Corrupt,
    Ev::MsgOpen,
    Ev::MsgKeepalive,
    Ev::MsgUpdate,
    Ev::MsgNotification,
    Ev::MsgRouteRefresh,
    Ev::RetryExpire,
    Ev::HoldExpire,
    Ev::KeepaliveDue,
];

const STATES: [FsmState; 5] = [
    FsmState::Idle,
    FsmState::Connect,
    FsmState::OpenSent,
    FsmState::OpenConfirm,
    FsmState::Established,
];

/// What the transition must emit on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    Nothing,
    /// An OPEN (possibly the only message).
    Open,
    /// OPEN followed by KEEPALIVE (passive-side handshake reply).
    OpenKeepalive,
    Keepalive,
    Notification,
}

/// Which owner-visible event the transition must surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Surfaced {
    None,
    Down,
    Established,
    Update,
    Refresh,
}

fn subject() -> Session {
    Session::new(
        SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1))
            .expect_peer(Asn(200))
            .with_connect_retry(ConnectRetryConfig::new(7)),
    )
}

fn peer_open() -> BgpMessage {
    BgpMessage::Open(OpenMessage::new(Asn(200), 90, Ipv4Addr::new(2, 2, 2, 2)))
}

fn an_update() -> BgpMessage {
    let attrs = Arc::new(PathAttributes {
        as_path: AsPath::from_asns(&[Asn(200)]),
        ..Default::default()
    });
    BgpMessage::Update(UpdateMessage::announce(
        attrs,
        vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))],
    ))
}

/// `input` applied to `s` at `now`, into fresh sinks.
fn run(s: &mut Session, input: SessionInput, now: SimTime) -> (Vec<BgpMessage>, Vec<SessionEvent>) {
    let mut msgs = Vec::new();
    let event = s.apply(input, now, &mut msgs);
    (msgs, event.into_iter().collect())
}

/// Drive a fresh subject into `state`, returning it and the current time.
fn reach(state: FsmState) -> (Session, SimTime) {
    let t0 = SimTime::ZERO;
    let mut s = subject();
    let steps = match state {
        FsmState::Idle => 0,
        FsmState::OpenSent => 1,
        FsmState::OpenConfirm => 2,
        // An active endpoint visits Connect only after losing an
        // established session (the simulated transport never blocks).
        FsmState::Established | FsmState::Connect => 3,
    };
    for ev in [Ev::Start, Ev::MsgOpen, Ev::MsgKeepalive]
        .into_iter()
        .take(steps)
    {
        apply(&mut s, ev, t0);
    }
    if state == FsmState::Connect {
        let t = SimTime::from_secs(10);
        apply(&mut s, Ev::DropConn, t);
        return (s, t);
    }
    (s, t0)
}

/// The session input an event class is, and the instant it happens for a
/// session at `now`.
fn input_of(s: &Session, ev: Ev, now: SimTime) -> (SessionInput, SimTime) {
    let message = |m| (SessionInput::Message(m), now);
    match ev {
        Ev::Start => (SessionInput::Start, now),
        Ev::Stop => (SessionInput::Stop, now),
        Ev::DropConn => (SessionInput::ConnectionLost, now),
        Ev::Corrupt => (SessionInput::Corrupt, now),
        Ev::MsgOpen => message(peer_open()),
        Ev::MsgKeepalive => message(BgpMessage::Keepalive),
        Ev::MsgUpdate => message(an_update()),
        Ev::MsgNotification => message(BgpMessage::Notification(NotificationMessage::new(
            NotifCode::Cease,
            2,
        ))),
        Ev::MsgRouteRefresh => message(BgpMessage::RouteRefresh),
        Ev::RetryExpire => match s.retry_deadline() {
            Some(d) => (SessionInput::Tick, d),
            None => (SessionInput::Tick, now + SimDuration::from_secs(1)),
        },
        // Hold time is 90 s on both ends; one third of it schedules the
        // keepalive. In Connect/OpenSent these instants lie beyond the
        // armed retry deadline, so the reconnect fires — that *is* the
        // observable behavior of waiting that long in those states.
        Ev::HoldExpire => (SessionInput::Tick, now + SimDuration::from_secs(91)),
        Ev::KeepaliveDue => (SessionInput::Tick, now + SimDuration::from_secs(31)),
    }
}

/// Apply one event class at `now`.
fn apply(s: &mut Session, ev: Ev, now: SimTime) -> (Vec<BgpMessage>, Vec<SessionEvent>) {
    let (input, at) = input_of(s, ev, now);
    run(s, input, at)
}

fn classify(out: &[BgpMessage]) -> Emit {
    match out {
        [] => Emit::Nothing,
        [BgpMessage::Open(_)] => Emit::Open,
        [BgpMessage::Open(_), BgpMessage::Keepalive] => Emit::OpenKeepalive,
        [BgpMessage::Keepalive] => Emit::Keepalive,
        [BgpMessage::Notification(_)] => Emit::Notification,
        other => panic!("unclassifiable emission {other:?}"),
    }
}

fn surfaced(events: &[SessionEvent]) -> Surfaced {
    match events {
        [] => Surfaced::None,
        [SessionEvent::Down { .. }] => Surfaced::Down,
        [SessionEvent::Established(_)] => Surfaced::Established,
        [SessionEvent::Update(_)] => Surfaced::Update,
        [SessionEvent::RefreshRequested] => Surfaced::Refresh,
        other => panic!("unclassifiable events {other:?}"),
    }
}

/// One row: in `state`, input `ev` must emit `emit`, surface `event`,
/// and land in `next`.
struct Row(FsmState, Ev, Emit, Surfaced, FsmState);

#[rustfmt::skip]
fn transition_table() -> Vec<Row> {
    use FsmState::*;
    vec![
        // ---- Idle: everything but ManualStart is ignored ----
        Row(Idle, Ev::Start,           Emit::Open,          Surfaced::None,        OpenSent),
        Row(Idle, Ev::Stop,            Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::DropConn,        Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::Corrupt,         Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::MsgOpen,         Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::MsgKeepalive,    Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::MsgUpdate,       Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::MsgNotification, Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::MsgRouteRefresh, Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::RetryExpire,     Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::HoldExpire,      Emit::Nothing,       Surfaced::None,        Idle),
        Row(Idle, Ev::KeepaliveDue,    Emit::Nothing,       Surfaced::None,        Idle),
        // ---- Connect: waiting out the retry backoff ----
        Row(Connect, Ev::Start,           Emit::Nothing,       Surfaced::None, Connect),
        Row(Connect, Ev::Stop,            Emit::Nothing,       Surfaced::None, Idle),
        Row(Connect, Ev::DropConn,        Emit::Nothing,       Surfaced::None, Connect),
        Row(Connect, Ev::Corrupt,         Emit::Notification,  Surfaced::None, Connect),
        Row(Connect, Ev::MsgOpen,         Emit::OpenKeepalive, Surfaced::None, OpenConfirm),
        Row(Connect, Ev::MsgKeepalive,    Emit::Notification,  Surfaced::None, Connect),
        Row(Connect, Ev::MsgUpdate,       Emit::Notification,  Surfaced::None, Connect),
        Row(Connect, Ev::MsgNotification, Emit::Nothing,       Surfaced::None, Connect),
        Row(Connect, Ev::MsgRouteRefresh, Emit::Notification,  Surfaced::None, Connect),
        Row(Connect, Ev::RetryExpire,     Emit::Open,          Surfaced::None, OpenSent),
        Row(Connect, Ev::HoldExpire,      Emit::Open,          Surfaced::None, OpenSent),
        Row(Connect, Ev::KeepaliveDue,    Emit::Open,          Surfaced::None, OpenSent),
        // ---- OpenSent: our OPEN is out, waiting for theirs ----
        Row(OpenSent, Ev::Start,           Emit::Nothing,      Surfaced::None, OpenSent),
        Row(OpenSent, Ev::Stop,            Emit::Nothing,      Surfaced::None, Idle),
        Row(OpenSent, Ev::DropConn,        Emit::Nothing,      Surfaced::None, Connect),
        Row(OpenSent, Ev::Corrupt,         Emit::Notification, Surfaced::None, Connect),
        Row(OpenSent, Ev::MsgOpen,         Emit::Keepalive,    Surfaced::None, OpenConfirm),
        Row(OpenSent, Ev::MsgKeepalive,    Emit::Notification, Surfaced::None, Connect),
        Row(OpenSent, Ev::MsgUpdate,       Emit::Notification, Surfaced::None, Connect),
        Row(OpenSent, Ev::MsgNotification, Emit::Nothing,      Surfaced::None, Connect),
        Row(OpenSent, Ev::MsgRouteRefresh, Emit::Notification, Surfaced::None, Connect),
        Row(OpenSent, Ev::RetryExpire,     Emit::Open,         Surfaced::None, OpenSent),
        Row(OpenSent, Ev::HoldExpire,      Emit::Open,         Surfaced::None, OpenSent),
        Row(OpenSent, Ev::KeepaliveDue,    Emit::Open,         Surfaced::None, OpenSent),
        // ---- OpenConfirm: OPENs exchanged, first KEEPALIVE pending ----
        Row(OpenConfirm, Ev::Start,           Emit::Nothing,      Surfaced::None,        OpenConfirm),
        Row(OpenConfirm, Ev::Stop,            Emit::Notification, Surfaced::None,        Idle),
        Row(OpenConfirm, Ev::DropConn,        Emit::Nothing,      Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::Corrupt,         Emit::Notification, Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::MsgOpen,         Emit::Notification, Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::MsgKeepalive,    Emit::Nothing,      Surfaced::Established, Established),
        Row(OpenConfirm, Ev::MsgUpdate,       Emit::Notification, Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::MsgNotification, Emit::Nothing,      Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::MsgRouteRefresh, Emit::Notification, Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::RetryExpire,     Emit::Nothing,      Surfaced::None,        OpenConfirm),
        Row(OpenConfirm, Ev::HoldExpire,      Emit::Notification, Surfaced::None,        Connect),
        Row(OpenConfirm, Ev::KeepaliveDue,    Emit::Keepalive,    Surfaced::None,        OpenConfirm),
        // ---- Established: the session is carrying routes ----
        Row(Established, Ev::Start,           Emit::Nothing,      Surfaced::None,    Established),
        Row(Established, Ev::Stop,            Emit::Notification, Surfaced::Down,    Idle),
        Row(Established, Ev::DropConn,        Emit::Nothing,      Surfaced::Down,    Connect),
        Row(Established, Ev::Corrupt,         Emit::Notification, Surfaced::Down,    Connect),
        Row(Established, Ev::MsgOpen,         Emit::Notification, Surfaced::Down,    Connect),
        Row(Established, Ev::MsgKeepalive,    Emit::Nothing,      Surfaced::None,    Established),
        Row(Established, Ev::MsgUpdate,       Emit::Nothing,      Surfaced::Update,  Established),
        Row(Established, Ev::MsgNotification, Emit::Nothing,      Surfaced::Down,    Connect),
        Row(Established, Ev::MsgRouteRefresh, Emit::Nothing,      Surfaced::Refresh, Established),
        Row(Established, Ev::RetryExpire,     Emit::Nothing,      Surfaced::None,    Established),
        Row(Established, Ev::HoldExpire,      Emit::Notification, Surfaced::Down,    Connect),
        Row(Established, Ev::KeepaliveDue,    Emit::Keepalive,    Surfaced::None,    Established),
    ]
}

#[test]
fn state_event_matrix_matches_table() {
    for Row(state, ev, want_emit, want_surfaced, want_next) in transition_table() {
        let (mut s, now) = reach(state);
        assert_eq!(s.state(), state, "harness failed to reach {state:?}");
        let (out, events) = apply(&mut s, ev, now);
        assert_eq!(
            classify(&out),
            want_emit,
            "{state:?} x {ev:?}: wrong emission {out:?}"
        );
        assert_eq!(
            surfaced(&events),
            want_surfaced,
            "{state:?} x {ev:?}: wrong surfaced events {events:?}"
        );
        assert_eq!(s.state(), want_next, "{state:?} x {ev:?}: wrong next state");
        s.check_invariants()
            .unwrap_or_else(|e| panic!("{state:?} x {ev:?}: invariant broken: {e}"));
    }
}

#[test]
fn table_covers_every_state_event_pair_exactly_once() {
    let mut seen: HashSet<(FsmState, Ev)> = HashSet::new();
    for Row(state, ev, ..) in transition_table() {
        assert!(seen.insert((state, ev)), "duplicate row {state:?} x {ev:?}");
    }
    assert_eq!(
        seen.len(),
        STATES.len() * EVENTS.len(),
        "matrix incomplete: missing {:?}",
        STATES
            .iter()
            .flat_map(|s| EVENTS.iter().map(move |e| (*s, *e)))
            .filter(|p| !seen.contains(p))
            .collect::<Vec<_>>()
    );
}

/// RFC 4486 §4 max-prefix teardown: a lone Cease (subcode 1) from any
/// non-Idle state, then a fixed idle-hold penalty in Idle that `tick`
/// ends with an automatic re-handshake at exactly the deadline — and
/// not an instant before.
#[test]
fn max_prefix_cease_serves_a_fixed_idle_hold_from_every_state() {
    let penalty = SimDuration::from_secs(60);
    for state in [
        FsmState::Connect,
        FsmState::OpenSent,
        FsmState::OpenConfirm,
        FsmState::Established,
    ] {
        let (mut s, now) = reach(state);
        let (out, events) = run(&mut s, SessionInput::MaxPrefixCease(penalty), now);
        match out.as_slice() {
            [BgpMessage::Notification(n)] => {
                assert_eq!((n.code, n.subcode), (NotifCode::Cease, 1), "{state:?}");
            }
            other => panic!("{state:?}: expected a lone Cease, got {other:?}"),
        }
        // Only a torn-down *established* session surfaces Down.
        let want = if state == FsmState::Established {
            Surfaced::Down
        } else {
            Surfaced::None
        };
        assert_eq!(surfaced(&events), want, "{state:?}");
        assert_eq!(s.state(), FsmState::Idle, "{state:?}");
        assert_eq!(s.idle_penalty_until(), Some(now + penalty), "{state:?}");
        // One instant shy of the deadline: still idle, nothing emitted.
        let shy = now + penalty - SimDuration::from_millis(1);
        let (out, ev) = run(&mut s, SessionInput::Tick, shy);
        assert!(
            out.is_empty() && ev.is_empty(),
            "{state:?}: the penalty must hold to the deadline"
        );
        assert_eq!(s.state(), FsmState::Idle, "{state:?}");
        // At the deadline: the active endpoint re-opens by itself.
        let (out, _) = run(&mut s, SessionInput::Tick, now + penalty);
        assert!(
            matches!(out.as_slice(), [BgpMessage::Open(_)]),
            "{state:?}: re-open at the deadline, got {out:?}"
        );
        assert_eq!(s.state(), FsmState::OpenSent, "{state:?}");
        assert_eq!(s.idle_penalty_until(), None, "{state:?}");
        s.check_invariants().unwrap();
    }
    // From Idle the cease is a no-op: nothing to tear down, no penalty.
    let (mut s, now) = reach(FsmState::Idle);
    let (out, events) = run(&mut s, SessionInput::MaxPrefixCease(penalty), now);
    assert!(out.is_empty() && events.is_empty());
    assert_eq!(s.idle_penalty_until(), None);
}

/// A ManualStart overrides a pending idle-hold penalty: the operator
/// clearing the session beats the automatic timer.
#[test]
fn manual_start_overrides_idle_hold_penalty() {
    let (mut s, now) = reach(FsmState::Established);
    let cease = SessionInput::MaxPrefixCease(SimDuration::from_secs(300));
    run(&mut s, cease, now);
    let restart = now + SimDuration::from_secs(5);
    let (out, _) = run(&mut s, SessionInput::Start, restart);
    assert!(matches!(out.as_slice(), [BgpMessage::Open(_)]));
    assert_eq!(s.state(), FsmState::OpenSent);
    assert_eq!(s.idle_penalty_until(), None);
    s.check_invariants().unwrap();
}

/// The classic retry-less endpoint: any non-administrative loss lands in
/// `Idle` and stays there until a ManualStart.
#[test]
fn without_retry_every_loss_is_terminal_idle() {
    let established = || {
        let mut s = Session::new(
            SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1)).expect_peer(Asn(200)),
        );
        for ev in [Ev::Start, Ev::MsgOpen, Ev::MsgKeepalive] {
            apply(&mut s, ev, SimTime::ZERO);
        }
        assert!(s.is_established());
        s
    };
    for ev in [
        Ev::DropConn,
        Ev::Corrupt,
        Ev::MsgNotification,
        Ev::HoldExpire,
    ] {
        let mut s = established();
        let (_, events) = apply(&mut s, ev, SimTime::from_secs(5));
        assert_eq!(surfaced(&events), Surfaced::Down, "{ev:?}");
        assert_eq!(s.state(), FsmState::Idle, "{ev:?}");
        assert_eq!(s.retry_deadline(), None, "{ev:?}: no timer without retry");
        // And nothing ever happens again until a ManualStart.
        let (out, ev2) = run(&mut s, SessionInput::Tick, SimTime::from_secs(100_000));
        assert!(out.is_empty() && ev2.is_empty());
        s.check_invariants().unwrap();
    }
}
