//! The BGP session finite-state machine (RFC 4271 §8).
//!
//! The simulated transport replaces TCP: connection setup is instantaneous
//! when a link exists, so `Connect`/`Active` collapse into a single
//! `Connect` state used by the passive side while it waits for the remote
//! OPEN. All the protocol-visible behavior is kept: OPEN negotiation
//! (including hold-time, 4-octet ASN, and ADD-PATH capabilities),
//! keepalive scheduling at one third of the negotiated hold time, hold
//! timer expiry producing a NOTIFICATION, and session teardown semantics.
//!
//! A [`Session`] has one way in, [`Session::apply`], which appends the
//! messages an input sends to the caller's sink and returns the one event
//! it surfaces, if any (`Down` is surfaced only when an Established
//! session drops):
//!
//! | input | RFC 4271 §8.1 event | may send | may surface |
//! |---|---|---|---|
//! | `Start` | ManualStart (1) | OPEN | — |
//! | `Stop` | ManualStop (2) | Cease | `Down` |
//! | `ConnectionLost` | TcpConnectionFails (18) | — | `Down` |
//! | `Corrupt` | BGPHeaderErr (21) | NOTIFICATION | `Down` |
//! | `Message` | BGPOpen, NotifMsg, KeepAliveMsg, UpdateMsg (19, 25–27); ROUTE-REFRESH (RFC 2918) | OPEN, KEEPALIVE, NOTIFICATION | any |
//! | `MalformedUpdate` | UpdateMsgErr (28), treat-as-withdraw (RFC 7606 §2) | NOTIFICATION | `Update` |
//! | `MaxPrefixCease` | Cease, maximum prefixes reached (RFC 4486 §4) | Cease | `Down` |
//! | `Tick` | ConnectRetry, Hold, Keepalive timer expiry (9–11); idle-hold end | OPEN, KEEPALIVE, NOTIFICATION | `Down` |

use crate::error::BgpError;
use crate::message::{BgpMessage, NotifCode, NotificationMessage, OpenMessage, UpdateMessage};
use peering_netsim::{Asn, SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// FSM states. `Active` is merged into [`FsmState::Connect`] because the
/// simulated transport cannot half-fail the way TCP can.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FsmState {
    /// Session administratively down.
    Idle,
    /// Waiting for the peer (passive) or for the retry timer (active).
    Connect,
    /// OPEN sent, waiting for the peer's OPEN.
    OpenSent,
    /// OPENs exchanged, waiting for the first KEEPALIVE.
    OpenConfirm,
    /// Session up; UPDATEs flow.
    Established,
}

/// ConnectRetry policy: deterministic exponential backoff with seeded
/// jitter (RFC 4271 §8.2.2's ConnectRetryTimer, adapted to simulation).
///
/// Attempt `n` waits `initial * 2^n`, capped at `max`, with up to a
/// `jitter` fraction shaved off by a [`SimRng`] substream — so retries
/// across a fleet of sessions decorrelate, yet every run of the same seed
/// retries at exactly the same virtual instants.
#[derive(Debug, Clone)]
pub struct ConnectRetryConfig {
    /// Backoff before the first retry.
    pub initial: SimDuration,
    /// Upper bound on the backoff.
    pub max: SimDuration,
    /// Fraction of the backoff the jitter may remove (0.0 to 1.0).
    pub jitter: f64,
    /// Seed for the jitter substream.
    pub seed: u64,
}

impl ConnectRetryConfig {
    /// Conventional policy: 5 s initial, 120 s cap, 25% jitter.
    pub fn new(seed: u64) -> Self {
        ConnectRetryConfig {
            initial: SimDuration::from_secs(5),
            max: SimDuration::from_secs(120),
            jitter: 0.25,
            seed,
        }
    }
}

/// Static configuration of one session endpoint.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Our ASN.
    pub local_asn: Asn,
    /// Our router ID.
    pub router_id: Ipv4Addr,
    /// Expected remote ASN; `None` accepts any (used by route servers).
    pub peer_asn: Option<Asn>,
    /// Proposed hold time (0 disables keepalives).
    pub hold_time: SimDuration,
    /// Whether we wait for the remote to speak first.
    pub passive: bool,
    /// Offer ADD-PATH send.
    pub add_path_send: bool,
    /// Offer ADD-PATH receive.
    pub add_path_receive: bool,
    /// Automatic reconnection after a non-administrative down. `None`
    /// (the default) keeps the classic behavior: the session falls back
    /// to `Idle` and stays there until restarted by hand. Boxed: most
    /// sessions have none.
    pub connect_retry: Option<Box<ConnectRetryConfig>>,
    /// Advertise the RFC 4724 graceful-restart capability with this
    /// restart time (seconds) in our OPEN.
    pub graceful_restart_secs: Option<u16>,
}

impl SessionConfig {
    /// A conventional active session: 90 s hold time.
    pub fn new(local_asn: Asn, router_id: Ipv4Addr) -> Self {
        SessionConfig {
            local_asn,
            router_id,
            peer_asn: None,
            hold_time: SimDuration::from_secs(90),
            passive: false,
            add_path_send: false,
            add_path_receive: false,
            connect_retry: None,
            graceful_restart_secs: None,
        }
    }

    /// Expect a specific remote ASN.
    pub fn expect_peer(mut self, asn: Asn) -> Self {
        self.peer_asn = Some(asn);
        self
    }

    /// Make this endpoint passive.
    pub fn passive(mut self) -> Self {
        self.passive = true;
        self
    }

    /// Offer ADD-PATH in the given directions.
    pub fn add_path(mut self, send: bool, receive: bool) -> Self {
        self.add_path_send = send;
        self.add_path_receive = receive;
        self
    }

    /// Reconnect automatically after non-administrative session loss.
    pub fn with_connect_retry(mut self, retry: ConnectRetryConfig) -> Self {
        self.connect_retry = Some(Box::new(retry));
        self
    }

    /// Advertise graceful restart with the given restart time.
    pub fn graceful_restart(mut self, secs: u16) -> Self {
        self.graceful_restart_secs = Some(secs);
        self
    }
}

/// What the session negotiated once established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Negotiated {
    /// Remote ASN.
    pub peer_asn: Asn,
    /// Remote router ID.
    pub peer_router_id: Ipv4Addr,
    /// Effective hold time (min of both proposals).
    pub hold_time: SimDuration,
    /// We may send multiple paths per prefix.
    pub add_path_tx: bool,
    /// We may receive multiple paths per prefix.
    pub add_path_rx: bool,
    /// The peer advertised graceful restart with this restart time.
    pub peer_restart_time: Option<SimDuration>,
}

/// Events surfaced to the owner of the session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// The session reached Established.
    Established(Negotiated),
    /// The session went down.
    Down {
        /// Human-readable reason.
        reason: String,
    },
    /// An UPDATE arrived while established.
    Update(UpdateMessage),
    /// The peer asked us to re-advertise our Adj-RIB-Out.
    RefreshRequested,
}

/// One event of the session state machine, named as in RFC 4271 §8.1.
/// [`Session::apply`] is the one way in.
#[derive(Debug, Clone)]
pub enum SessionInput {
    /// ManualStart (Event 1); it also ends a pending idle-hold penalty.
    Start,
    /// ManualStop (Event 2): a Cease from `OpenConfirm` on, then `Idle`.
    Stop,
    /// TcpConnectionFails (Event 18): no NOTIFICATION can be sent.
    ConnectionLost,
    /// BGPHeaderErr (Event 21): bytes that do not parse as a message.
    Corrupt,
    /// BGPOpen, NotifMsg, KeepAliveMsg or UpdateMsg (Events 19, 25–27),
    /// or a ROUTE-REFRESH (RFC 2918).
    Message(BgpMessage),
    /// UpdateMsgErr (Event 28) that RFC 7606 §2 treats as withdraw: the
    /// announced routes are withdrawn and the session stays up.
    MalformedUpdate(UpdateMessage),
    /// Cease, maximum number of prefixes reached (RFC 4486 §4): then
    /// `Idle` for this fixed idle-hold penalty.
    MaxPrefixCease(SimDuration),
    /// ConnectRetryTimer, HoldTimer or KeepaliveTimer expiry (Events
    /// 9–11), or the end of an idle-hold penalty.
    Tick,
}

/// Per-session statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionStats {
    /// Messages received, by any type.
    pub msgs_in: u64,
    /// Messages emitted.
    pub msgs_out: u64,
    /// UPDATEs received.
    pub updates_in: u64,
    /// UPDATEs sent (counted by the owner when it emits them).
    pub updates_out: u64,
    /// Times the session reached Established.
    pub flaps: u64,
}

/// One endpoint of a BGP session.
#[derive(Debug, Clone)]
pub struct Session {
    cfg: SessionConfig,
    state: FsmState,
    negotiated: Option<Negotiated>,
    hold_deadline: SimTime,
    keepalive_due: SimTime,
    retry_deadline: SimTime,
    retry_attempt: u32,
    /// Units drawn so far from the connect-retry jitter stream. The
    /// stream is re-derived from the policy's seed for each draw (see
    /// [`jitter_unit`]), so a session keeps no generator.
    retry_draws: u32,
    /// While set, the session dwells in `Idle` until this instant before
    /// automatically re-entering the handshake — the deterministic
    /// idle-hold penalty served after a max-prefix Cease (RFC 4486 §4).
    idle_hold_until: SimTime,
    /// Counters.
    pub stats: SessionStats,
}

/// Draw `n` (counting from 0) of the connect-retry jitter stream seeded
/// with `seed`. Replaying the stream costs a few draws per backoff;
/// keeping it would put a generator in every session, most of which never
/// retry.
fn jitter_unit(seed: u64, n: u32) -> f64 {
    let mut rng = SimRng::new(seed).fork("connect-retry");
    for _ in 0..n {
        rng.unit();
    }
    rng.unit()
}

impl Session {
    /// Create a session in `Idle`.
    pub fn new(cfg: SessionConfig) -> Self {
        Session {
            cfg,
            state: FsmState::Idle,
            negotiated: None,
            hold_deadline: SimTime::MAX,
            keepalive_due: SimTime::MAX,
            retry_deadline: SimTime::MAX,
            retry_attempt: 0,
            retry_draws: 0,
            idle_hold_until: SimTime::MAX,
            stats: SessionStats::default(),
        }
    }

    /// Current FSM state.
    pub fn state(&self) -> FsmState {
        self.state
    }

    /// Negotiated parameters once established.
    pub fn negotiated(&self) -> Option<&Negotiated> {
        self.negotiated.as_ref()
    }

    /// True in `Established`.
    pub fn is_established(&self) -> bool {
        self.state == FsmState::Established
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// FSM consistency invariants, checked behind `debug_assert!` by the
    /// speaker after every message and timer event:
    ///
    /// * negotiated parameters exist exactly from `OpenConfirm` onward;
    /// * timers are armed only while a negotiation is live;
    /// * a zero hold time never arms the hold timer;
    /// * the ConnectRetry timer is armed only while reconnecting
    ///   (`Connect`/`OpenSent`) and only on active, retry-enabled
    ///   endpoints;
    /// * an idle-hold penalty is served only while `Idle`.
    pub fn check_invariants(&self) -> Result<(), String> {
        let negotiated = self.negotiated.is_some();
        if self.idle_hold_until != SimTime::MAX && self.state != FsmState::Idle {
            return Err(format!("idle-hold penalty armed in {:?}", self.state));
        }
        if self.retry_deadline != SimTime::MAX {
            if self.cfg.connect_retry.is_none() || self.cfg.passive {
                return Err("retry timer armed without an active retry policy".into());
            }
            if !matches!(self.state, FsmState::Connect | FsmState::OpenSent) {
                return Err(format!("retry timer armed in {:?}", self.state));
            }
        }
        match self.state {
            FsmState::Idle | FsmState::Connect | FsmState::OpenSent => {
                if negotiated {
                    return Err(format!("negotiated parameters present in {:?}", self.state));
                }
                if self.state == FsmState::Idle
                    && (self.hold_deadline != SimTime::MAX || self.keepalive_due != SimTime::MAX)
                {
                    return Err("timers armed while Idle".into());
                }
            }
            FsmState::OpenConfirm | FsmState::Established => {
                let Some(n) = &self.negotiated else {
                    return Err(format!("no negotiated parameters in {:?}", self.state));
                };
                if n.hold_time == SimDuration::ZERO && self.hold_deadline != SimTime::MAX {
                    return Err("hold timer armed despite zero hold time".into());
                }
                if let Some(expected) = self.cfg.peer_asn {
                    if n.peer_asn != expected {
                        return Err(format!(
                            "negotiated peer {} but config expects {expected}",
                            n.peer_asn
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn open_message(&self) -> BgpMessage {
        let hold_secs = (self.cfg.hold_time.as_micros() / 1_000_000).min(u16::MAX as u64) as u16;
        let mut open = OpenMessage::new(self.cfg.local_asn, hold_secs, self.cfg.router_id);
        if self.cfg.add_path_send || self.cfg.add_path_receive {
            open = open.with_add_path(self.cfg.add_path_send, self.cfg.add_path_receive);
        }
        if let Some(secs) = self.cfg.graceful_restart_secs {
            open = open.with_graceful_restart(secs);
        }
        BgpMessage::Open(open)
    }

    /// The next backoff: `initial * 2^attempt` capped at `max`, minus a
    /// deterministic jitter slice drawn from the session's RNG substream.
    fn retry_backoff(&mut self) -> SimDuration {
        let Some(rc) = &self.cfg.connect_retry else {
            return SimDuration::ZERO;
        };
        let shift = self.retry_attempt.min(16);
        let full = rc.initial.saturating_mul(1u64 << shift).min(rc.max);
        let unit = jitter_unit(rc.seed, self.retry_draws);
        self.retry_draws += 1;
        let shaved = (full.as_micros() as f64 * rc.jitter.clamp(0.0, 1.0) * unit) as u64;
        SimDuration::from_micros(full.as_micros().saturating_sub(shaved))
    }

    /// Arm the ConnectRetry timer on active, retry-enabled endpoints.
    fn arm_retry(&mut self, now: SimTime) {
        if self.cfg.connect_retry.is_some() && !self.cfg.passive {
            let backoff = self.retry_backoff();
            self.retry_deadline = now + backoff;
            self.retry_attempt = self.retry_attempt.saturating_add(1);
        }
    }

    /// Apply one input at `now`, appending the messages to send to `msgs`
    /// (a sink: what it already holds is left as it is) and returning what
    /// the owner must act on. An input surfaces at most one event.
    pub fn apply(
        &mut self,
        input: SessionInput,
        now: SimTime,
        msgs: &mut impl Extend<BgpMessage>,
    ) -> Option<SessionEvent> {
        match input {
            SessionInput::Start => {
                if self.state == FsmState::Idle {
                    msgs.extend(self.enter_handshake(now));
                }
                None
            }
            SessionInput::Stop => {
                if matches!(self.state, FsmState::OpenConfirm | FsmState::Established) {
                    self.notify(NotifCode::Cease, 2, msgs); // administrative shutdown
                }
                let down = (self.state == FsmState::Established).then(|| SessionEvent::Down {
                    reason: "administrative stop".into(),
                });
                self.reset();
                self.retry_attempt = 0;
                down
            }
            SessionInput::Message(msg) => self.on_message(msg, now, msgs),
            SessionInput::MalformedUpdate(update) => self.on_malformed_update(update, now, msgs),
            SessionInput::Tick => self.tick(now, msgs),
            // A session that is down has no connection to lose or corrupt
            // and no prefixes to cease over.
            _ if self.state == FsmState::Idle => None,
            SessionInput::ConnectionLost => self.go_down("connection lost", now),
            SessionInput::Corrupt => {
                // Subcode 1: connection not synchronized.
                let header_error = (NotifCode::MessageHeaderError, 1);
                self.fail(header_error, "corrupt message", now, msgs)
            }
            SessionInput::MaxPrefixCease(penalty) => {
                let was_established = self.state == FsmState::Established;
                self.notify(NotifCode::Cease, 1, msgs); // maximum number of prefixes reached
                self.reset();
                // The penalty is a fixed duration — no jitter — so seeded
                // runs re-establish at exactly the same virtual instant.
                self.idle_hold_until = now + penalty;
                self.retry_attempt = 0;
                was_established.then(|| SessionEvent::Down {
                    reason: "max prefixes reached".into(),
                })
            }
        }
    }

    /// Leave `Idle` for the handshake, ending any idle-hold penalty (a
    /// manual start overrides one still pending): passive endpoints wait
    /// in `Connect`, active ones return the OPEN to send.
    fn enter_handshake(&mut self, now: SimTime) -> Option<BgpMessage> {
        self.idle_hold_until = SimTime::MAX;
        if self.cfg.passive {
            self.state = FsmState::Connect;
            return None;
        }
        self.state = FsmState::OpenSent;
        self.stats.msgs_out += 1;
        // If the OPEN is lost in transit, the retry timer (when
        // configured) re-sends it rather than hanging in OpenSent.
        self.arm_retry(now);
        Some(self.open_message())
    }

    /// Queue a NOTIFICATION and count it.
    fn notify(&mut self, code: NotifCode, subcode: u8, out: &mut impl Extend<BgpMessage>) {
        let notification = NotificationMessage::new(code, subcode);
        out.extend([BgpMessage::Notification(notification)]);
        self.stats.msgs_out += 1;
    }

    /// The session failed on our side: tell the peer why and drop it.
    fn fail(
        &mut self,
        (code, subcode): (NotifCode, u8),
        reason: impl Into<String>,
        now: SimTime,
        out: &mut impl Extend<BgpMessage>,
    ) -> Option<SessionEvent> {
        self.notify(code, subcode, out);
        self.go_down(reason, now)
    }

    /// RFC 7606 treat-as-withdraw; see [`SessionInput::MalformedUpdate`].
    fn on_malformed_update(
        &mut self,
        update: UpdateMessage,
        now: SimTime,
        out: &mut impl Extend<BgpMessage>,
    ) -> Option<SessionEvent> {
        self.stats.msgs_in += 1;
        match self.state {
            FsmState::Idle => None,
            FsmState::Established => {
                if self.hold_deadline != SimTime::MAX {
                    if let Some(n) = &self.negotiated {
                        self.hold_deadline = now + n.hold_time;
                    }
                }
                self.stats.updates_in += 1;
                let mut withdrawn = update.withdrawn;
                withdrawn.extend(update.announced);
                // An empty treated update would alias End-of-RIB; there is
                // nothing to withdraw, so surface nothing.
                (!withdrawn.is_empty()).then(|| {
                    SessionEvent::Update(UpdateMessage {
                        withdrawn,
                        attrs: None,
                        announced: Vec::new(),
                        trace: update.trace,
                    })
                })
            }
            state => {
                let e = BgpError::FsmViolation(format!("update in {state:?}"));
                self.fail(e.notification(), e.to_string(), now, out)
            }
        }
    }

    /// The idle-hold deadline, if a max-prefix penalty is being served.
    pub fn idle_penalty_until(&self) -> Option<SimTime> {
        (self.idle_hold_until != SimTime::MAX).then_some(self.idle_hold_until)
    }

    fn reset(&mut self) {
        self.state = FsmState::Idle;
        self.negotiated = None;
        self.hold_deadline = SimTime::MAX;
        self.keepalive_due = SimTime::MAX;
        self.retry_deadline = SimTime::MAX;
        self.idle_hold_until = SimTime::MAX;
    }

    fn go_down(&mut self, reason: impl Into<String>, now: SimTime) -> Option<SessionEvent> {
        let was_established = self.state == FsmState::Established;
        self.reset();
        if self.cfg.connect_retry.is_some() {
            // Automatic restart: fall back to Connect rather than Idle.
            // Passive endpoints resume listening immediately; active ones
            // wait out the backoff before re-sending an OPEN.
            self.state = FsmState::Connect;
            self.arm_retry(now);
        }
        was_established.then(|| SessionEvent::Down {
            reason: reason.into(),
        })
    }

    fn validate_open(&self, open: &OpenMessage) -> Result<(), BgpError> {
        if open.version != 4 {
            return Err(BgpError::BadOpen(format!("version {}", open.version)));
        }
        if let Some(expected) = self.cfg.peer_asn {
            if open.asn() != expected {
                return Err(BgpError::PeerMismatch(format!(
                    "expected {expected}, got {}",
                    open.asn()
                )));
            }
        }
        Ok(())
    }

    fn accept_open(&mut self, open: &OpenMessage, now: SimTime) {
        let peer_hold = SimDuration::from_secs(open.hold_time as u64);
        let hold = peer_hold.min(self.cfg.hold_time);
        let (peer_send, peer_recv) = open.add_path();
        self.negotiated = Some(Negotiated {
            peer_asn: open.asn(),
            peer_router_id: open.router_id,
            hold_time: hold,
            // We can send multiple paths iff we offered send and they
            // offered receive, and vice versa.
            add_path_tx: self.cfg.add_path_send && peer_recv,
            add_path_rx: self.cfg.add_path_receive && peer_send,
            peer_restart_time: open
                .graceful_restart()
                .map(|s| SimDuration::from_secs(s as u64)),
        });
        // Negotiation succeeded: the reconnect loop (if any) is over.
        self.retry_deadline = SimTime::MAX;
        self.retry_attempt = 0;
        if hold.is_zero() {
            self.hold_deadline = SimTime::MAX;
            self.keepalive_due = SimTime::MAX;
        } else {
            self.hold_deadline = now + hold;
            self.keepalive_due = now + hold / 3;
        }
    }

    /// A message from the peer: replies to `out`, the event returned.
    fn on_message(
        &mut self,
        msg: BgpMessage,
        now: SimTime,
        out: &mut impl Extend<BgpMessage>,
    ) -> Option<SessionEvent> {
        self.stats.msgs_in += 1;

        // Any valid message refreshes the hold timer while up.
        if self.state == FsmState::Established && self.hold_deadline != SimTime::MAX {
            if let Some(n) = &self.negotiated {
                self.hold_deadline = now + n.hold_time;
            }
        }

        match (&self.state, msg) {
            (FsmState::Idle, _) => {
                // Quietly ignore stale traffic while administratively down.
                None
            }
            (FsmState::Connect, BgpMessage::Open(open)) => match self.validate_open(&open) {
                Ok(()) => {
                    self.accept_open(&open, now);
                    out.extend([self.open_message(), BgpMessage::Keepalive]);
                    self.stats.msgs_out += 2;
                    self.state = FsmState::OpenConfirm;
                    None
                }
                Err(e) => self.fail(e.notification(), e.to_string(), now, out),
            },
            (FsmState::OpenSent, BgpMessage::Open(open)) => match self.validate_open(&open) {
                Ok(()) => {
                    self.accept_open(&open, now);
                    out.extend([BgpMessage::Keepalive]);
                    self.stats.msgs_out += 1;
                    self.state = FsmState::OpenConfirm;
                    None
                }
                Err(e) => self.fail(e.notification(), e.to_string(), now, out),
            },
            (FsmState::OpenConfirm, BgpMessage::Keepalive) => {
                self.state = FsmState::Established;
                self.stats.flaps += 1;
                let n = self.negotiated.as_ref()?;
                if !n.hold_time.is_zero() {
                    self.hold_deadline = now + n.hold_time;
                }
                Some(SessionEvent::Established(*n))
            }
            (FsmState::Established, BgpMessage::Update(u)) => {
                self.stats.updates_in += 1;
                Some(SessionEvent::Update(u))
            }
            (FsmState::Established, BgpMessage::Keepalive) => None,
            (FsmState::Established, BgpMessage::RouteRefresh) => {
                Some(SessionEvent::RefreshRequested)
            }
            (_, BgpMessage::Notification(n)) => self.go_down(
                format!("peer notification: {:?}/{}", n.code, n.subcode),
                now,
            ),
            (state, msg) => {
                // Anything else is an FSM error: notify and drop.
                let e = BgpError::FsmViolation(format!("{} in {:?}", msg.kind(), state));
                self.fail(e.notification(), e.to_string(), now, out)
            }
        }
    }

    /// Serve the timers due at `now`: a keepalive, a ConnectRetry OPEN, a
    /// hold-timer-expired teardown, or the end of an idle-hold penalty.
    fn tick(&mut self, now: SimTime, out: &mut impl Extend<BgpMessage>) -> Option<SessionEvent> {
        // Idle-hold: a session serving a max-prefix penalty automatically
        // re-enters the handshake once the penalty expires.
        if self.state == FsmState::Idle && self.idle_hold_until != SimTime::MAX {
            if now >= self.idle_hold_until {
                out.extend(self.enter_handshake(now));
            }
            return None;
        }
        // ConnectRetry: an active endpoint stuck reconnecting re-sends its
        // OPEN and doubles the backoff.
        if matches!(self.state, FsmState::Connect | FsmState::OpenSent)
            && now >= self.retry_deadline
        {
            out.extend(self.enter_handshake(now));
            return None;
        }
        if self.state != FsmState::Established && self.state != FsmState::OpenConfirm {
            return None;
        }
        if now >= self.hold_deadline {
            let expired = (NotifCode::HoldTimerExpired, 0);
            return self.fail(expired, "hold timer expired", now, out);
        }
        if now >= self.keepalive_due {
            out.extend([BgpMessage::Keepalive]);
            self.stats.msgs_out += 1;
            if let Some(n) = &self.negotiated {
                self.keepalive_due = now + n.hold_time / 3;
            }
        }
        None
    }

    /// The earliest time at which a [`SessionInput::Tick`] has work.
    pub fn next_deadline(&self) -> SimTime {
        self.hold_deadline
            .min(self.keepalive_due)
            .min(self.retry_deadline)
            .min(self.idle_hold_until)
    }

    /// The ConnectRetry deadline, if the retry timer is armed.
    pub fn retry_deadline(&self) -> Option<SimTime> {
        (self.retry_deadline != SimTime::MAX).then_some(self.retry_deadline)
    }

    /// Record an UPDATE sent by the owner (for statistics).
    pub(crate) fn note_update_sent(&mut self) {
        self.stats.updates_out += 1;
        self.stats.msgs_out += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, PathAttributes};
    use crate::message::{Nlri, UpdateMessage};
    use peering_netsim::Prefix;
    use std::sync::Arc;

    use SessionInput::*;

    type Sinks = (Vec<BgpMessage>, Vec<SessionEvent>);

    impl Session {
        /// `input` applied at `now`, into fresh sinks.
        fn on(&mut self, input: SessionInput, now: SimTime) -> Sinks {
            let mut msgs = Vec::new();
            let event = self.apply(input, now, &mut msgs);
            (msgs, event.into_iter().collect())
        }
    }

    fn pair() -> (Session, Session) {
        let a = Session::new(
            SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1)).expect_peer(Asn(200)),
        );
        let b = Session::new(
            SessionConfig::new(Asn(200), Ipv4Addr::new(2, 2, 2, 2))
                .expect_peer(Asn(100))
                .passive(),
        );
        (a, b)
    }

    /// Run the handshake to Established, returning emitted events.
    fn establish(a: &mut Session, b: &mut Session, t: SimTime) -> Vec<SessionEvent> {
        let (a_to_b, b_to_a) = (a.on(Start, t).0, b.on(Start, t).0);
        relay(a, b, a_to_b, b_to_a, t)
    }

    /// Deliver `a_to_b` and `b_to_a`, and every reply, at `t` until the
    /// sessions are quiet, returning the events surfaced.
    fn relay(
        a: &mut Session,
        b: &mut Session,
        mut a_to_b: Vec<BgpMessage>,
        mut b_to_a: Vec<BgpMessage>,
        t: SimTime,
    ) -> Vec<SessionEvent> {
        let mut events = Vec::new();
        for _ in 0..8 {
            if a_to_b.is_empty() && b_to_a.is_empty() {
                break;
            }
            let mut next_a_to_b = Vec::new();
            let mut next_b_to_a = Vec::new();
            for m in a_to_b.drain(..) {
                let (out, ev) = b.on(Message(m), t);
                next_b_to_a.extend(out);
                events.extend(ev);
            }
            for m in b_to_a.drain(..) {
                let (out, ev) = a.on(Message(m), t);
                next_a_to_b.extend(out);
                events.extend(ev);
            }
            a_to_b = next_a_to_b;
            b_to_a = next_b_to_a;
        }
        events
    }

    #[test]
    fn handshake_reaches_established() {
        let (mut a, mut b) = pair();
        let events = establish(&mut a, &mut b, SimTime::ZERO);
        assert!(a.is_established(), "a: {:?}", a.state());
        assert!(b.is_established(), "b: {:?}", b.state());
        let est: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Established(_)))
            .collect();
        assert_eq!(est.len(), 2);
        assert_eq!(a.negotiated().unwrap().peer_asn, Asn(200));
        assert_eq!(b.negotiated().unwrap().peer_asn, Asn(100));
    }

    #[test]
    fn hold_time_negotiated_to_min() {
        let mut a = Session::new(SessionConfig {
            hold_time: SimDuration::from_secs(30),
            ..SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1))
        });
        let mut b = Session::new(SessionConfig::new(Asn(2), Ipv4Addr::new(2, 2, 2, 2)).passive());
        establish(&mut a, &mut b, SimTime::ZERO);
        assert_eq!(
            a.negotiated().unwrap().hold_time,
            SimDuration::from_secs(30)
        );
        assert_eq!(
            b.negotiated().unwrap().hold_time,
            SimDuration::from_secs(30)
        );
    }

    #[test]
    fn wrong_peer_asn_is_rejected() {
        let mut a = Session::new(
            SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1)).expect_peer(Asn(999)),
        );
        let mut b = Session::new(SessionConfig::new(Asn(200), Ipv4Addr::new(2, 2, 2, 2)).passive());
        establish(&mut a, &mut b, SimTime::ZERO);
        assert!(!a.is_established());
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn add_path_requires_both_directions() {
        let mut a = Session::new(
            SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1)).add_path(true, false),
        );
        let mut b = Session::new(
            SessionConfig::new(Asn(2), Ipv4Addr::new(2, 2, 2, 2))
                .passive()
                .add_path(false, true),
        );
        establish(&mut a, &mut b, SimTime::ZERO);
        assert!(a.is_established());
        // a offered send, b offered receive: a->b multiple paths OK.
        assert!(a.negotiated().unwrap().add_path_tx);
        assert!(!a.negotiated().unwrap().add_path_rx);
        assert!(b.negotiated().unwrap().add_path_rx);
        assert!(!b.negotiated().unwrap().add_path_tx);
    }

    #[test]
    fn update_in_established_surfaces_event() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(100)]),
            ..Default::default()
        });
        let u = UpdateMessage::announce(attrs, vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        let update = BgpMessage::Update(u.clone());
        let (_, events) = b.on(Message(update), SimTime::from_secs(1));
        assert_eq!(events, vec![SessionEvent::Update(u)]);
        assert_eq!(b.stats.updates_in, 1);
    }

    #[test]
    fn update_before_established_is_fsm_error() {
        let (mut a, _b) = pair();
        a.on(Start, SimTime::ZERO);
        assert_eq!(a.state(), FsmState::OpenSent);
        let attrs = Arc::new(PathAttributes::default());
        let u = UpdateMessage::announce(attrs, vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        let (out, _) = a.on(Message(BgpMessage::Update(u)), SimTime::ZERO);
        assert!(matches!(out[0], BgpMessage::Notification(_)));
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn hold_timer_expiry_takes_session_down() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let hold = a.negotiated().unwrap().hold_time;
        let (out, events) = a.on(Tick, SimTime::ZERO + hold + SimDuration::from_secs(1));
        assert!(matches!(out[0], BgpMessage::Notification(_)));
        assert_eq!(
            events,
            vec![SessionEvent::Down {
                reason: "hold timer expired".into()
            }]
        );
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn keepalives_refresh_hold_timer() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let ka = a.negotiated().unwrap().hold_time / 3;
        let mut now = SimTime::ZERO;
        // Exchange keepalives for several hold periods; nobody dies.
        for _ in 0..10 {
            now += ka;
            let (a_out, a_ev) = a.on(Tick, now);
            let (b_out, b_ev) = b.on(Tick, now);
            assert!(a_ev.is_empty() && b_ev.is_empty());
            relay(&mut a, &mut b, a_out, b_out, now);
        }
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn notification_takes_session_down() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let cease = BgpMessage::Notification(NotificationMessage::new(NotifCode::Cease, 2));
        let (_, events) = a.on(Message(cease), SimTime::from_secs(1));
        assert!(matches!(events[0], SessionEvent::Down { .. }));
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn stop_emits_cease_and_event() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let (out, events) = a.on(Stop, SimTime::from_secs(1));
        assert!(matches!(out[0], BgpMessage::Notification(_)));
        assert!(matches!(events[0], SessionEvent::Down { .. }));
        assert_eq!(a.state(), FsmState::Idle);
        // Stopping again is a no-op.
        let (out2, ev2) = a.on(Stop, SimTime::from_secs(2));
        assert!(out2.is_empty() && ev2.is_empty());
    }

    #[test]
    fn restart_after_down_works() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        a.on(Stop, SimTime::from_secs(1));
        b.on(Stop, SimTime::from_secs(1));
        let events = establish(&mut a, &mut b, SimTime::from_secs(2));
        assert!(a.is_established() && b.is_established());
        assert!(events
            .iter()
            .any(|e| matches!(e, SessionEvent::Established(_))));
        assert_eq!(a.stats.flaps, 2);
    }

    #[test]
    fn messages_in_idle_are_ignored() {
        let (mut a, _) = pair();
        let (out, events) = a.on(Message(BgpMessage::Keepalive), SimTime::ZERO);
        assert!(out.is_empty() && events.is_empty());
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn route_refresh_surfaces_event() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let (_, events) = b.on(Message(BgpMessage::RouteRefresh), SimTime::from_secs(1));
        assert_eq!(events, vec![SessionEvent::RefreshRequested]);
    }

    fn retry_pair() -> (Session, Session) {
        let a = Session::new(
            SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1))
                .expect_peer(Asn(200))
                .with_connect_retry(ConnectRetryConfig::new(7)),
        );
        let b = Session::new(
            SessionConfig::new(Asn(200), Ipv4Addr::new(2, 2, 2, 2))
                .expect_peer(Asn(100))
                .passive()
                .with_connect_retry(ConnectRetryConfig::new(8)),
        );
        (a, b)
    }

    #[test]
    fn connection_loss_schedules_backed_off_retry() {
        let (mut a, mut b) = retry_pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        assert!(a.is_established());
        let t1 = SimTime::from_secs(10);
        let ev = a.on(ConnectionLost, t1).1;
        assert!(matches!(ev[0], SessionEvent::Down { .. }));
        // Active side waits in Connect with the retry timer armed;
        // passive side resumes listening with no timer.
        assert_eq!(a.state(), FsmState::Connect);
        let d1 = a.retry_deadline().expect("retry armed");
        assert!(d1 > t1);
        let ev = b.on(ConnectionLost, t1).1;
        assert!(matches!(ev[0], SessionEvent::Down { .. }));
        assert_eq!(b.state(), FsmState::Connect);
        assert_eq!(b.retry_deadline(), None);
        // Firing the retry re-sends the OPEN and doubles the backoff.
        let (out, _) = a.on(Tick, d1);
        assert!(matches!(out[0], BgpMessage::Open(_)));
        assert_eq!(a.state(), FsmState::OpenSent);
        let d2 = a.retry_deadline().expect("still armed");
        assert!(d2.since(d1) > d1.since(t1), "backoff grows: {d1:?} {d2:?}");
        // Deliver the retried OPEN: the handshake completes.
        relay(&mut a, &mut b, out, Vec::new(), d1);
        assert!(a.is_established() && b.is_established());
        assert_eq!(a.retry_deadline(), None, "retry disarmed on success");
        assert_eq!(a.stats.flaps, 2);
    }

    #[test]
    fn retry_backoff_is_deterministic_per_seed() {
        let deadlines = |seed: u64| -> Vec<SimTime> {
            let mut s = Session::new(
                SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1))
                    .with_connect_retry(ConnectRetryConfig::new(seed)),
            );
            s.on(Start, SimTime::ZERO);
            let mut out = Vec::new();
            for _ in 0..6 {
                let d = s.retry_deadline().expect("armed");
                out.push(d);
                s.on(Tick, d);
            }
            out
        };
        assert_eq!(deadlines(42), deadlines(42), "same seed, same schedule");
        assert_ne!(deadlines(42), deadlines(43), "different seed, jittered");
        // Backoff is monotone and capped: gaps never shrink below the
        // jittered floor of the cap.
        let ds = deadlines(42);
        for w in ds.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn lost_initial_open_is_retried() {
        let mut a = Session::new(
            SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1))
                .with_connect_retry(ConnectRetryConfig::new(3)),
        );
        let first = a.on(Start, SimTime::ZERO).0;
        assert!(matches!(first[0], BgpMessage::Open(_)));
        // Pretend the OPEN was lost: the deadline passes, tick re-sends.
        let d = a.retry_deadline().expect("armed at start");
        let (out, _) = a.on(Tick, d);
        assert!(matches!(out[0], BgpMessage::Open(_)));
        assert_eq!(a.state(), FsmState::OpenSent);
    }

    #[test]
    fn without_retry_config_down_means_idle() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let ev = a.on(ConnectionLost, SimTime::from_secs(5)).1;
        assert!(matches!(ev[0], SessionEvent::Down { .. }));
        assert_eq!(a.state(), FsmState::Idle);
        assert_eq!(a.retry_deadline(), None);
    }

    #[test]
    fn corrupt_message_notifies_and_drops() {
        let (mut a, mut b) = retry_pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let (out, ev) = a.on(Corrupt, SimTime::from_secs(5));
        match &out[0] {
            BgpMessage::Notification(n) => {
                assert_eq!(n.code, NotifCode::MessageHeaderError);
                assert_eq!(n.subcode, 1);
            }
            other => panic!("expected notification, got {other:?}"),
        }
        assert!(matches!(ev[0], SessionEvent::Down { .. }));
        assert_eq!(a.state(), FsmState::Connect);
        assert!(a.retry_deadline().is_some());
        // Idle sessions have nothing to corrupt.
        let mut idle = Session::new(SessionConfig::new(Asn(9), Ipv4Addr::new(9, 9, 9, 9)));
        let (out, ev) = idle.on(Corrupt, SimTime::ZERO);
        assert!(out.is_empty() && ev.is_empty());
    }

    #[test]
    fn malformed_update_is_treated_as_withdraw() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let attrs = Arc::new(PathAttributes {
            as_path: AsPath::from_asns(&[Asn(100)]),
            ..Default::default()
        });
        let p = Prefix::v4(10, 0, 0, 0, 8);
        let u = UpdateMessage::announce(attrs, vec![Nlri::plain(p)]);
        let (out, events) = b.on(MalformedUpdate(u), SimTime::from_secs(1));
        // RFC 7606: no NOTIFICATION, the session stays up, and the
        // announced routes come back as withdrawals.
        assert!(out.is_empty());
        assert!(b.is_established());
        match &events[0] {
            SessionEvent::Update(treated) => {
                assert_eq!(treated.withdrawn, vec![Nlri::plain(p)]);
                assert!(treated.announced.is_empty());
                assert!(treated.attrs.is_none());
            }
            other => panic!("expected treated update, got {other:?}"),
        }
        assert_eq!(b.stats.updates_in, 1);
    }

    #[test]
    fn empty_malformed_update_does_not_alias_end_of_rib() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let empty = UpdateMessage {
            withdrawn: vec![],
            attrs: None,
            announced: vec![],
            trace: None,
        };
        let (out, events) = b.on(MalformedUpdate(empty), SimTime::from_secs(1));
        assert!(out.is_empty() && events.is_empty());
        assert!(b.is_established());
    }

    #[test]
    fn malformed_update_before_established_is_fsm_error() {
        let (mut a, _b) = pair();
        a.on(Start, SimTime::ZERO);
        let u = UpdateMessage::withdraw(vec![Nlri::plain(Prefix::v4(10, 0, 0, 0, 8))]);
        let (out, _) = a.on(MalformedUpdate(u), SimTime::ZERO);
        assert!(matches!(out[0], BgpMessage::Notification(_)));
        assert_eq!(a.state(), FsmState::Idle);
    }

    #[test]
    fn max_prefix_cease_serves_penalty_then_reestablishes() {
        let (mut a, mut b) = retry_pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let t1 = SimTime::from_secs(10);
        let penalty = SimDuration::from_secs(60);
        let (out, ev) = a.on(MaxPrefixCease(penalty), t1);
        match &out[0] {
            BgpMessage::Notification(n) => {
                assert_eq!(n.code, NotifCode::Cease);
                assert_eq!(n.subcode, 1);
            }
            other => panic!("expected Cease, got {other:?}"),
        }
        assert!(matches!(ev[0], SessionEvent::Down { .. }));
        // The session dwells in Idle — no retry timer races the penalty.
        assert_eq!(a.state(), FsmState::Idle);
        assert_eq!(a.retry_deadline(), None);
        assert_eq!(a.idle_penalty_until(), Some(t1 + penalty));
        assert_eq!(a.next_deadline(), t1 + penalty);
        a.check_invariants().unwrap();
        // Ticking before the deadline does nothing.
        let (out, ev) = a.on(Tick, t1 + SimDuration::from_secs(30));
        assert!(out.is_empty() && ev.is_empty());
        assert_eq!(a.state(), FsmState::Idle);
        // At the deadline the active side re-sends its OPEN.
        let t2 = t1 + penalty;
        let (out, _) = a.on(Tick, t2);
        assert!(matches!(out[0], BgpMessage::Open(_)));
        assert_eq!(a.state(), FsmState::OpenSent);
        assert_eq!(a.idle_penalty_until(), None);
        a.check_invariants().unwrap();
        // The peer dropped its side when the Cease arrived; restart it and
        // deliver the re-sent OPEN to prove re-establishment works.
        b.reset();
        b.on(Start, t2);
        relay(&mut a, &mut b, out, Vec::new(), t2);
        assert!(a.is_established() && b.is_established());
    }

    #[test]
    fn max_prefix_cease_on_passive_side_waits_in_connect() {
        let (mut a, mut b) = retry_pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        let t1 = SimTime::from_secs(10);
        let penalty = SimDuration::from_secs(45);
        let (out, _) = b.on(MaxPrefixCease(penalty), t1);
        assert!(matches!(out[0], BgpMessage::Notification(_)));
        assert_eq!(b.state(), FsmState::Idle);
        let (out, ev) = b.on(Tick, t1 + penalty);
        assert!(out.is_empty() && ev.is_empty());
        assert_eq!(b.state(), FsmState::Connect);
        b.check_invariants().unwrap();
        // Idle sessions with no penalty have nothing to cease.
        let mut idle = Session::new(SessionConfig::new(Asn(9), Ipv4Addr::new(9, 9, 9, 9)));
        let (out, ev) = idle.on(MaxPrefixCease(penalty), SimTime::ZERO);
        assert!(out.is_empty() && ev.is_empty());
    }

    #[test]
    fn graceful_restart_capability_is_negotiated() {
        let mut a = Session::new(
            SessionConfig::new(Asn(100), Ipv4Addr::new(1, 1, 1, 1)).graceful_restart(120),
        );
        let mut b = Session::new(
            SessionConfig::new(Asn(200), Ipv4Addr::new(2, 2, 2, 2))
                .passive()
                .graceful_restart(60),
        );
        establish(&mut a, &mut b, SimTime::ZERO);
        assert!(a.is_established());
        assert_eq!(
            a.negotiated().unwrap().peer_restart_time,
            Some(SimDuration::from_secs(60))
        );
        assert_eq!(
            b.negotiated().unwrap().peer_restart_time,
            Some(SimDuration::from_secs(120))
        );
        // Without the capability nothing is advertised.
        let (mut c, mut d) = pair();
        establish(&mut c, &mut d, SimTime::ZERO);
        assert_eq!(c.negotiated().unwrap().peer_restart_time, None);
    }

    #[test]
    fn zero_hold_time_disables_timers() {
        let mut a = Session::new(SessionConfig {
            hold_time: SimDuration::ZERO,
            ..SessionConfig::new(Asn(1), Ipv4Addr::new(1, 1, 1, 1))
        });
        let mut b = Session::new(SessionConfig {
            hold_time: SimDuration::ZERO,
            passive: true,
            ..SessionConfig::new(Asn(2), Ipv4Addr::new(2, 2, 2, 2))
        });
        establish(&mut a, &mut b, SimTime::ZERO);
        assert!(a.is_established());
        assert_eq!(a.next_deadline(), SimTime::MAX);
        let (out, ev) = a.on(Tick, SimTime::from_secs(100_000));
        assert!(out.is_empty() && ev.is_empty());
        assert!(a.is_established());
    }

    #[test]
    fn apply_appends_to_the_callers_sinks() {
        let (mut a, mut b) = pair();
        establish(&mut a, &mut b, SimTime::ZERO);
        // A surfaced event, a keepalive, then a Cease with its Down event.
        let inputs = [
            (Message(BgpMessage::RouteRefresh), 1),
            (Tick, 31),
            (Stop, 32),
        ];
        let mut fresh = a.clone();
        let (mut want, mut msgs, mut events) = ((Vec::new(), Vec::new()), Vec::new(), Vec::new());
        for (input, secs) in inputs {
            let at = SimTime::from_secs(secs);
            let (m, e) = fresh.on(input.clone(), at);
            want.0.extend(m);
            want.1.extend(e);
            events.extend(a.apply(input, at, &mut msgs));
        }
        assert_eq!((want.0.len(), want.1.len()), (2, 2));
        assert_eq!((msgs, events), want);
    }
}
