//! Deterministic event engines: sequential reference and sharded parallel.
//!
//! The parallel engine partitions nodes across worker shards behind a
//! *conservative sim-time barrier* (classic conservative parallel DES):
//! each round, the shards agree on the global minimum pending event time
//! `T` and then independently process only the window `[T, T + L)`, where
//! the lookahead `L` is a lower bound on every cross-shard delivery
//! delay. A message sent while processing that window is delivered no
//! earlier than `T + L`, i.e. never inside the window being processed —
//! so no shard can receive an event "from the past", and every shard's
//! pop sequence equals the sequential engine's global pop sequence
//! restricted to that shard's nodes. An end-of-round barrier fences the
//! window against the next round's minimum computation: every
//! cross-shard send must land in its inbox before any shard measures
//! its pending minimum, or an in-flight event could undercut the agreed
//! window start.
//!
//! Determinism does not come for free from the barrier alone; two more
//! choices pin it down:
//!
//! * **Total event order.** Every event is keyed `(time, from, seq)`
//!   where `seq` is a per-source counter. Unlike the global push-order
//!   `seq` in [`EventQueue`](crate::queue::EventQueue), this key is a
//!   pure function of simulation history, not of thread interleaving.
//!   Both engines pop in this key order, so per-destination delivery
//!   order — the only thing node state can depend on — is identical.
//! * **Re-sort on drain.** Cross-shard envelopes are appended to the
//!   destination shard's inbox, a plain `Vec` whose order depends on
//!   lock acquisition; the receiving shard takes the whole inbox and
//!   pushes it into its local calendar (keyed by the full
//!   `(time, from, seq)`) before each window, erasing the arrival
//!   interleaving.
//!
//! **Any partition gives the same run.** `run_parallel` takes a node
//! order, a permutation of the ids, and cuts it into equal-count runs,
//! one per shard. Nothing observable depends on that cut: the event key
//! `(time, from, seq)` names nodes by id and counts per source, so it is
//! the same whichever shard holds a node; the windows are bounded by the
//! lookahead, which every cross-shard delay respects whatever the cut;
//! and the digest fold reads its slots in id order. So the identity
//! order, its reverse and any shuffle give one [`EngineRun`] (the
//! engine's unit tests run all three), and the order is free to serve
//! speed alone.
//!
//! **Why a customer-cone order balances.** A shard's cost per window is
//! the events its nodes take, and a route's events follow the sessions
//! it crosses. `peering_workloads::ScaleTopo` lists a generated Internet
//! by a depth-first walk down customer edges, so each provider is
//! followed by its cone. An equal-count run of that order is then a few
//! whole cones: most sessions, provider to customer, stay inside it, so
//! most sends stay on their shard, and every run holds some of the
//! busy, many-session core ASes with their cones. The generator numbers
//! ASes tier by tier, so a cut by index puts the whole core in the first
//! run and hands that one shard most of the work.
//!
//! **Digests off the lock.** On a round that needs digests each shard
//! digests its own nodes into a local buffer first and only then takes
//! the slot lock to copy them in, so the shards' digest passes run side
//! by side; the fold waits at its barrier for every copy.
//!
//! The primary oracle for all of this is differential: `run_parallel`
//! must produce bitwise-identical checkpoint and final digests to
//! `run_sequential` for every topology, seed, and shard count (see
//! `peering-workloads`' differential tests and the scale bench).

mod calendar;
mod partition;
use crate::profile::{EngineProfile, ProfileConfig, ShardEpoch, ShardEpochWall, WallMark};
use crate::rng::Fnv1a;
use crate::sync::{Condvar, Mutex};
use crate::time::{SimDuration, SimTime};
use crate::transport::NodeId;
use calendar::Calendar;
use partition::Partition;
use std::cmp::Ordering;

/// A node hosted by an engine. Implementations must be deterministic:
/// outputs a pure function of construction arguments and the sequence of
/// `(now, from, msg)` deliveries.
pub trait EngineNode {
    /// Message type exchanged between nodes. `Send` because cross-shard
    /// envelopes migrate between worker threads (nodes themselves never
    /// do — each is built and dropped on its owning shard's thread).
    type Msg: Send;

    /// Called once at `SimTime::ZERO`, before any event, to seed the
    /// initial schedule (session starts, originations, first timers).
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Deliver one event.
    fn on_event(&mut self, now: SimTime, from: NodeId, msg: Self::Msg, out: &mut Outbox<Self::Msg>);

    /// A deterministic 64-bit digest of the node's externally-relevant
    /// state (for BGP nodes: the Loc-RIB digest).
    fn digest(&self) -> u64;
}

/// Messages staged by a node during one callback, in emission order.
#[derive(Debug)]
pub struct Outbox<M> {
    staged: Vec<(NodeId, SimDuration, M)>,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox { staged: Vec::new() }
    }

    /// Schedule `msg` for delivery to `to` after `delay`. A node may send
    /// to itself (timers); cross-shard sends must respect the engine's
    /// lookahead (enforced by `run_parallel`).
    pub fn send(&mut self, to: NodeId, delay: SimDuration, msg: M) {
        self.staged.push((to, delay, msg));
    }

    /// Take the sends node `from` staged while handling time `now`, as
    /// events numbered from its per-source counter `seq`, each with the
    /// delay it was sent with.
    fn stamp<'a>(
        &'a mut self,
        from: NodeId,
        now: SimTime,
        seq: &'a mut u64,
    ) -> impl Iterator<Item = (SimDuration, SimEvent<M>)> + 'a {
        self.staged.drain(..).map(move |(to, delay, msg)| {
            let ev = SimEvent {
                time: now + delay,
                from,
                seq: *seq,
                to,
                msg,
            };
            *seq += 1;
            (delay, ev)
        })
    }
}

/// One scheduled event, totally ordered by `(time, from, seq)`.
#[derive(Debug)]
pub struct SimEvent<M> {
    /// Delivery time.
    pub time: SimTime,
    /// Emitting node.
    pub from: NodeId,
    /// Per-source emission counter (unique per `from`).
    pub seq: u64,
    /// Destination node.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
}

impl<M> SimEvent<M> {
    fn key(&self) -> (SimTime, NodeId, u64) {
        (self.time, self.from, self.seq)
    }
}

impl<M> PartialEq for SimEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for SimEvent<M> {}
impl<M> PartialOrd for SimEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for SimEvent<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: a sorted `Calendar` bucket pops the smallest key last.
        other.key().cmp(&self.key())
    }
}

/// The observable outcome of an engine run. Two runs over the same nodes
/// agree iff these compare equal — this is what the differential harness
/// asserts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineRun {
    /// Events delivered (`on_event` invocations).
    pub events: u64,
    /// Time of the last delivered event.
    pub end_time: SimTime,
    /// `(checkpoint time, digest)` pairs: the fold of all node digests
    /// after every event strictly before the checkpoint time, in request
    /// order.
    pub checkpoints: Vec<(SimTime, u64)>,
    /// Digest fold at quiescence.
    pub final_digest: u64,
}

impl EngineRun {
    /// Whether the nodes must be digested before any event at `horizon`
    /// (`SimTime::MAX` once the run is over): a checkpoint is due, or the
    /// run is over.
    fn digest_due(&self, checkpoints: &[SimTime], horizon: SimTime) -> bool {
        let next = checkpoints.get(self.checkpoints.len());
        horizon == SimTime::MAX || next.is_some_and(|&at| at <= horizon)
    }

    /// Record `folded`, the nodes' digests at `horizon`, as every
    /// checkpoint due by then and, once the run is over, as the final
    /// digest: one digest pass serves them all.
    fn record_digest(&mut self, checkpoints: &[SimTime], horizon: SimTime, folded: u64) {
        let due = checkpoints[self.checkpoints.len()..].iter();
        let due = due.take_while(|&&at| at <= horizon);
        self.checkpoints.extend(due.map(|&at| (at, folded)));
        if horizon == SimTime::MAX {
            self.final_digest = folded;
        }
    }
}

/// FNV-1a fold of per-node digests in `NodeId` order. FNV is sequential
/// by construction, so the fold is always computed centrally from the
/// ordered per-node values rather than merged pairwise.
fn fold_digests(digests: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

fn lock<'a, T>(m: &'a Mutex<T>) -> crate::sync::MutexGuard<'a, T> {
    // A poisoned lock means a sibling shard panicked; state under these
    // locks is only ever replaced wholesale or appended to, so recover
    // rather than cascade the panic into an opaque PoisonError.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run the reference sequential engine over `n` nodes, recording a
/// digest at each requested checkpoint time and stopping at quiescence
/// (or after `max_time`).
///
/// `make_shard` is called once, and the node builder it returns builds
/// every node: the sequential engine is one shard. A builder can hold
/// state its nodes share, such as one attribute table for all of them.
///
/// The returned [`EngineRun`] does not depend on `profile` — the
/// profiler only counts, it never schedules — and the profile holds a
/// single degenerate epoch (shard 0, window `[0, end_time]`): the
/// sequential engine has no rounds, so there is nothing finer to
/// attribute.
pub fn run_sequential<N, B, F>(
    n: usize,
    make_shard: F,
    checkpoints: &[SimTime],
    max_time: SimTime,
    profile: ProfileConfig,
) -> (EngineRun, EngineProfile)
where
    N: EngineNode,
    B: FnMut(NodeId) -> N,
    F: Fn() -> B,
{
    let wall_mark = WallMark::now(profile.wall_enabled());
    let make_node = make_shard();
    let mut nodes: Vec<N> = (0..n).map(|i| NodeId(i as u32)).map(make_node).collect();
    let mut seqs: Vec<u64> = vec![0; n];
    let mut calendar = Calendar::new();
    let mut out = Outbox::new();

    for (i, node) in nodes.iter_mut().enumerate() {
        node.on_start(&mut out);
        for (_, ev) in out.stamp(NodeId(i as u32), SimTime::ZERO, &mut seqs[i]) {
            calendar.push(ev);
        }
    }

    let mut run = EngineRun::default();
    loop {
        let horizon = match calendar.peek_time() {
            Some(t) if t <= max_time => t,
            _ => SimTime::MAX,
        };
        if run.digest_due(checkpoints, horizon) {
            let digests: Vec<u64> = nodes.iter().map(EngineNode::digest).collect();
            run.record_digest(checkpoints, horizon, fold_digests(&digests));
        }
        if horizon == SimTime::MAX {
            break;
        }
        let ev = calendar.pop().expect("horizon came from a pending event");
        run.events += 1;
        run.end_time = ev.time;
        let dst = ev.to.0 as usize;
        nodes[dst].on_event(ev.time, ev.from, ev.msg, &mut out);
        for (_, sent) in out.stamp(ev.to, ev.time, &mut seqs[dst]) {
            calendar.push(sent);
        }
    }

    let mut prof = EngineProfile {
        shards: 1,
        records: Vec::new(),
        wall: Vec::new(),
    };
    if profile.sim_enabled() {
        prof.records.push(ShardEpoch {
            epoch: 0,
            shard: 0,
            window_start_us: 0,
            window_end_us: run.end_time.as_micros(),
            events: run.events,
            inbox_drained: 0,
            sent_local: seqs.iter().sum(),
            sent_remote: 0,
        });
    }
    if profile.wall_enabled() {
        prof.wall.push(ShardEpochWall {
            epoch: 0,
            shard: 0,
            drain_ns: 0,
            barrier_ns: 0,
            decision_ns: wall_mark.elapsed_ns(),
            flush_ns: 0,
        });
    }
    (run, prof)
}

/// A reusable all-shards barrier whose last arriver runs a decision
/// closure under the barrier lock; every party returns a clone of the
/// decision. This is the only control-flow synchronization the parallel
/// engine uses, and it is built on [`crate::sync`] so the loom tests can
/// model-check it.
pub struct EpochBarrier<T> {
    state: Mutex<BarrierState<T>>,
    cv: Condvar,
    parties: usize,
}

#[derive(Debug)]
struct BarrierState<T> {
    arrived: usize,
    generation: u64,
    result: Option<T>,
    poisoned: bool,
}

impl<T: Clone> EpochBarrier<T> {
    /// A barrier for `parties` participants (must be nonzero).
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        EpochBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                result: None,
                poisoned: false,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Block until all parties have arrived; the last arriver evaluates
    /// `decide` (exactly once per epoch, under the barrier lock) and all
    /// parties return its value.
    ///
    /// Panics if the barrier was [`poison`](Self::poison)ed — a party
    /// died, so the epoch can never complete.
    pub fn arrive_and_decide<F: FnOnce() -> T>(&self, decide: F) -> T {
        let mut g = lock(&self.state);
        assert!(!g.poisoned, "epoch barrier poisoned: a party died");
        let gen = g.generation;
        g.arrived += 1;
        if g.arrived == self.parties {
            let value = decide();
            g.result = Some(value.clone());
            g.arrived = 0;
            g.generation += 1;
            self.cv.notify_all();
            return value;
        }
        while g.generation == gen {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
            assert!(!g.poisoned, "epoch barrier poisoned: a party died");
        }
        g.result.clone().expect("deciding arriver stored a result")
    }

    /// Mark the barrier unusable and wake every waiter: a party is never
    /// going to arrive (it panicked), so blocked siblings must abort
    /// instead of waiting forever.
    pub fn poison(&self) {
        let mut g = lock(&self.state);
        g.poisoned = true;
        self.cv.notify_all();
    }
}

/// One round's plan, decided at the first barrier of the round.
#[derive(Debug, Clone, Copy)]
struct RoundPlan {
    /// Global minimum pending event time (window start), `SimTime::MAX`
    /// once the run is over.
    window_start: SimTime,
    /// Exclusive end of the conservative window: `window_start +
    /// lookahead`, clamped down to the first checkpoint that is still
    /// unfired after this round's digest pass. A checkpoint strictly
    /// inside an unclamped window would see events at/after it applied
    /// before its digest is recorded — diverging from the sequential
    /// engine, which records every checkpoint digest before popping any
    /// event at or beyond it.
    window_end: SimTime,
    /// All shards must publish digests this round (a checkpoint fires or
    /// the run is finishing).
    need_digests: bool,
    /// The run is over (quiescent or past `max_time`).
    done: bool,
}

/// Coordination state shared by all shards of one parallel run.
struct ParShared<M> {
    /// Per-shard cross-shard inboxes, in arrival order: senders append,
    /// the owning shard takes the whole `Vec` before each window.
    inboxes: Vec<Mutex<Vec<SimEvent<M>>>>,
    /// Per-shard minimum pending event time, republished every round.
    mins: Mutex<Vec<SimTime>>,
    /// Per-node digest slots, written only on `need_digests` rounds.
    digests: Mutex<Vec<u64>>,
    /// Accumulated run record.
    record: Mutex<EngineRun>,
    /// Round-plan barrier (drain + min-publish complete ⇒ decide plan).
    plan: EpochBarrier<RoundPlan>,
    /// Digest barrier (digest slots written ⇒ fold and record).
    fold: EpochBarrier<()>,
    /// End-of-round barrier: every cross-shard send of round `k` must be
    /// in its destination inbox before any shard drains for round `k+1`.
    /// Without it, an in-flight event below the next global minimum is
    /// invisible to the round plan and gets processed out of order.
    round_end: EpochBarrier<()>,
    /// First engine-detected protocol violation (lookahead breach),
    /// re-raised by `run_parallel` with its original message after the
    /// shard panic has been contained.
    violation: Mutex<Option<String>>,
    /// Per-shard sim-time profile records, merged once at shard exit
    /// (never touched inside the round loop, so profiling cannot change
    /// lock interleavings the nodes could observe).
    prof: Mutex<Vec<ShardEpoch>>,
    /// Wall-clock side-channel records, merged once at shard exit.
    wall: Mutex<Vec<ShardEpochWall>>,
}

impl<M> ParShared<M> {
    /// Wake every sibling blocked on any engine barrier; called when a
    /// shard dies so the run aborts instead of deadlocking.
    fn poison_all(&self) {
        self.plan.poison();
        self.fold.poison();
        self.round_end.poison();
    }
}

/// Run the sharded parallel engine over the nodes `order` lists. Must
/// produce an [`EngineRun`] equal to [`run_sequential`]'s for
/// `n = order.len()` and the same `make_shard`/`checkpoints`, whatever
/// the order.
///
/// `order` is a permutation of the node ids `0..n` (anything else
/// panics); shard `s` owns the equal-count run
/// `order[s·n/shards .. (s+1)·n/shards]`, so a host that lists nodes which
/// talk to each other next to each other keeps their messages on one
/// shard. `make_shard` is called once on each shard's worker thread, and
/// the node builder it returns builds that shard's nodes there, in
/// ascending id order (neither the nodes nor the builder need be `Send`,
/// so the nodes of one shard can share `Rc` state); `lookahead` must be
/// positive and no larger than every cross-shard delivery delay — a
/// cross-shard send below it panics, because it would break the barrier
/// invariant silently otherwise. `shards` is clamped to `n`.
///
/// The profile holds one [`ShardEpoch`] per shard per processed round
/// (the final, quiescent round plans no window and records nothing).
/// The returned [`EngineRun`] does not depend on `profile` for any
/// topology, seed, or shard count — profiling only counts.
pub fn run_parallel<N, B, F>(
    order: &[NodeId],
    make_shard: F,
    shards: usize,
    lookahead: SimDuration,
    checkpoints: &[SimTime],
    max_time: SimTime,
    profile: ProfileConfig,
) -> (EngineRun, EngineProfile)
where
    N: EngineNode,
    B: FnMut(NodeId) -> N,
    F: Fn() -> B + Sync,
    N::Msg: Send,
{
    assert!(shards > 0, "need at least one shard");
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative windows need a positive lookahead"
    );
    let n = order.len();
    let shards = shards.min(n.max(1));
    let partition = Partition::new(order, shards);

    let shared: ParShared<N::Msg> = ParShared {
        inboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        mins: Mutex::new(vec![SimTime::MAX; shards]),
        digests: Mutex::new(vec![0; n]),
        record: Mutex::new(EngineRun::default()),
        plan: EpochBarrier::new(shards),
        fold: EpochBarrier::new(shards),
        round_end: EpochBarrier::new(shards),
        violation: Mutex::new(None),
        prof: Mutex::new(Vec::new()),
        wall: Mutex::new(Vec::new()),
    };

    let scope_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            for s in 0..shards {
                let shared = &shared;
                let make_shard = &make_shard;
                let partition = &partition;
                scope.spawn(move || {
                    // A shard that dies (node panic, invariant breach)
                    // must poison the barriers on its way out, or its
                    // siblings block forever waiting for it to arrive.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_shard(
                            s,
                            make_shard(),
                            shared,
                            partition,
                            lookahead,
                            checkpoints,
                            max_time,
                            profile,
                        );
                    }));
                    if let Err(payload) = r {
                        shared.poison_all();
                        std::panic::resume_unwind(payload);
                    }
                });
            }
        });
    }));
    if let Err(payload) = scope_result {
        // `thread::scope` replaces scoped-thread panics with a generic
        // payload; surface the engine's own diagnosis when there is one.
        match lock(&shared.violation).take() {
            Some(msg) => panic!("{msg}"),
            None => std::panic::resume_unwind(payload),
        }
    }

    let run = std::mem::take(&mut *lock(&shared.record));
    // Canonical record order: shards merge in thread-completion order,
    // which is nondeterministic, so re-sort by the deterministic key.
    let mut records = std::mem::take(&mut *lock(&shared.prof));
    records.sort_unstable_by_key(|r| (r.epoch, r.shard));
    let mut wall = std::mem::take(&mut *lock(&shared.wall));
    wall.sort_unstable_by_key(|r| (r.epoch, r.shard));
    let prof = EngineProfile {
        shards: shards as u32,
        records,
        wall,
    };
    (run, prof)
}

/// Running message-send totals for one shard, kept cumulative so each
/// recorded epoch stores the delta since the previous one (`on_start`
/// sends land in epoch 0 that way).
#[derive(Debug, Default, Clone, Copy)]
struct SendStats {
    local: u64,
    remote: u64,
    flush_ns: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_shard<N, B>(
    shard: usize,
    make_node: B,
    shared: &ParShared<N::Msg>,
    partition: &Partition,
    lookahead: SimDuration,
    checkpoints: &[SimTime],
    max_time: SimTime,
    profile: ProfileConfig,
) where
    N: EngineNode,
    B: FnMut(NodeId) -> N,
{
    let ids = &partition.ids[shard];
    let mut nodes: Vec<N> = ids.iter().copied().map(make_node).collect();
    let mut seqs: Vec<u64> = vec![0; nodes.len()];
    let mut calendar = Calendar::new();
    let mut out = Outbox::new();
    let mut local_events: u64 = 0;
    let mut local_end = SimTime::ZERO;
    let sim_on = profile.sim_enabled();
    let wall_on = profile.wall_enabled();
    let mut stats = SendStats::default();
    let mut prev_stats = SendStats::default();
    let mut epoch: u64 = 0;
    let mut epochs: Vec<ShardEpoch> = Vec::new();
    let mut walls: Vec<ShardEpochWall> = Vec::new();

    let route = |from_local: usize,
                 now: SimTime,
                 out: &mut Outbox<N::Msg>,
                 seqs: &mut Vec<u64>,
                 calendar: &mut Calendar<N::Msg>,
                 stats: &mut SendStats| {
        let from = ids[from_local];
        for (delay, ev) in out.stamp(from, now, &mut seqs[from_local]) {
            let dest_shard = partition.shard_of[ev.to.0 as usize] as usize;
            if dest_shard == shard {
                stats.local += 1;
                calendar.push(ev);
                continue;
            }
            if delay < lookahead {
                let msg = format!(
                    "cross-shard send below the lookahead breaks the barrier invariant \
                     ({from} -> {to} delay {delay:?} < {lookahead:?})",
                    to = ev.to,
                );
                lock(&shared.violation).get_or_insert(msg.clone());
                panic!("{msg}");
            }
            stats.remote += 1;
            let mark = WallMark::now(wall_on);
            lock(&shared.inboxes[dest_shard]).push(ev);
            stats.flush_ns += mark.elapsed_ns();
        }
    };

    for (li, node) in nodes.iter_mut().enumerate() {
        node.on_start(&mut out);
        route(
            li,
            SimTime::ZERO,
            &mut out,
            &mut seqs,
            &mut calendar,
            &mut stats,
        );
    }

    // Startup fence: every shard's `on_start` cross-shard sends must be
    // in their destination inboxes before any shard drains and measures
    // its first pending minimum — the same publish-before-drain
    // invariant `round_end` enforces between rounds, applied to round
    // zero. Without it a fast shard can agree on a window start that is
    // blind to a sibling's still-in-flight startup event and deliver it
    // a round late, out of `(time, from, seq)` order.
    shared.round_end.arrive_and_decide(|| ());

    loop {
        // Drain the inbox into the local calendar: arrival interleaving
        // is erased by the (time, from, seq) sort of each bucket.
        let drain_mark = WallMark::now(wall_on);
        let inbox = std::mem::take(&mut *lock(&shared.inboxes[shard]));
        let drained = inbox.len() as u64;
        for ev in inbox {
            calendar.push(ev);
        }
        let local_min = calendar.peek_time().unwrap_or(SimTime::MAX);
        lock(&shared.mins)[shard] = local_min;
        let drain_ns = drain_mark.elapsed_ns();

        let barrier_mark = WallMark::now(wall_on);
        let plan = shared.plan.arrive_and_decide(|| {
            let mins = lock(&shared.mins);
            let min = mins.iter().copied().min().unwrap_or(SimTime::MAX);
            let done = min == SimTime::MAX || min > max_time;
            let window_start = if done { SimTime::MAX } else { min };
            let rec = lock(&shared.record);
            let need_digests = rec.digest_due(checkpoints, window_start);
            let window_end = if done {
                SimTime::MAX
            } else {
                // Checkpoints at or before `window_start` fire this
                // round's digest pass; the first one after it bounds how
                // far the window may advance.
                let end = window_start + lookahead;
                let unfired = &checkpoints[rec.checkpoints.len()..];
                let next = unfired.iter().find(|&&at| at > window_start);
                next.map_or(end, |&at| end.min(at))
            };
            RoundPlan {
                window_start,
                window_end,
                need_digests,
                done,
            }
        });

        if plan.need_digests {
            // Digest outside the lock, so the shards' passes overlap; the
            // slots only take the copy.
            let digests: Vec<u64> = nodes.iter().map(EngineNode::digest).collect();
            {
                let mut slots = lock(&shared.digests);
                for (id, d) in ids.iter().zip(digests) {
                    slots[id.0 as usize] = d;
                }
            }
            shared.fold.arrive_and_decide(|| {
                let folded = fold_digests(&lock(&shared.digests));
                lock(&shared.record).record_digest(checkpoints, plan.window_start, folded);
            });
        }

        let head_barrier_ns = barrier_mark.elapsed_ns();

        if plan.done {
            break;
        }

        // Process the conservative window [T, window_end), never past
        // `max_time`: the sequential engine treats a pending event after
        // `max_time` as quiescence, so an event inside the window but
        // beyond `max_time` must stay unpopped here too (it then drives
        // the next round's minimum above `max_time`, ending the run).
        let decision_mark = WallMark::now(wall_on);
        let flush_before = stats.flush_ns;
        let mut round_events: u64 = 0;
        let window_end = plan.window_end;
        while calendar
            .peek_time()
            .is_some_and(|t| t < window_end && t <= max_time)
        {
            let ev = calendar.pop().expect("peek said so");
            local_events += 1;
            round_events += 1;
            local_end = ev.time;
            let li = partition.slot[ev.to.0 as usize] as usize;
            nodes[li].on_event(ev.time, ev.from, ev.msg, &mut out);
            route(li, ev.time, &mut out, &mut seqs, &mut calendar, &mut stats);
        }
        let decision_ns = decision_mark.elapsed_ns();

        // Publish-before-drain fence: the next round's minima must see
        // every event this round emitted, or the plan undercounts.
        let end_mark = WallMark::now(wall_on);
        shared.round_end.arrive_and_decide(|| ());

        if sim_on {
            epochs.push(ShardEpoch {
                epoch,
                shard: shard as u32,
                window_start_us: plan.window_start.as_micros(),
                window_end_us: plan.window_end.as_micros(),
                events: round_events,
                inbox_drained: drained,
                sent_local: stats.local - prev_stats.local,
                sent_remote: stats.remote - prev_stats.remote,
            });
        }
        if wall_on {
            walls.push(ShardEpochWall {
                epoch,
                shard: shard as u32,
                drain_ns,
                barrier_ns: head_barrier_ns + end_mark.elapsed_ns(),
                decision_ns,
                flush_ns: stats.flush_ns - flush_before,
            });
        }
        prev_stats = stats;
        epoch += 1;
    }

    let mut rec = lock(&shared.record);
    rec.events += local_events;
    rec.end_time = rec.end_time.max(local_end);
    drop(rec);
    if !epochs.is_empty() {
        lock(&shared.prof).append(&mut epochs);
    }
    if !walls.is_empty() {
        lock(&shared.wall).append(&mut walls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Arc;

    /// A token-passing ring: node i forwards a counter to (i+1) % n with
    /// a fixed delay, `hops` times, folding everything it saw into a
    /// little state hash.
    struct RingNode {
        id: NodeId,
        n: u32,
        hops: u32,
        acc: u64,
        /// Counts the digests taken.
        digests: Arc<AtomicUsize>,
    }

    impl EngineNode for RingNode {
        type Msg = u32;

        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.id.0 == 0 {
                out.send(self.id, SimDuration::from_millis(1), 0);
            }
        }

        fn on_event(&mut self, now: SimTime, from: NodeId, hop: u32, out: &mut Outbox<u32>) {
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(hop))
                .wrapping_add(u64::from(from.0))
                .wrapping_add(now.since(SimTime::ZERO).as_millis());
            if hop < self.hops {
                let next = NodeId((self.id.0 + 1) % self.n);
                out.send(next, SimDuration::from_millis(10), hop + 1);
            }
        }

        fn digest(&self) -> u64 {
            self.digests.fetch_add(1, Relaxed);
            self.acc ^ u64::from(self.id.0)
        }
    }

    fn ring(n: u32, hops: u32) -> impl Fn(NodeId) -> RingNode + Sync {
        move |id| RingNode {
            id,
            n,
            hops,
            acc: 0,
            digests: Arc::default(),
        }
    }

    /// The identity node order `0..n`.
    fn ids(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    /// Run `n` nodes from `make_node` on the sequential engine and on
    /// the parallel one at every count in `shards`, in the identity
    /// order, assert that each parallel run equals the sequential one,
    /// and return the latter.
    fn assert_shards_match<N: EngineNode>(
        n: usize,
        make_node: impl Fn(NodeId) -> N + Sync,
        shards: &[usize],
        lookahead: SimDuration,
        cks: &[SimTime],
        max_time: SimTime,
    ) -> EngineRun {
        let orders = [ids(n)];
        assert_orders_match(&orders, make_node, shards, lookahead, cks, max_time)
    }

    /// [`assert_shards_match`] over every node order in `orders`.
    fn assert_orders_match<N: EngineNode>(
        orders: &[Vec<NodeId>],
        make_node: impl Fn(NodeId) -> N + Sync,
        shards: &[usize],
        lookahead: SimDuration,
        cks: &[SimTime],
        max_time: SimTime,
    ) -> EngineRun {
        let off = ProfileConfig::off();
        let n = orders[0].len();
        let (seq, _) = run_sequential(n, || &make_node, cks, max_time, off);
        for order in orders {
            for &s in shards {
                let (par, _) = run_parallel(order, || &make_node, s, lookahead, cks, max_time, off);
                assert_eq!(
                    seq, par,
                    "shards={s} lookahead={lookahead:?} order={order:?}"
                );
            }
        }
        seq
    }

    /// The identity order of `n` nodes, its reverse and three seeded
    /// shuffles of it. With `pairs`, a shuffle moves the pairs
    /// `(2k, 2k+1)` as units and keeps each at an even position, so every
    /// pair shares a shard at 1, 2 and 4 shards of 8 nodes.
    fn orders(n: usize, pairs: bool) -> Vec<Vec<NodeId>> {
        let mut orders = vec![ids(n), ids(n).into_iter().rev().collect()];
        for seed in [1, 2, 3] {
            let mut rng = crate::rng::SimRng::new(seed);
            let order = if pairs {
                let mut heads: Vec<u32> = (0..n as u32).step_by(2).collect();
                rng.shuffle(&mut heads);
                heads
                    .iter()
                    .flat_map(|&h| [NodeId(h), NodeId(h + 1)])
                    .collect()
            } else {
                let mut order = ids(n);
                rng.shuffle(&mut order);
                order
            };
            orders.push(order);
        }
        orders
    }

    #[test]
    fn parallel_matches_sequential_on_ring() {
        let cks = [
            SimTime::from_millis(50),
            SimTime::from_millis(200),
            SimTime::from_secs(100),
        ];
        let ms10 = SimDuration::from_millis(10);
        let seq = assert_shards_match(8, ring(8, 40), &[1, 2, 3, 4, 8], ms10, &cks, SimTime::MAX);
        assert_eq!(seq.events, 41);
    }

    /// Like [`RingNode`] but every ring delivery also schedules two
    /// short local self-echoes. Self-sends are exempt from the lookahead
    /// bound, so one conservative window holds events at several
    /// distinct times — the shape that exercises window clamping.
    struct EchoNode {
        id: NodeId,
        n: u32,
        hops: u32,
        acc: u64,
    }

    const ECHO: u32 = u32::MAX;

    impl EngineNode for EchoNode {
        type Msg = u32;

        fn on_start(&mut self, out: &mut Outbox<u32>) {
            if self.id.0 == 0 {
                out.send(self.id, SimDuration::from_millis(1), 0);
            }
        }

        fn on_event(&mut self, now: SimTime, from: NodeId, hop: u32, out: &mut Outbox<u32>) {
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(u64::from(hop))
                .wrapping_add(u64::from(from.0))
                .wrapping_add(now.since(SimTime::ZERO).as_millis());
            if hop == ECHO {
                return;
            }
            out.send(self.id, SimDuration::from_millis(1), ECHO);
            out.send(self.id, SimDuration::from_millis(2), ECHO);
            if hop < self.hops {
                let next = NodeId((self.id.0 + 1) % self.n);
                out.send(next, SimDuration::from_millis(10), hop + 1);
            }
        }

        fn digest(&self) -> u64 {
            self.acc ^ u64::from(self.id.0)
        }
    }

    fn echo_ring(n: u32, hops: u32) -> impl Fn(NodeId) -> EchoNode + Sync {
        move |id| EchoNode {
            id,
            n,
            hops,
            acc: 0,
        }
    }

    #[test]
    fn checkpoint_inside_window_matches_sequential() {
        // Ring hops land at 1, 11, 21, …; each spawns echoes at +1/+2.
        // Checkpoints at 12 and 13 fall strictly inside the window
        // starting at 11, with events at/after them in the same window:
        // without clamping, those events are applied before the digest
        // is recorded and the parallel run diverges.
        let cks = [
            SimTime::from_millis(12),
            SimTime::from_millis(13),
            SimTime::from_millis(45),
        ];
        let ms10 = SimDuration::from_millis(10);
        assert_shards_match(4, echo_ring(4, 40), &[1, 2, 4], ms10, &cks, SimTime::MAX);
        // Single shard with a huge lookahead: the whole run is one
        // window unless checkpoints clamp it.
        let hour = SimDuration::from_secs(3600);
        assert_shards_match(4, echo_ring(4, 40), &[1], hour, &cks, SimTime::MAX);
    }

    #[test]
    fn max_time_mid_window_matches_sequential() {
        // max_time = 42 cuts through the window starting at 41 (ring
        // hop at 41, echoes at 42 and 43): the echo at 43 must stay
        // unpopped, exactly as the sequential engine leaves it, and the
        // late checkpoint then fires with the truncated final digest.
        let cks = [SimTime::from_millis(30), SimTime::from_secs(10)];
        let max = SimTime::from_millis(42);
        let ms10 = SimDuration::from_millis(10);
        let seq = assert_shards_match(4, echo_ring(4, 40), &[1, 2, 4], ms10, &cks, max);
        let (full, _) = run_sequential(
            4,
            || echo_ring(4, 40),
            &cks,
            SimTime::MAX,
            ProfileConfig::off(),
        );
        assert!(
            seq.events < full.events,
            "max_time must actually truncate the run"
        );
    }

    /// Every node starts a token at time zero with a zero-delay send to
    /// itself. A token hop schedules the next hop three nodes on (10 ms)
    /// and two zero-delay echoes, one to the node itself and one to its
    /// partner `id ^ 1`; each echo sends one more zero-delay echo to
    /// itself. Partners share a shard at 1, 2 and 4 shards of 8 nodes,
    /// so only the 10 ms hops cross shards.
    struct ZeroDelayNode {
        id: NodeId,
        n: u32,
        hops: u32,
        acc: u64,
    }

    impl EngineNode for ZeroDelayNode {
        /// `(hop, echo depth)`; depth 0 is the token itself.
        type Msg = (u32, u32);

        fn on_start(&mut self, out: &mut Outbox<(u32, u32)>) {
            out.send(self.id, SimDuration::ZERO, (0, 0));
        }

        fn on_event(
            &mut self,
            now: SimTime,
            from: NodeId,
            (hop, depth): (u32, u32),
            out: &mut Outbox<(u32, u32)>,
        ) {
            self.acc = self
                .acc
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add((u64::from(hop) << 8) | u64::from(depth))
                .wrapping_add(u64::from(from.0) << 32)
                .wrapping_add(now.as_micros());
            match depth {
                0 if hop < self.hops => {
                    let next = NodeId((self.id.0 + 3) % self.n);
                    out.send(next, SimDuration::from_millis(10), (hop + 1, 0));
                    out.send(self.id, SimDuration::ZERO, (hop, 1));
                    out.send(NodeId(self.id.0 ^ 1), SimDuration::ZERO, (hop, 1));
                }
                1 => out.send(self.id, SimDuration::ZERO, (hop, 2)),
                _ => {}
            }
        }

        fn digest(&self) -> u64 {
            self.acc ^ u64::from(self.id.0)
        }
    }

    #[test]
    fn zero_delay_sends_match_sequential() {
        let hops = 20;
        let nodes = move |id| ZeroDelayNode {
            id,
            n: 8,
            hops,
            acc: 0,
        };
        let cks = [SimTime::from_millis(50), SimTime::from_millis(95)];
        let ms10 = SimDuration::from_millis(10);
        let seq = assert_shards_match(8, nodes, &[1, 2, 4], ms10, &cks, SimTime::MAX);
        // Per token: `hops` hops with four echoes each, and the last hop.
        assert_eq!(seq.events, 8 * (5 * u64::from(hops) + 1));
    }

    #[test]
    fn every_node_order_gives_the_sequential_run() {
        let shards = [1, 2, 3, 4, 8];
        let ms10 = SimDuration::from_millis(10);
        let cks = [50, 200, 100_000].map(SimTime::from_millis);
        let seq = assert_orders_match(
            &orders(8, false),
            ring(8, 40),
            &shards,
            ms10,
            &cks,
            SimTime::MAX,
        );
        assert_eq!(seq.events, 41);
        let cks = [12, 13, 45].map(SimTime::from_millis);
        let orders7 = orders(7, false);
        assert_orders_match(
            &orders7,
            echo_ring(7, 40),
            &shards,
            ms10,
            &cks,
            SimTime::MAX,
        );
        // The token's zero-delay echoes go to the partner `id ^ 1`, which
        // must share its shard: pairs move as units, and 3 shards of 8
        // nodes would split one.
        let tokens = move |id| ZeroDelayNode {
            id,
            n: 8,
            hops: 20,
            acc: 0,
        };
        let cks = [50, 95].map(SimTime::from_millis);
        let seq = assert_orders_match(
            &orders(8, true),
            tokens,
            &[1, 2, 4],
            ms10,
            &cks,
            SimTime::MAX,
        );
        assert_eq!(seq.events, 8 * (5 * 20 + 1));
    }

    #[test]
    fn a_node_order_that_is_not_a_permutation_panics() {
        let ms10 = SimDuration::from_millis(10);
        let off = ProfileConfig::off();
        let bad = [
            vec![NodeId(0), NodeId(1), NodeId(1), NodeId(3)],
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(4)],
        ];
        for order in bad {
            let r = std::panic::catch_unwind(|| {
                run_parallel(&order, || ring(4, 5), 2, ms10, &[], SimTime::MAX, off)
            });
            let payload = r.expect_err("a bad order must not run");
            let msg = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(msg.contains("not a permutation"), "{msg}");
        }
    }

    /// Cross-check one profiled run against its unprofiled twin and the
    /// profile's internal accounting invariants. `shards` above the
    /// ring's 8 nodes is clamped to 8.
    fn assert_profile_consistent(shards: usize, profile: ProfileConfig) {
        let cks = [SimTime::from_millis(50), SimTime::from_millis(200)];
        let ms10 = SimDuration::from_millis(10);
        let run_with = |profile| {
            run_parallel(
                &ids(8),
                || ring(8, 40),
                shards,
                ms10,
                &cks,
                SimTime::MAX,
                profile,
            )
        };
        let (bare, _) = run_with(ProfileConfig::off());
        let (run, prof) = run_with(profile);
        assert_eq!(run, bare, "profiling perturbed the run (shards={shards})");
        assert_eq!(prof.shards as usize, shards.min(8));
        let s = prof.summary();
        assert_eq!(s.events, run.events, "record event sum != run events");
        assert_eq!(
            s.sent_local + s.sent_remote,
            run.events,
            "ring delivers every sent message exactly once"
        );
        assert_eq!(
            s.sent_remote, s.inbox_drained,
            "at quiescence every cross-shard send must have been drained"
        );
        // Per shard, recorded windows are ascending and non-overlapping.
        for sh in 0..prof.shards {
            let mut last_end = 0u64;
            for r in prof.records.iter().filter(|r| r.shard == sh) {
                assert!(r.window_start_us >= last_end, "windows overlap on {sh}");
                assert!(r.window_end_us > r.window_start_us);
                last_end = r.window_end_us;
            }
        }
        if profile.wall_enabled() {
            assert_eq!(prof.wall.len(), prof.records.len());
        } else {
            assert!(prof.wall.is_empty());
        }
    }

    #[test]
    fn profiled_parallel_matches_unprofiled_and_balances() {
        for shards in [1, 2, 4, 16] {
            assert_profile_consistent(shards, ProfileConfig::sim());
        }
        assert_profile_consistent(2, ProfileConfig::sim_with_wall());
    }

    #[test]
    fn profile_off_records_nothing() {
        let ms10 = SimDuration::from_millis(10);
        let off = ProfileConfig::off();
        let (_, prof) = run_parallel(&ids(8), || ring(8, 10), 2, ms10, &[], SimTime::MAX, off);
        assert!(prof.records.is_empty());
        assert!(prof.wall.is_empty());
    }

    #[test]
    fn sequential_profile_is_one_degenerate_epoch() {
        let (run, prof) =
            run_sequential(8, || ring(8, 40), &[], SimTime::MAX, ProfileConfig::sim());
        assert_eq!(prof.shards, 1);
        assert_eq!(prof.records.len(), 1);
        let r = prof.records[0];
        assert_eq!(r.events, run.events);
        assert_eq!(r.sent_local, run.events, "all sends are shard-local");
        assert_eq!(r.sent_remote, 0);
        assert_eq!(r.window_end_us, run.end_time.as_micros());
        assert!(prof.wall.is_empty());
        let s = prof.summary();
        assert_eq!(s.speedup_ceiling_permille, 1000);
        assert_eq!(s.imbalance_permille, 1000);
    }

    #[test]
    fn checkpoints_cover_quiescence() {
        // Four checkpoints after quiescence and the final digest: one
        // pass over the nodes records all five, on either engine.
        let cks = [30, 60, 90, 120].map(SimTime::from_secs);
        let digests = Arc::new(AtomicUsize::new(0));
        let make_node = |id| RingNode {
            digests: Arc::clone(&digests),
            ..ring(4, 5)(id)
        };
        let (off, ms10) = (ProfileConfig::off(), SimDuration::from_millis(10));
        let (seq, _) = run_sequential(4, || make_node, &cks, SimTime::MAX, off);
        assert_eq!(digests.swap(0, Relaxed), 4);
        assert_eq!(seq.checkpoints.len(), 4);
        assert!(seq.checkpoints.iter().all(|&(_, d)| d == seq.final_digest));
        let (par, _) = run_parallel(&ids(4), || make_node, 2, ms10, &cks, SimTime::MAX, off);
        assert_eq!((digests.load(Relaxed), par), (4, seq));
    }

    #[test]
    fn the_shard_builder_runs_once_per_shard() {
        // The sequential engine is one shard; the parallel one calls the
        // shard builder once per shard, after clamping shards to nodes.
        let built = AtomicUsize::new(0);
        let make_shard = || {
            built.fetch_add(1, Relaxed);
            ring(4, 5)
        };
        let (off, ms10) = (ProfileConfig::off(), SimDuration::from_millis(10));
        run_sequential(4, make_shard, &[], SimTime::MAX, off);
        assert_eq!(built.swap(0, Relaxed), 1);
        for (shards, builders) in [(1, 1), (2, 2), (4, 4), (8, 4)] {
            run_parallel(&ids(4), make_shard, shards, ms10, &[], SimTime::MAX, off);
            assert_eq!(built.swap(0, Relaxed), builders, "{shards} shards");
        }
    }

    #[test]
    #[should_panic(expected = "breaks the barrier invariant")]
    fn cross_shard_send_below_lookahead_panics() {
        let ms50 = SimDuration::from_millis(50);
        run_parallel(
            &ids(2),
            || ring(2, 3),
            2,
            ms50,
            &[],
            SimTime::MAX,
            ProfileConfig::off(),
        );
    }

    #[test]
    fn sibling_shard_panic_does_not_deadlock() {
        // A node that dies mid-window must abort the whole run (via
        // barrier poisoning), not leave sibling shards blocked forever
        // at the next epoch.
        struct Bomb {
            id: NodeId,
        }
        impl EngineNode for Bomb {
            type Msg = ();
            fn on_start(&mut self, out: &mut Outbox<()>) {
                if self.id.0 == 0 {
                    out.send(self.id, SimDuration::from_millis(1), ());
                }
            }
            fn on_event(&mut self, _now: SimTime, _from: NodeId, _msg: (), _out: &mut Outbox<()>) {
                panic!("node blew up");
            }
            fn digest(&self) -> u64 {
                0
            }
        }
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ms1 = SimDuration::from_millis(1);
            run_parallel(
                &ids(4),
                || |id| Bomb { id },
                2,
                ms1,
                &[],
                SimTime::MAX,
                ProfileConfig::off(),
            )
        }));
        assert!(r.is_err(), "the run must abort, not hang or succeed");
    }

    #[test]
    fn empty_engine_is_quiescent() {
        struct Idle;
        impl EngineNode for Idle {
            type Msg = ();
            fn on_start(&mut self, _out: &mut Outbox<()>) {}
            fn on_event(&mut self, _now: SimTime, _from: NodeId, _msg: (), _out: &mut Outbox<()>) {}
            fn digest(&self) -> u64 {
                7
            }
        }
        let (ms1, cks) = (SimDuration::from_millis(1), [SimTime::from_secs(1)]);
        let seq = assert_shards_match(3, |_| Idle, &[2], ms1, &cks, SimTime::MAX);
        assert_eq!(seq.events, 0);
    }
}
