//! Engine profiling: per-shard, per-epoch records of where a run's work
//! went, and the summaries (shard imbalance, speedup ceiling) derived
//! from them.
//!
//! The profiler has two strictly separated channels:
//!
//! * **Sim-time records** ([`ShardEpoch`]) — event counts, message
//!   counts, conservative-window bounds. Every field is a pure function
//!   of simulation history, so records are byte-identical across
//!   same-seed runs, across profiler-on/profiler-off runs (profiling
//!   only *counts*, it never schedules), and safe to fold into compared
//!   artifacts (benchmark JSON, Chrome traces, goldens).
//! * **Wall-clock side channel** ([`ShardEpochWall`]) — optional
//!   nanosecond phase accounting (drain / barrier / decision / flush).
//!   Deliberately *not* serializable: wall data may be printed to a
//!   human (stderr, logs) but is excluded by construction from every
//!   byte-compared artifact, which is how the profiler stays inside the
//!   repo's determinism contract (DESIGN.md §13, §16).
//!
//! All `std::time` usage in the engine funnels through the one
//! [`WallMark`] seam below, each site carrying the machine-checked
//! `peering-analysis: allow(nd-time, ...)` annotation — the analyzer's
//! allowlist stays shrink-only because no other wall-clock read can be
//! added without failing the gate.

use serde::Serialize;

/// What a profiled engine run should record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileConfig {
    sim: bool,
    wall: bool,
}

impl ProfileConfig {
    /// Record nothing: the run returns an empty profile.
    pub fn off() -> ProfileConfig {
        ProfileConfig {
            sim: false,
            wall: false,
        }
    }

    /// Record deterministic sim-time records only.
    pub fn sim() -> ProfileConfig {
        ProfileConfig {
            sim: true,
            wall: false,
        }
    }

    /// Record sim-time records plus the wall-clock side channel.
    pub fn sim_with_wall() -> ProfileConfig {
        ProfileConfig {
            sim: true,
            wall: true,
        }
    }

    /// Whether sim-time records are collected.
    pub fn sim_enabled(self) -> bool {
        self.sim
    }

    /// Whether the wall-clock side channel is collected.
    pub fn wall_enabled(self) -> bool {
        self.wall
    }
}

/// One wall-clock mark, or nothing when the side channel is off.
///
/// This is the engine's entire wall-clock seam: the only `std::time`
/// usage under any `src/` tree. The data it yields stays in
/// [`ShardEpochWall`], which is never serialized into a compared
/// artifact.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::disallowed_types)]
pub struct WallMark(
    // peering-analysis: allow(nd-time, reason = "wall-clock side channel storage; readings never reach digests, traces, or byte-compared artifacts")
    Option<std::time::Instant>,
);

impl WallMark {
    /// The absent mark: `elapsed_ns` reads 0.
    pub const NONE: WallMark = WallMark(None);

    /// Take a mark now when `enabled`, else [`Self::NONE`].
    #[allow(clippy::disallowed_types)]
    pub fn now(enabled: bool) -> WallMark {
        // peering-analysis: allow(nd-time, reason = "the engine's one wall-clock read, gated on ProfileConfig::wall and confined to the side channel")
        WallMark(enabled.then(std::time::Instant::now))
    }

    /// Nanoseconds since the mark; 0 when the mark is absent.
    pub fn elapsed_ns(&self) -> u64 {
        self.0.map_or(0, |t| t.elapsed().as_nanos() as u64)
    }
}

/// One shard's sim-time account of one conservative round (epoch).
///
/// The parallel engine records one of these per shard per processed
/// round; the sequential engine records a single degenerate epoch
/// (shard 0, window `[0, end_time]`). Per shard, windows are
/// non-overlapping and ascending: round `k+1`'s start is never below
/// round `k`'s end (every local event below the end was popped, and
/// cross-shard arrivals respect the lookahead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShardEpoch {
    /// Round number, starting at 0.
    pub epoch: u64,
    /// Recording shard.
    pub shard: u32,
    /// Agreed window start (global minimum pending time), µs.
    pub window_start_us: u64,
    /// Exclusive window end (lookahead- and checkpoint-clamped), µs.
    pub window_end_us: u64,
    /// Events this shard delivered inside the window.
    pub events: u64,
    /// Cross-shard envelopes drained from this shard's inbox before the
    /// round was planned.
    pub inbox_drained: u64,
    /// Messages sent to nodes on this shard (calendar pushes). `on_start`
    /// sends are attributed to epoch 0.
    pub sent_local: u64,
    /// Messages sent to sibling shards (inbox pushes).
    pub sent_remote: u64,
}

/// One shard's wall-clock phase account of one round, in nanoseconds.
///
/// Side channel only: intentionally not `Serialize`, so it cannot leak
/// into a byte-compared artifact. Phases follow the shard loop: inbox
/// *drain*, *barrier* occupancy (plan + digest fold + end-of-round
/// fence), the *decision* pass delivering window events, and the
/// *flush* of cross-shard sends (also counted inside `decision_ns`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardEpochWall {
    /// Round number, matching [`ShardEpoch::epoch`].
    pub epoch: u64,
    /// Recording shard.
    pub shard: u32,
    /// Draining the cross-shard inbox into the local calendar.
    pub drain_ns: u64,
    /// Blocked at (or deciding under) the three epoch barriers.
    pub barrier_ns: u64,
    /// Delivering events in the window (`on_event` + routing).
    pub decision_ns: u64,
    /// Pushing cross-shard envelopes into sibling inboxes (a subset of
    /// the decision pass, measured separately).
    pub flush_ns: u64,
}

/// The complete profile of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Shard count the run actually used (after clamping to the node
    /// count); 1 for sequential runs.
    pub shards: u32,
    /// Sim-time records, sorted by `(epoch, shard)`. Empty unless
    /// [`ProfileConfig::sim_enabled`].
    pub records: Vec<ShardEpoch>,
    /// Wall-clock side channel, sorted by `(epoch, shard)`. Empty
    /// unless [`ProfileConfig::wall_enabled`].
    pub wall: Vec<ShardEpochWall>,
}

impl EngineProfile {
    /// Derive the aggregate summary (shard imbalance, speedup ceiling).
    pub fn summary(&self) -> ProfileSummary {
        let mut s = ProfileSummary {
            shards: self.shards,
            ..ProfileSummary::default()
        };
        // Records are grouped by epoch (sorted on epoch first); walk
        // each group once, tracking the heaviest shard.
        let mut i = 0;
        while i < self.records.len() {
            let epoch = self.records[i].epoch;
            let mut max_events = 0u64;
            let mut epoch_events = 0u64;
            while i < self.records.len() && self.records[i].epoch == epoch {
                let r = &self.records[i];
                max_events = max_events.max(r.events);
                epoch_events += r.events;
                s.sent_local += r.sent_local;
                s.sent_remote += r.sent_remote;
                s.inbox_drained += r.inbox_drained;
                i += 1;
            }
            s.epochs += 1;
            s.events += epoch_events;
            s.critical_path_events += max_events;
            // Idle occupancy: while the heaviest shard delivers
            // `max_events`, each sibling sits at the barrier for the
            // difference — an event-denominated, deterministic stand-in
            // for barrier wait time.
            s.barrier_idle_events += u64::from(self.shards) * max_events - epoch_events;
        }
        s.speedup_ceiling_permille = (s.events * 1000)
            .checked_div(s.critical_path_events)
            .unwrap_or(0);
        s.imbalance_permille = (s.critical_path_events * u64::from(self.shards) * 1000)
            .checked_div(s.events)
            .unwrap_or(0);
        s.remote_send_permille = (s.sent_remote * 1000)
            .checked_div(s.sent_local + s.sent_remote)
            .unwrap_or(0);
        s
    }
}

/// Aggregate, digest-invariant profile summary. All integers — permille
/// ratios instead of floats — so it can sit in byte-compared reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ProfileSummary {
    /// Shard count of the run.
    pub shards: u32,
    /// Conservative rounds processed (1 for sequential runs).
    pub epochs: u64,
    /// Total events delivered (equals `EngineRun::events`).
    pub events: u64,
    /// Messages delivered shard-locally.
    pub sent_local: u64,
    /// Messages that crossed a shard boundary.
    pub sent_remote: u64,
    /// Cross-shard envelopes drained (equals `sent_remote` at
    /// quiescence: everything sent is eventually drained).
    pub inbox_drained: u64,
    /// Σ over epochs of the heaviest shard's event count — the
    /// sim-time critical path a perfectly parallel run cannot beat.
    pub critical_path_events: u64,
    /// Σ over epochs and shards of (heaviest shard − this shard) event
    /// counts: barrier-wait occupancy in event units.
    pub barrier_idle_events: u64,
    /// `events * 1000 / critical_path_events`: the Amdahl-style ceiling
    /// on parallel speedup for this partition, in permille (5000 =
    /// at most 5×).
    pub speedup_ceiling_permille: u64,
    /// `critical_path_events * shards * 1000 / events`: 1000 = perfect
    /// balance, `shards * 1000` = one shard does everything.
    pub imbalance_permille: u64,
    /// `sent_remote * 1000 / (sent_local + sent_remote)`: the share of
    /// messages the partition sends across shards.
    pub remote_send_permille: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(epoch: u64, shard: u32, events: u64) -> ShardEpoch {
        ShardEpoch {
            epoch,
            shard,
            window_start_us: epoch * 10,
            window_end_us: epoch * 10 + 10,
            events,
            inbox_drained: 0,
            sent_local: events,
            sent_remote: 0,
        }
    }

    #[test]
    fn summary_of_balanced_profile() {
        let p = EngineProfile {
            shards: 2,
            records: vec![rec(0, 0, 4), rec(0, 1, 4), rec(1, 0, 2), rec(1, 1, 2)],
            wall: Vec::new(),
        };
        let s = p.summary();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.events, 12);
        assert_eq!(s.critical_path_events, 6);
        assert_eq!(s.barrier_idle_events, 0);
        assert_eq!(s.speedup_ceiling_permille, 2000);
        assert_eq!(s.imbalance_permille, 1000);
    }

    #[test]
    fn summary_of_skewed_profile() {
        // One shard does all the work: ceiling 1×, imbalance = shards.
        let p = EngineProfile {
            shards: 2,
            records: vec![rec(0, 0, 8), rec(0, 1, 0)],
            wall: Vec::new(),
        };
        let s = p.summary();
        assert_eq!(s.critical_path_events, 8);
        assert_eq!(s.barrier_idle_events, 8);
        assert_eq!(s.speedup_ceiling_permille, 1000);
        assert_eq!(s.imbalance_permille, 2000);
    }

    #[test]
    fn empty_profile_summary_is_zero() {
        let s = EngineProfile::default().summary();
        assert_eq!(s.epochs, 0);
        assert_eq!(s.speedup_ceiling_permille, 0);
        assert_eq!(s.imbalance_permille, 0);
    }

    #[test]
    fn wall_mark_disabled_reads_zero() {
        let m = WallMark::now(false);
        assert_eq!(m.elapsed_ns(), 0);
        assert_eq!(WallMark::NONE.elapsed_ns(), 0);
    }

    #[test]
    fn wall_mark_enabled_advances() {
        let m = WallMark::now(true);
        let mut spin = 0u64;
        for i in 0..10_000u64 {
            spin = spin.wrapping_add(i);
        }
        assert!(spin > 0);
        // Monotonic clock: consecutive reads never go backwards.
        let a = m.elapsed_ns();
        let b = m.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn profile_config_modes() {
        assert!(!ProfileConfig::off().sim_enabled());
        assert!(!ProfileConfig::off().wall_enabled());
        assert!(ProfileConfig::sim().sim_enabled());
        assert!(!ProfileConfig::sim().wall_enabled());
        assert!(ProfileConfig::sim_with_wall().sim_enabled());
        assert!(ProfileConfig::sim_with_wall().wall_enabled());
        assert_eq!(ProfileConfig::default(), ProfileConfig::off());
    }
}
