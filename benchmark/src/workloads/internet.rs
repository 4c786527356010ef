//! `internet_*`: a generated Internet of real `Speaker`s run to
//! quiescence by the event engine.
//!
//! The op is one engine event. Events are not timed one by one (the
//! engine is one call), so a repeat contributes a single per-event
//! latency sample: its wall time over its event count.

use super::{mean_ms, Ctx, Rep, Workload};
use peering_netsim::{EngineProfile, EngineRun, ProfileConfig, SimTime};
use peering_topology::{Internet as Topology, InternetConfig};
use peering_workloads::{spaced_checkpoints, ScaleTopo};
use std::time::Instant;

/// Sim-time horizon of the checkpoint digests (the scale harness's
/// standard schedule); runs quiesce long before it.
const CHECKPOINT_HORIZON: SimTime = SimTime::from_secs(120);
/// Checkpoints per run.
const CHECKPOINT_COUNT: usize = 4;
/// Origins announcing a prefix on the table-carrying workloads.
const EVAL_ORIGINS: usize = 24;
/// Times the eval topology is set up per repeat: it takes some 40 ms, so
/// one sample per repeat would leave `setup_s` to the host's mood.
const EVAL_SETUPS: usize = 5;

/// Which topology preset a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Preset {
    /// `InternetConfig::full`: 47k ASes, 160k sessions, no origins.
    Full,
    /// `InternetConfig::eval`: 6k ASes, 24 origins.
    Eval,
}

/// One `internet_*` workload.
#[derive(Debug)]
pub struct Internet {
    preset: Preset,
    /// Shard threads of the parallel engine; `None` runs sequentially.
    shards: Option<usize>,
    /// The first repeat's result; every later repeat must equal it.
    first: Option<EngineRun>,
    /// The sequential run a sharded run must equal, and its wall time.
    reference: Option<(EngineRun, u64)>,
}

impl Internet {
    /// `internet_full_bringup`.
    pub fn full_bringup() -> Internet {
        Internet {
            preset: Preset::Full,
            shards: None,
            first: None,
            reference: None,
        }
    }

    /// `internet_eval_table` (`shards` = `None`) and
    /// `internet_eval_table_par2` (`Some(2)`).
    pub fn eval_table(shards: Option<usize>) -> Internet {
        Internet {
            preset: Preset::Eval,
            shards,
            first: None,
            reference: None,
        }
    }

    /// Run the engine. `run_engine_sequential` and `run_engine_parallel`
    /// are these same calls with `ProfileConfig::off()`, which is what an
    /// untraced repeat passes.
    fn run(&self, topo: &ScaleTopo, cks: &[SimTime], profiled: bool) -> (EngineRun, EngineProfile) {
        let cfg = if profiled {
            ProfileConfig::sim_with_wall()
        } else {
            ProfileConfig::off()
        };
        match self.shards {
            None => topo.run_engine_sequential_profiled(cks, SimTime::MAX, cfg),
            Some(n) => topo.run_engine_parallel_profiled(n, cks, SimTime::MAX, cfg),
        }
    }
}

fn profile_values(rep: &mut Rep, profile: &EngineProfile) {
    let s = profile.summary();
    let sent = s.sent_local + s.sent_remote;
    rep.value("engine.epochs", s.epochs as f64);
    rep.value("engine.sent_local", s.sent_local as f64);
    rep.value("engine.sent_remote", s.sent_remote as f64);
    rep.value(
        "engine.remote_send_permille",
        (s.sent_remote * 1000).checked_div(sent).unwrap_or(0) as f64,
    );
    rep.value("engine.imbalance_permille", s.imbalance_permille as f64);
    rep.value(
        "engine.speedup_ceiling_permille",
        s.speedup_ceiling_permille as f64,
    );
    rep.value("engine.barrier_idle_events", s.barrier_idle_events as f64);
    // Host time by engine phase, summed over shards and epochs.
    let sum = |f: fn(&peering_netsim::ShardEpochWall) -> u64| -> f64 {
        profile.wall.iter().map(f).sum::<u64>() as f64
    };
    rep.value("engine.drain_ns", sum(|w| w.drain_ns));
    rep.value("engine.barrier_ns", sum(|w| w.barrier_ns));
    rep.value("engine.decision_ns", sum(|w| w.decision_ns));
    rep.value("engine.flush_ns", sum(|w| w.flush_ns));
}

impl Internet {
    fn config(&self, seed: u64) -> (InternetConfig, usize) {
        match self.preset {
            Preset::Full => (InternetConfig::full(seed), 0),
            Preset::Eval => (InternetConfig::eval(seed), EVAL_ORIGINS),
        }
    }
}

fn checkpoints() -> Vec<SimTime> {
    spaced_checkpoints(CHECKPOINT_HORIZON, CHECKPOINT_COUNT)
}

impl Workload for Internet {
    /// A sharded run is checked against, and its speed-up taken from,
    /// one sequential run of the same topology.
    fn prepare(&mut self, seed: u64) {
        if self.shards.is_none() {
            return;
        }
        let (cfg, origins) = self.config(seed);
        let topo = ScaleTopo::from_internet(&Topology::build(cfg), origins);
        let t = Instant::now();
        let run = topo.run_engine_sequential(&checkpoints(), SimTime::MAX);
        self.reference = Some((run, t.elapsed().as_nanos() as u64));
    }

    fn repeat(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        let mut rep = Rep::default();
        let mark = ctx.tracer.spans().len();
        let (cfg, origins) = self.config(ctx.seed);
        let setups = match self.preset {
            Preset::Full => 1,
            Preset::Eval => EVAL_SETUPS,
        };

        let (topo, cks) = rep.time_setup(setups, || {
            let net = ctx
                .tracer
                .layer("topology.build", 0, || Topology::build(cfg.clone()));
            let topo = ctx.tracer.layer("scale.topo_build", 0, || {
                ScaleTopo::from_internet(&net, origins)
            });
            (
                topo,
                spaced_checkpoints(CHECKPOINT_HORIZON, CHECKPOINT_COUNT),
            )
        });

        let traced = ctx.traced();
        let before = ctx.alloc_now();
        let open = ctx.tracer.op(0);
        let (run, profile) = ctx
            .tracer
            .layer("netsim.engine", 0, || self.run(&topo, &cks, traced));
        rep.wall_ns = ctx.tracer.end_op(open);
        let after = ctx.alloc_now();
        rep.allocs = (after.0 - before.0, after.1 - before.1);
        rep.ops = run.events;

        rep.value("sim_converge_ms", run.end_time.as_micros() as f64 / 1000.0);
        rep.value("engine.events", run.events as f64);
        rep.value("engine.sim_end_us", run.end_time.as_micros() as f64);
        rep.value(
            "engine.ns_per_event",
            rep.wall_ns as f64 / run.events.max(1) as f64,
        );
        if traced {
            profile_values(&mut rep, &profile);
            let times = ctx.tracer.times_since(mark);
            rep.value("topology.build_ms", mean_ms(&times, "topology.build"));
            rep.value("scale.topo_build_ms", mean_ms(&times, "scale.topo_build"));
        }
        if let Some((_, seq_ns)) = &self.reference {
            rep.value(
                "engine.par2_speedup_permille",
                *seq_ns as f64 * 1000.0 / rep.wall_ns.max(1) as f64,
            );
        }

        // Output checks; each covers every event of the repeat.
        let events = run.events;
        let sessions = topo.session_count() as u64;
        rep.check(
            events,
            run.end_time < CHECKPOINT_HORIZON && run.checkpoints.len() == CHECKPOINT_COUNT,
            || format!("engine did not quiesce: ended at {:?}", run.end_time),
        );
        rep.check(events, events >= 4 * sessions, || {
            format!("{events} events for {sessions} sessions: sessions did not all come up")
        });
        if let Some((reference, _)) = &self.reference {
            rep.check(events, run == *reference, || {
                "sharded EngineRun differs from the sequential reference".to_string()
            });
        }
        match &self.first {
            Some(first) => rep.check(events, run == *first, || {
                "EngineRun differs between repeats of one seed".to_string()
            }),
            None => self.first = Some(run),
        }
        rep
    }
}
