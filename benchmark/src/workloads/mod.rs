//! The seven workloads and what they share: the per-repeat record, the
//! timed-op helper, and the output-check bookkeeping.
//!
//! All load is closed-loop, one client: the next op starts when the
//! previous one has converged, as the simulator's callers do. One
//! *repeat* is set-up on fresh state, the timed phase, and the output
//! checks; the runner repeats it for the run's time budget.

use crate::trace::{LayerTime, Tracer};
use std::collections::BTreeMap;

pub mod internet;
pub mod kernels;
pub mod mux;
pub mod plan;
pub mod router;

/// Reads the counting allocator: `(allocations, bytes)` so far. Only the
/// traced binary has one.
pub type AllocProbe = fn() -> (u64, u64);

/// What a workload gets for one repeat.
pub struct Ctx<'a> {
    /// Seed of the input generators.
    pub seed: u64,
    /// Span recorder; enabled on traced repeats only.
    pub tracer: &'a mut Tracer,
    /// Allocation counters, in the traced binary.
    pub alloc: Option<AllocProbe>,
}

impl Ctx<'_> {
    /// Whether this repeat records spans and layer profiles.
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    fn alloc_now(&self) -> (u64, u64) {
        self.alloc.map_or((0, 0), |probe| probe())
    }
}

/// What one repeat measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Everything before the timed phase, once per time it was set up:
    /// a workload whose set-up is short sets up several times, for a
    /// steadier median, and keeps the last state.
    pub setup_ns: Vec<u64>,
    /// The timed phase: the sum of its ops' times.
    pub wall_ns: u64,
    /// Ops in the timed phase.
    pub ops: u64,
    /// Per-op host times; empty where ops are not timed one by one
    /// (engine events).
    pub op_ns: Vec<u64>,
    /// Ops covered by an output check that failed.
    pub failed_ops: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Named values of this repeat: exact counts and layer timings.
    pub values: Vec<(&'static str, f64)>,
    /// `(allocations, bytes)` inside the timed ops.
    pub allocs: (u64, u64),
}

impl Rep {
    /// Time `f` as one op: an op span, a latency sample, and the op's
    /// allocations. The output checks of the op run after this returns,
    /// outside the timed span.
    pub fn time_op<T>(
        &mut self,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let before = ctx.alloc_now();
        let open = ctx.tracer.op(op_id);
        let out = f(ctx.tracer);
        let ns = ctx.tracer.end_op(open);
        let after = ctx.alloc_now();
        self.allocs.0 += after.0 - before.0;
        self.allocs.1 += after.1 - before.1;
        self.wall_ns += ns;
        self.ops += 1;
        self.op_ns.push(ns);
        out
    }

    /// Record an output check that covers `ops` ops.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed_ops += ops;
            self.failures.push(what());
        }
    }

    /// Run `build` `times` times, timing each, and keep the last result.
    pub fn time_setup<T>(&mut self, times: usize, mut build: impl FnMut() -> T) -> T {
        let mut built = None;
        for _ in 0..times.max(1) {
            // The previous state goes first: peak memory is one state's.
            drop(built.take());
            let t = std::time::Instant::now();
            built = Some(build());
            self.setup_ns.push(t.elapsed().as_nanos() as u64);
        }
        built.expect("set up at least once")
    }

    /// The last set-up's time in seconds.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.last().map_or(0.0, |&ns| ns as f64 / 1e9)
    }

    /// Record a named value.
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }
}

/// Mean duration in ms of the spans called `name`.
fn mean_ms(times: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    times
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64)
}

/// One benchmark workload.
pub trait Workload {
    /// Once per run, before the time budget starts: work that belongs
    /// to the output checks, not to any repeat.
    fn prepare(&mut self, _seed: u64) {}

    /// Run one repeat: fresh set-up, timed phase, output checks.
    fn repeat(&mut self, ctx: &mut Ctx<'_>) -> Rep;

    /// Once-per-run measurements of the traced run that are not part of
    /// a repeat (layer kernels, the MRAI pass).
    fn traced_extras(&mut self, _ctx: &mut Ctx<'_>) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "internet_full_bringup" => Box::new(internet::Internet::full_bringup()),
        "internet_eval_table" => Box::new(internet::Internet::eval_table(None)),
        "internet_eval_table_par2" => Box::new(internet::Internet::eval_table(Some(2))),
        "router_feed" => Box::new(router::RouterFeed),
        "mux_tenant_churn" => Box::new(mux::Mux::tenant_churn()),
        "mux_upstream_fanout" => Box::new(mux::Mux::upstream_fanout()),
        "plan_catalog" => Box::new(plan::PlanCatalog::default()),
        _ => return None,
    })
}
