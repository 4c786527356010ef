//! `plan_catalog`: every migration scenario of the catalogue, planned,
//! certified, executed on the emulated testbed and chaos-validated.
//!
//! One repeat is one pass over the catalogue; one op is one scenario.
//! The seed drives the planner's tie-breaking, the testbed's RNG streams
//! and the chaos fault schedules.

use super::{mean_ms, Ctx, Rep, Workload};
use crate::stats::median_of;
use peering_core::{ConfigState, DeploySpec, SafetyConfig};
use peering_netsim::SimRng;
use peering_plan::{chaos_validate, check_order, plan_migration, MigrationTestbed};
use peering_telemetry::Telemetry;
use peering_workloads::{migrations, MigrationSpec};

/// Fault-schedule replays per scenario.
const CHAOS_REPLAYS: usize = 8;

/// The `plan_catalog` workload.
#[derive(Debug, Default)]
pub struct PlanCatalog {
    /// Passes made so far in this run.
    passes: u64,
}

/// What one scenario's op produced, for the checks after it.
struct Outcome {
    feasible: bool,
    certified: bool,
    converged: bool,
    chaos_ok: bool,
    sim_us: u64,
    oracle_checks: u64,
    search_visited: u64,
    faults: u64,
}

fn run_scenario(
    tracer: &mut crate::trace::Tracer,
    id: u64,
    spec: &MigrationSpec,
    endpoints: &(DeploySpec, ConfigState, ConfigState),
    safety: &SafetyConfig,
    seed: u64,
) -> Outcome {
    let (deploy, current, target) = endpoints;
    let planned = tracer.layer("plan.search", id, || {
        plan_migration(spec.name, deploy, current, target, safety, seed)
    });
    let Ok(plan) = planned else {
        return Outcome {
            feasible: false,
            certified: true,
            converged: true,
            chaos_ok: true,
            sim_us: 0,
            oracle_checks: 0,
            search_visited: 0,
            faults: 0,
        };
    };
    let digests = tracer.layer("plan.certify", id, || {
        check_order(deploy, current, target, safety, &plan.steps)
    });
    let mut testbed = tracer.layer("plan.exec_build", id, || {
        MigrationTestbed::build(deploy, current, safety, seed, Telemetry::disabled())
    });
    let started = testbed.emu.now();
    let report = tracer.layer("plan.exec_run", id, || testbed.run_plan(&plan.steps));
    let sim_us = testbed.emu.now().since(started).as_micros();
    let chaos = tracer.layer("plan.chaos", id, || {
        chaos_validate(deploy, current, &plan, safety, seed, seed, CHAOS_REPLAYS)
    });
    Outcome {
        feasible: true,
        certified: digests.as_ref() == Ok(&plan.digests),
        converged: report.converged && chaos.fault_free_converged,
        chaos_ok: chaos.all_match() && chaos.fault_free_digest == report.final_digest,
        sim_us,
        oracle_checks: plan.oracle_checks,
        search_visited: plan.search_visited,
        faults: chaos.faults_injected as u64,
    }
}

impl Workload for PlanCatalog {
    fn repeat(&mut self, ctx: &mut Ctx<'_>) -> Rep {
        let mut rep = Rep::default();
        let mark = ctx.tracer.spans().len();
        // What a scenario's chaos replays and tie-breaks cost depends on
        // their seed (the faults injected differ in number). The first
        // pass uses the run's seed and supplies the exact counts; every
        // later pass uses a seed derived from it, so that a run's medians
        // average over some hundreds of schedules.
        let first_pass = self.passes == 0;
        let seed = match self.passes {
            0 => ctx.seed,
            n => SimRng::new(ctx.seed).fork(&format!("pass/{n}")).seed(),
        };
        self.passes += 1;

        let (catalog, safety, endpoints) = rep.time_setup(1, || {
            let catalog = migrations();
            let endpoints: Vec<(DeploySpec, ConfigState, ConfigState)> = catalog
                .iter()
                .map(|spec| {
                    let deploy = (spec.deploy)();
                    let (current, target) = ((spec.current)(&deploy), (spec.target)(&deploy));
                    (deploy, current, target)
                })
                .collect();
            (catalog, SafetyConfig::peering_default(), endpoints)
        });
        rep.op_ns.reserve(catalog.len());

        let mut sim_us = Vec::new();
        let (mut oracle_checks, mut search_visited, mut faults) = (0u64, 0u64, 0u64);
        for (i, (spec, endpoints)) in catalog.iter().zip(&endpoints).enumerate() {
            let id = i as u64;
            let out = rep.time_op(ctx, id, |tracer| {
                run_scenario(tracer, id, spec, endpoints, &safety, seed)
            });
            rep.check(
                1,
                out.feasible == spec.expect_feasible
                    && out.certified
                    && out.converged
                    && out.chaos_ok,
                || {
                    format!(
                        "{}: feasible={} (expected {}) certified={} converged={} chaos={}",
                        spec.name,
                        out.feasible,
                        spec.expect_feasible,
                        out.certified,
                        out.converged,
                        out.chaos_ok
                    )
                },
            );
            if out.feasible {
                sim_us.push(out.sim_us as f64);
            }
            oracle_checks += out.oracle_checks;
            search_visited += out.search_visited;
            faults += out.faults;
        }

        if first_pass {
            rep.value("sim_converge_ms", median_of(&sim_us) / 1000.0);
            rep.value("plan.oracle_checks", oracle_checks as f64);
            rep.value("plan.search_visited", search_visited as f64);
            rep.value("plan.faults_injected", faults as f64);
        }
        if ctx.traced() {
            let times = ctx.tracer.times_since(mark);
            // Layer time per scenario that reached the layer.
            for (name, span) in [
                ("plan.search_us", "plan.search"),
                ("plan.certify_us", "plan.certify"),
                ("plan.exec_build_us", "plan.exec_build"),
                ("plan.exec_run_us", "plan.exec_run"),
                ("plan.chaos_us", "plan.chaos"),
            ] {
                rep.value(name, mean_ms(&times, span) * 1e3);
            }
        }
        rep
    }
}
