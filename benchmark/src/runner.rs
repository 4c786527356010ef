//! Runs one workload for the time budget and turns its repeats into
//! named metrics.
//!
//! The untraced binary runs untraced repeats only and reports the
//! end-to-end metrics. The traced binary alternates an untraced and a
//! traced repeat: the untraced ones give the allocation counts and the
//! base the tracing overhead is measured against, the traced ones give
//! the spans and layer profiles.

use crate::host;
use crate::metrics::{self, Kind, PER_LAYER};
use crate::report::{Measured, Report};
use crate::stats::Summary;
use crate::trace::{unattributed_permille, Tracer};
use crate::workloads::{self, AllocProbe, Ctx, Rep};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed of the input generators.
    pub seed: u64,
    /// Time budget of the measuring loop, set-up repeats included.
    pub seconds: f64,
    /// Directory the result and trace files go to.
    pub results: PathBuf,
}

fn exact(name: &str, value: f64) -> Measured {
    let def = metrics::find(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
    Measured {
        def,
        value,
        samples: Summary::of(&[]),
    }
}

fn timed(name: &str, samples: &[f64]) -> Measured {
    let mut m = exact(name, 0.0);
    m.samples = Summary::of(samples);
    m.value = m.samples.median;
    m
}

/// One repeat's per-op latency distribution in µs. A repeat whose ops
/// are not timed one by one has a single sample, its mean op time.
fn op_summary_us(rep: &Rep) -> Summary {
    if rep.op_ns.is_empty() {
        return Summary::of(&[rep.wall_ns as f64 / rep.ops.max(1) as f64 / 1e3]);
    }
    let us: Vec<f64> = rep.op_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    Summary::of(&us)
}

/// One repeat as the runner keeps it.
struct Repeat {
    rep: Rep,
    /// Whether the tracer was on.
    traced: bool,
    /// Share of its op time outside every layer span.
    unattributed_permille: f64,
}

/// Repeat the workload for the time budget. A round is one untraced
/// repeat, plus one traced repeat in the traced binary: at least one
/// round, then as many as are expected to end inside the budget.
fn measure(
    workload: &mut dyn workloads::Workload,
    args: &RunArgs,
    alloc: Option<AllocProbe>,
    tracer: &mut Tracer,
) -> Vec<Repeat> {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut round = Duration::ZERO;
    while reps.is_empty() || started.elapsed() + round <= budget {
        let round_started = Instant::now();
        for traced in [false, true] {
            if traced && alloc.is_none() {
                continue;
            }
            tracer.set_enabled(traced);
            let mark = tracer.spans().len();
            let rep = workload.repeat(&mut Ctx {
                seed: args.seed,
                tracer,
                alloc,
            });
            reps.push(Repeat {
                rep,
                traced,
                unattributed_permille: unattributed_permille(&tracer.times_since(mark)),
            });
        }
        round = round_started.elapsed();
    }
    tracer.set_enabled(false);
    reps
}

fn seconds(reps: &[&Rep], f: fn(&Rep) -> u64) -> Vec<f64> {
    reps.iter().map(|r| f(r) as f64 / 1e9).collect()
}

/// The end-to-end metrics of the untraced repeats; `op_us` holds their
/// per-op latency distributions.
fn end_to_end(plain: &[&Rep], op_us: &[Summary]) -> Vec<Measured> {
    let rates: Vec<f64> = plain
        .iter()
        .map(|r| r.ops as f64 * 1e9 / r.wall_ns.max(1) as f64)
        .collect();
    let setups: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.setup_ns.iter().map(|&ns| ns as f64 / 1e9))
        .collect();
    vec![
        timed("setup_s", &setups),
        timed("wall_s", &seconds(plain, |r| r.wall_ns)),
        timed("ops_per_s", &rates),
        op_percentile("op_p50_us", op_us, |s| s.median),
        op_percentile("op_p90_us", op_us, |s| s.p90),
        timed("peak_rss_mb", &[host::peak_rss_mb().unwrap_or(0.0)]),
    ]
}

/// A per-op percentile: taken within each repeat, then the median over
/// the repeats. The host's slow spells last seconds, so they spoil whole
/// repeats, and a median over repeats drops those.
fn op_percentile(name: &str, op_us: &[Summary], f: fn(&Summary) -> f64) -> Measured {
    timed(name, &op_us.iter().map(f).collect::<Vec<_>>())
}

/// The values the repeats named: exact ones must agree between all
/// repeats that report them (a difference is a failure); timed ones are
/// medians over the traced repeats.
fn named_values(reps: &[Repeat], failures: &mut Vec<String>) -> Vec<Measured> {
    let mut named: BTreeMap<&'static str, (Kind, Vec<f64>)> = BTreeMap::new();
    for r in reps {
        for &(name, v) in &r.rep.values {
            let def =
                metrics::find(name).unwrap_or_else(|| panic!("{name} is not in the catalogue"));
            if def.kind == Kind::Exact || r.traced {
                let entry = named.entry(name).or_insert((def.kind, Vec::new()));
                entry.1.push(v);
            }
        }
    }
    named
        .into_iter()
        .map(|(name, (kind, values))| {
            if kind != Kind::Exact {
                return timed(name, &values);
            }
            if values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                failures.push(format!("{name} differs between repeats: {values:?}"));
            }
            exact(name, values[0])
        })
        .collect()
}

/// The cross-cutting metrics of the traced binary.
fn cross_cutting(reps: &[Repeat], plain: &[&Rep], op_us: &[Summary]) -> Vec<Measured> {
    // Allocations per op come from the first repeat: it is untraced (the
    // tracer's span list allocates too) and runs on the run's own seed,
    // so the counts repeat from run to run.
    let first = plain[0];
    let ops = first.ops.max(1) as f64;
    let (user, sys) = host::cpu_times_s().unwrap_or((0.0, 0.0));
    let base = Summary::of(&seconds(plain, |r| r.wall_ns)).median;
    let spanned: Vec<&Rep> = reps.iter().filter(|r| r.traced).map(|r| &r.rep).collect();
    let with_spans = Summary::of(&seconds(&spanned, |r| r.wall_ns)).median;
    let unattributed: Vec<f64> = reps
        .iter()
        .filter(|r| r.traced)
        .map(|r| r.unattributed_permille)
        .collect();
    vec![
        exact("alloc.count_per_op", first.allocs.0 as f64 / ops),
        exact("alloc.bytes_per_op", first.allocs.1 as f64 / ops),
        timed("cpu.user_s", &[user]),
        timed("cpu.sys_s", &[sys]),
        op_percentile("op_p99_us", op_us, |s| s.p99),
        op_percentile("op_max_us", op_us, |s| s.max),
        timed(
            "trace.overhead_permille",
            &[(with_spans - base) * 1000.0 / base],
        ),
        timed("trace.unattributed_permille", &unattributed),
    ]
}

/// Run `args.workload` and aggregate. `alloc` is the counting
/// allocator's probe; having one makes this the traced run.
pub fn run(args: &RunArgs, alloc: Option<AllocProbe>) -> Result<Report, String> {
    let unknown = || format!("unknown workload {:?}", args.workload);
    let def = metrics::WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(unknown)?;
    let mut workload = workloads::by_name(def.name).ok_or_else(unknown)?;
    prewarm_in_child(def.prewarm_mb);
    workload.prepare(args.seed);
    let traced = alloc.is_some();
    let mut tracer = Tracer::new();
    let reps = measure(workload.as_mut(), args, alloc, &mut tracer);

    let plain: Vec<&Rep> = reps.iter().filter(|r| !r.traced).map(|r| &r.rep).collect();
    let op_us: Vec<Summary> = plain.iter().map(|r| op_summary_us(r)).collect();
    let mut failures: Vec<String> = reps
        .iter()
        .flat_map(|r| r.rep.failures.iter().cloned())
        .collect();
    let attempted = reps.iter().map(|r| r.rep.ops).sum();
    let mut failed: u64 = reps.iter().map(|r| r.rep.failed_ops.min(r.rep.ops)).sum();

    let before = failures.len();
    let mut layer = named_values(&reps, &mut failures);
    failed += (failures.len() - before) as u64;
    if traced {
        let extras = workload.traced_extras(&mut Ctx {
            seed: args.seed,
            tracer: &mut tracer,
            alloc,
        });
        layer.extend(extras.into_iter().map(|(name, v)| timed(name, &[v])));
        layer.extend(cross_cutting(&reps, &plain, &op_us));
    }
    // Catalogue order.
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|def| layer.iter().find(|m| m.def.name == def.name).cloned())
        .collect();

    let report = Report {
        args: args.clone(),
        traced,
        repeats: reps.len(),
        attempted,
        failed,
        failures,
        repeat_times: reps
            .iter()
            .map(|r| (r.rep.setup_s(), r.rep.wall_ns as f64 / 1e9, r.traced))
            .collect(),
        end_to_end: end_to_end(&plain, &op_us),
        per_layer,
    };
    if traced {
        write_file(
            &args.results.join(format!("trace_{}.json", args.workload)),
            &tracer.to_json(&args.workload, args.seed),
        )?;
    }
    let mode = if traced { "traced" } else { "e2e" };
    write_file(
        &args.results.join(format!("{mode}_{}.json", args.workload)),
        &serde_json::to_string_pretty(&report.to_value()).map_err(|e| e.to_string())?,
    )?;
    Ok(report)
}

/// Touch `mb` MB in a child process and let it exit, so the pages this
/// process is about to fault in are ones the host still backs (see
/// [`metrics::WorkloadDef::prewarm_mb`]). The child keeps the touching
/// out of this process's own peak resident size. Conditioning only: a
/// failure is reported and the run goes on.
fn prewarm_in_child(mb: usize) {
    if mb == 0 {
        return;
    }
    let status = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(["prewarm", &mb.to_string()])
                .status()
        })
        .map(|s| s.success());
    if !matches!(status, Ok(true)) {
        eprintln!("bench: prewarm of {mb} MB did not run ({status:?}); timings may be noisier");
    }
}

/// The child's side of [`prewarm_in_child`]: write one byte to every
/// page of `mb` MB, then free it all by returning.
pub fn prewarm(mb: usize) {
    let mut block = vec![0u8; mb << 20];
    for page in block.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&block);
}

fn write_file(path: &std::path::Path, text: &str) -> Result<(), String> {
    let dir = path.parent().expect("result files sit in a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}
