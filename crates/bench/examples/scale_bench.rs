//! E10 driver — the full-scale fast-path benchmark.
//!
//! Builds a generated-Internet preset, converges it on the sequential
//! engine, pins the parallel engine against it shard count by shard
//! count (bitwise digest equality, checkpoints included), measures
//! Fig. 2-style bytes/route at the preset's table size, and writes the
//! combined report as JSON.
//!
//! It also measures what the engine's route state costs per (speaker,
//! prefix): a counting global allocator tracks live bytes, and two
//! sequential legs, one with no beacons and one with `beacons`, each
//! record their peak above what was live when they began. The growth
//! from the first peak to the second, divided by ASes × beacons, is
//! `bytes_per_speaker_prefix`. Each leg resets the peak, so the Fig. 2
//! leg, which sets the process peak, reaches neither. The idle leg's peak
//! over ASes is `idle_bytes_per_speaker`: what a speaker with its
//! sessions up and no routes costs. The harness's own spec is measured
//! too: the live bytes `ScaleTopo::from_internet` keeps, over sessions,
//! are `topo_bytes_per_session`.
//!
//! Usage: `scale_bench [out.json] [seed] [preset] [beacons]`
//!
//! Wall-clock timing lives here, in an example, because the repo's
//! determinism contract (`peering-analyze`, DESIGN.md §13) keeps
//! `src/` clock-free. Every nondeterministic output key is prefixed
//! `timing_` so `tools/check.sh` can strip them and byte-compare
//! double runs.

// A `GlobalAlloc` impl is unsafe by signature; the allowance is local to
// this file.
#![allow(unsafe_code)]

use peering_bench::scale;
use peering_netsim::{ProfileConfig, SimTime};
use peering_topology::Internet;
use serde_json::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

/// Forwards to the system allocator and tracks live bytes and their
/// peak since the last [`reset_peak`].
struct Counting;

// Statistics only: the counters publish no other data, so Relaxed.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Start a new peak at the bytes live now, and return them.
fn reset_peak() -> i64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Run `f` and return its value with the peak live bytes it reached
/// above what was live when it began. Deterministic for a
/// single-threaded `f`.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = reset_peak();
    let v = f();
    (v, PEAK.load(Ordering::Relaxed) - start)
}

/// Wall-clock milliseconds around `f`. The only clock in the bench.
#[allow(clippy::disallowed_types)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "results/BENCH_scale.json".to_string());
    let seed: u64 = args.get(2).map_or(42, |s| s.parse().expect("seed"));
    let preset_name = args.get(3).cloned().unwrap_or_else(|| "full".to_string());
    let beacons: usize = args.get(4).map_or(6, |s| s.parse().expect("beacons"));
    let shard_counts = [2usize, 4, 8];

    eprintln!("scale_bench: building preset {preset_name:?} (seed {seed})");
    let (net, ms_build) = timed(|| Internet::build(scale::preset(&preset_name, seed)));
    let live_before_topo = LIVE.load(Ordering::Relaxed);
    let topo = scale::build_topo(&net, beacons);
    let topo_bytes = LIVE.load(Ordering::Relaxed) - live_before_topo;
    eprintln!(
        "  {} ASes, {} sessions, {} prefixes in table, {} beacons ({ms_build:.0} ms)",
        net.graph.len(),
        topo.session_count(),
        net.graph.total_prefixes(),
        topo.beacon_count()
    );

    let cks = scale::standard_checkpoints();
    let idle = scale::build_topo(&net, 0);
    let (_, peak_idle) = peak_above_start(|| idle.run_engine_sequential(&cks, SimTime::MAX));
    drop(idle);
    let ((seq, peak_loaded), ms_seq) =
        timed(|| peak_above_start(|| topo.run_engine_sequential(&cks, SimTime::MAX)));
    let events_per_sec = seq.events as f64 / (ms_seq / 1e3);
    eprintln!(
        "  sequential: {} events, quiesced at {} us sim-time ({ms_seq:.0} ms wall, {events_per_sec:.0} events/s)",
        seq.events,
        seq.end_time.as_micros()
    );
    let speakers = net.graph.len().max(1) as f64;
    let idle_bytes_per_speaker = peak_idle as f64 / speakers;
    let topo_bytes_per_session = topo_bytes as f64 / topo.session_count().max(1) as f64;
    eprintln!(
        "  idle: {idle_bytes_per_speaker:.1} B per speaker; spec: {topo_bytes} B live, \
         {topo_bytes_per_session:.1} B per session"
    );
    let speaker_prefixes = (net.graph.len() * topo.beacon_count()).max(1) as f64;
    let bytes_per_speaker_prefix = (peak_loaded - peak_idle) as f64 / speaker_prefixes;
    eprintln!(
        "  route state: peak {peak_idle} B live at 0 beacons, {peak_loaded} B at {}: \
         {bytes_per_speaker_prefix:.1} B per (speaker, prefix)",
        topo.beacon_count()
    );

    // Parallel legs run with the profiler on: the acceptance bar is that
    // profiling is digest-invariant, so `run == seq` must still hold.
    let mut all_match = true;
    let mut parallel_ms = Vec::new();
    let mut profiles = Vec::new();
    for &shards in &shard_counts {
        let ((run, prof), ms) = timed(|| {
            topo.run_engine_parallel_profiled(shards, &cks, SimTime::MAX, ProfileConfig::sim())
        });
        let ok = run == seq;
        all_match &= ok;
        let s = prof.summary();
        eprintln!(
            "  parallel x{shards}: {} events over {} epochs, speedup ceiling {}.{:03}x, \
             imbalance {} ‰, remote sends {} ‰ ({ms:.0} ms wall) — {}",
            run.events,
            s.epochs,
            s.speedup_ceiling_permille / 1000,
            s.speedup_ceiling_permille % 1000,
            s.imbalance_permille,
            s.remote_send_permille,
            if ok { "digests match" } else { "DIVERGED" }
        );
        parallel_ms.push((shards, ms));
        profiles.push(s);
    }
    assert!(
        all_match,
        "parallel engine diverged from the sequential reference"
    );

    let routes = net.graph.total_prefixes();
    let (bytes, ms_bytes) = timed(|| scale::bytes_per_route(4, routes));
    eprintln!(
        "  bytes/route @ {routes} routes x 4 peers: {:.1} interned vs {:.1} naive, {} distinct attrs ({ms_bytes:.0} ms)",
        bytes.per_route_interned, bytes.per_route_uninterned, bytes.distinct_attrs
    );

    let report = scale::report(
        &preset_name,
        seed,
        &net,
        &topo,
        &shard_counts,
        all_match,
        &seq,
        bytes,
        profiles,
    );
    let Value::Map(mut obj) = serde_json::to_value(&report).expect("report serializes") else {
        unreachable!("a struct serializes to a map");
    };
    obj.push(("peak_live_bytes_idle".to_string(), Value::I64(peak_idle)));
    obj.push((
        "peak_live_bytes_loaded".to_string(),
        Value::I64(peak_loaded),
    ));
    obj.push((
        "bytes_per_speaker_prefix".to_string(),
        Value::F64(bytes_per_speaker_prefix),
    ));
    obj.push((
        "idle_bytes_per_speaker".to_string(),
        Value::F64(idle_bytes_per_speaker),
    ));
    obj.push((
        "topo_bytes_per_session".to_string(),
        Value::F64(topo_bytes_per_session),
    ));
    obj.push(("timing_wall_ms_build".to_string(), Value::F64(ms_build)));
    obj.push(("timing_wall_ms_sequential".to_string(), Value::F64(ms_seq)));
    obj.push((
        "timing_events_per_sec_sequential".to_string(),
        Value::F64(events_per_sec),
    ));
    for (shards, ms) in parallel_ms {
        obj.push((format!("timing_wall_ms_parallel_{shards}"), Value::F64(ms)));
    }
    obj.push((
        "timing_wall_ms_bytes_per_route".to_string(),
        Value::F64(ms_bytes),
    ));

    let rendered = serde_json::to_string_pretty(&Value::Map(obj)).expect("render") + "\n";
    std::fs::write(&out, rendered).expect("write report");
    eprintln!("wrote {out}");
}
