//! The parallel-engine acceptance matrix (ISSUE 7): sequential vs.
//! sharded runs over ring, star, and generated-Internet topologies,
//! every shard count, asserting complete [`EngineRun`] equality —
//! event counts, quiescence times, every checkpoint digest, and the
//! final digest, bitwise.
//!
//! Plus the interner leak check: a full converge-then-withdraw-all
//! cycle must return every speaker's attribute arena to empty, and
//! disabling interning entirely must not change any digest.

use peering_bgp::{digest_routes, Asn, Input};
use peering_netsim::{Fnv1a, ProfileConfig, SimDuration, SimTime};
use peering_telemetry::{chrome_trace, record_engine_profile, Telemetry};
use peering_topology::{Internet, InternetConfig};
use peering_workloads::chaos::origin_prefix;
use peering_workloads::{differential, spaced_checkpoints, ChaosTopology, ScaleTopo};

const HORIZON: SimTime = SimTime::from_secs(600);
const SHARDS: [usize; 4] = [1, 2, 4, 8];

fn assert_matrix(name: &str, topo: &ScaleTopo) {
    let cks = spaced_checkpoints(HORIZON, 4);
    let (reference, verdicts) = differential(topo, &SHARDS, &cks, SimTime::MAX);
    assert!(reference.events > 0, "{name}: no events processed");
    assert!(
        reference.end_time < HORIZON,
        "{name}: did not quiesce inside the horizon"
    );
    assert_eq!(reference.checkpoints.len(), cks.len());
    for (shards, ok) in verdicts {
        assert!(
            ok,
            "{name}: {shards}-shard run diverged from the sequential engine"
        );
    }
}

#[test]
fn ring_matrix_matches_sequential() {
    assert_matrix("ring-6", &ScaleTopo::from_chaos(&ChaosTopology::Ring(6)));
}

#[test]
fn star_matrix_matches_sequential() {
    assert_matrix("star-5", &ScaleTopo::from_chaos(&ChaosTopology::Star(5)));
}

#[test]
fn emulation_and_engine_converge_to_the_same_tables() {
    // The two substrates that host Speakers — `Emulation` (containers
    // over `MsgNet`) and the event engine — must agree on what a
    // fault-free topology converges to: fold each container's Loc-RIB
    // digest the way the engine folds its nodes' and compare.
    for chaos in [
        ChaosTopology::Ring(6),
        ChaosTopology::Ring(7),
        ChaosTopology::Star(5),
    ] {
        let emu = chaos.build(1);
        let mut fold = Fnv1a::new();
        for i in 0..emu.container_count() {
            let mut h = Fnv1a::legacy();
            digest_routes(&mut h, emu.daemon(i).expect("daemon up").loc_rib().iter());
            fold.write(&h.finish().to_le_bytes());
        }
        let engine = ScaleTopo::from_chaos(&chaos).run_engine_sequential(&[], SimTime::MAX);
        assert_eq!(
            fold.finish(),
            engine.final_digest,
            "{}: emulation and engine tables differ",
            chaos.name()
        );
    }
}

#[test]
fn internet_matrix_matches_sequential() {
    // A generated Internet with Gao-Rexford policies; two seeds so the
    // matrix covers different graphs, not just different schedules.
    for seed in [1, 2] {
        let net = Internet::build(InternetConfig::small(seed));
        let topo = ScaleTopo::from_internet(&net, 6);
        assert!(topo.beacon_count() > 0, "seed {seed}: no beacons");
        assert_matrix(&format!("internet-small-{seed}"), &topo);
    }
}

#[test]
fn eval_scale_matrix_matches_sequential() {
    // The ~6k-AS evaluation preset: the scale where the missing
    // end-of-round fence first showed up as divergence. Two beacons
    // keep debug-mode runtime bounded; the full preset runs in release
    // via the scale bench in tools/check.sh.
    let net = Internet::build(InternetConfig::eval(1));
    let topo = ScaleTopo::from_internet(&net, 2);
    assert_matrix("internet-eval-1", &topo);
}

#[test]
fn internet_matrix_with_mrai_matches_sequential() {
    // MRAI packing introduces per-peer batch timers — exactly the kind
    // of node-local deadline that could diverge under sharding if tick
    // scheduling weren't deterministic.
    let net = Internet::build(InternetConfig::small(3));
    let topo = ScaleTopo::from_internet(&net, 6).with_mrai(SimDuration::from_secs(15));
    assert_matrix("internet-small-3-mrai", &topo);
}

#[test]
fn export_grouping_ablation_is_digest_invariant_across_shards() {
    // ISSUE 8 acceptance: the peer-group export engine (shared staged
    // computation + copy-on-write Adj-RIB-Out) must be observationally
    // identical to the naive per-peer export it replaces — same events,
    // same quiescence time, same checkpoint and final digests — on
    // every topology class, sequentially and under sharding, and
    // regardless of whether attribute interning is on underneath.
    let cases: Vec<(String, ScaleTopo)> = vec![
        (
            "ring-6".into(),
            ScaleTopo::from_chaos(&ChaosTopology::Ring(6)),
        ),
        (
            "star-5".into(),
            ScaleTopo::from_chaos(&ChaosTopology::Star(5)),
        ),
        (
            "internet-small-6".into(),
            ScaleTopo::from_internet(&Internet::build(InternetConfig::small(6)), 5),
        ),
        (
            "internet-eval-1".into(),
            ScaleTopo::from_internet(&Internet::build(InternetConfig::eval(1)), 2),
        ),
    ];
    let cks = spaced_checkpoints(HORIZON, 3);
    for (name, grouped) in cases {
        let reference = grouped.run_engine_sequential(&cks, SimTime::MAX);
        assert!(reference.events > 0, "{name}: no events processed");
        let variants: [(&str, ScaleTopo); 2] = [
            ("ungrouped", grouped.clone().without_export_groups()),
            (
                "ungrouped+uninterned",
                grouped.clone().without_export_groups().without_interning(),
            ),
        ];
        for (vname, topo) in variants {
            let seq = topo.run_engine_sequential(&cks, SimTime::MAX);
            assert_eq!(
                seq, reference,
                "{name}/{vname}: sequential run diverged from the grouped engine"
            );
            for shards in [1usize, 2, 4] {
                let run = topo.run_engine_parallel(shards, &cks, SimTime::MAX);
                assert_eq!(
                    run, reference,
                    "{name}/{vname}: {shards}-shard run diverged from the grouped engine"
                );
            }
        }
    }
}

#[test]
fn profiler_is_digest_invariant_across_shards() {
    // ISSUE 9 acceptance: observing a run must not perturb it. For both
    // profiler modes (sim-only and sim+wall side channel), the profiled
    // run's EngineRun — events, quiescence time, every checkpoint
    // digest, the final digest — must equal the unprofiled run's,
    // sequentially and at shards 1/2/4. The profile itself must account
    // for every delivered event.
    let net = Internet::build(InternetConfig::small(7));
    let topo = ScaleTopo::from_internet(&net, 5);
    let cks = spaced_checkpoints(HORIZON, 3);
    let reference = topo.run_engine_sequential(&cks, SimTime::MAX);
    assert!(reference.events > 0);

    for profile in [ProfileConfig::sim(), ProfileConfig::sim_with_wall()] {
        let (seq, seq_prof) = topo.run_engine_sequential_profiled(&cks, SimTime::MAX, profile);
        assert_eq!(seq, reference, "sequential profiled run diverged");
        assert_eq!(seq_prof.summary().events, reference.events);

        for shards in [1usize, 2, 4] {
            let (run, prof) =
                topo.run_engine_parallel_profiled(shards, &cks, SimTime::MAX, profile);
            assert_eq!(
                run,
                reference,
                "{shards}-shard profiled run diverged (wall={})",
                profile.wall_enabled()
            );
            let s = prof.summary();
            assert_eq!(s.events, reference.events, "profile lost events");
            assert_eq!(
                s.sent_remote, s.inbox_drained,
                "at quiescence every cross-shard send was drained"
            );
            if profile.wall_enabled() {
                assert_eq!(prof.wall.len(), prof.records.len());
            } else {
                assert!(prof.wall.is_empty(), "wall channel must stay off");
            }
        }
    }
}

#[test]
fn trace_export_is_byte_identical_across_same_seed_runs() {
    // ISSUE 9 acceptance: the exported Chrome trace is a pure function
    // of (seed, topo, shards). Two full pipelines — engine run, profile,
    // telemetry fold, trace render — must yield byte-identical JSON.
    let render = || {
        let net = Internet::build(InternetConfig::small(8));
        let topo = ScaleTopo::from_internet(&net, 4);
        let cks = spaced_checkpoints(HORIZON, 3);
        let (run, prof) =
            topo.run_engine_parallel_profiled(2, &cks, SimTime::MAX, ProfileConfig::sim());
        let t = Telemetry::new();
        record_engine_profile(&t, &prof);
        let span = t.span("netsim.engine.run", SimTime::ZERO);
        span.end(run.end_time);
        t.event(
            run.end_time,
            "netsim.engine.quiesced",
            &[("events", run.events.into())],
        );
        chrome_trace(&t.snapshot(), Some(&prof))
    };
    let a = render();
    let b = render();
    assert!(!a.is_empty() && a.contains("\"traceEvents\""));
    assert_eq!(a, b, "same-seed trace export must be byte-identical");
    // The wall side channel must not alter the trace either: wall data
    // is unserializable by construction, so a sim+wall run renders the
    // same bytes.
    let net = Internet::build(InternetConfig::small(8));
    let topo = ScaleTopo::from_internet(&net, 4);
    let cks = spaced_checkpoints(HORIZON, 3);
    let (run, prof) =
        topo.run_engine_parallel_profiled(2, &cks, SimTime::MAX, ProfileConfig::sim_with_wall());
    let t = Telemetry::new();
    record_engine_profile(&t, &prof);
    let span = t.span("netsim.engine.run", SimTime::ZERO);
    span.end(run.end_time);
    t.event(
        run.end_time,
        "netsim.engine.quiesced",
        &[("events", run.events.into())],
    );
    assert_eq!(
        chrome_trace(&t.snapshot(), Some(&prof)),
        a,
        "wall-clock channel leaked into the trace"
    );
}

#[test]
fn interner_arena_returns_to_baseline_after_withdraw_all() {
    // Converge a ring, note per-speaker arena occupancy, withdraw every
    // origin, re-converge: tables empty out and a GC pass returns every
    // arena to zero live entries — shared attributes don't leak.
    let topo = ChaosTopology::Ring(5);
    let mut emu = topo.build(11);
    let n = emu.container_count();
    let occupied: Vec<usize> = (0..n)
        .map(|i| emu.daemon(i).expect("daemon up").interner_stats().0)
        .collect();
    assert!(
        occupied.iter().any(|&d| d > 0),
        "converged ring should intern at least one attribute set"
    );

    for i in 0..n {
        emu.control(i, Input::WithdrawOrigin(origin_prefix(i)));
    }
    emu.run_until_quiet(usize::MAX);

    for i in 0..n {
        let daemon = emu.daemon_mut(i).expect("daemon up");
        assert_eq!(
            daemon.loc_rib().iter().count(),
            0,
            "node {i}: Loc-RIB must be empty after withdraw-all"
        );
        daemon.gc();
        let (distinct, hits, misses) = daemon.interner_stats();
        assert_eq!(
            distinct, 0,
            "node {i}: arena still holds {distinct} entries after withdraw-all + gc"
        );
        assert!(hits + misses > 0, "node {i}: interner was never consulted");
    }
}

#[test]
fn interning_ablation_is_digest_invariant_on_internet() {
    // The Fig. 2 ablation at the engine level: sharing attribute
    // allocations must be observationally invisible.
    let net = Internet::build(InternetConfig::small(4));
    let on = ScaleTopo::from_internet(&net, 5);
    let off = on.clone().without_interning();
    let a = on.run_engine_sequential(&[], SimTime::MAX);
    let b = off.run_engine_sequential(&[], SimTime::MAX);
    assert_eq!(a, b, "interning changed an engine-observable outcome");
}

#[test]
fn beacons_propagate_valley_free() {
    // Sanity on the Gao-Rexford wiring itself: with beacons originated
    // and the graph connected through providers, the run does real work
    // (sessions all handshake, updates flow) and quiesces.
    let net = Internet::build(InternetConfig::small(5));
    let topo = ScaleTopo::from_internet(&net, 4);
    let run = topo.run_engine_sequential(&[], SimTime::MAX);
    // Every session handshakes (2 OPENs + 2 KEEPALIVEs minimum), and
    // beacon updates propagate beyond that floor.
    let floor = 4 * topo.session_count() as u64;
    assert!(
        run.events > floor,
        "expected update propagation beyond handshakes: {} <= {floor}",
        run.events
    );
    let _ = Asn(0); // keep the import meaningful if assertions change
}
