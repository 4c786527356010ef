//! The parallel-engine acceptance matrix (ISSUE 7): sequential vs.
//! sharded runs over ring, star, and generated-Internet topologies,
//! every shard count, asserting complete [`EngineRun`] equality —
//! event counts, quiescence times, every checkpoint digest, and the
//! final digest, bitwise.
//!
//! Plus the interner leak check: a full converge-then-withdraw-all
//! cycle must return every speaker's attribute arena to empty, and
//! neither one attribute table per engine shard nor disabling interning
//! entirely may change any digest.
//!
//! Every comparison above is between two runs of one spec; pinned runs
//! of generated Internets also hold the spec itself to fixed digests.

use peering_bgp::{digest_routes, Asn, Input};
use peering_netsim::{EngineRun, Fnv1a, ProfileConfig, SimDuration, SimTime};
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
fn shared_attribute_tables_are_digest_invariant_across_shards() {
    // The Fig. 2 ablation at the engine level: the speakers of a shard
    // share one attribute table, and sharing allocations across them
    // must be observationally invisible. Each run on shared tables, on
    // either engine and at every shard count (a table per shard), equals
    // the run in which every speaker allocates every set.
    let net = Internet::build(InternetConfig::small(4));
    let cks = spaced_checkpoints(HORIZON, 4);
    for beacons in [4, 16] {
        let on = ScaleTopo::from_internet(&net, beacons);
        let off = on.clone().without_interning();
        let reference = off.run_engine_sequential(&cks, SimTime::MAX);
        assert_eq!(
            on.run_engine_sequential(&cks, SimTime::MAX),
            reference,
            "{beacons} beacons: a shared table changed a sequential run"
        );
        for shards in SHARDS {
            assert_eq!(
                on.run_engine_parallel(shards, &cks, SimTime::MAX),
                reference,
                "{beacons} beacons: shared tables changed a {shards}-shard run"
            );
        }
    }
}

/// A pinned run: events, quiescence time (µs), the digests at 40, 80,
/// 120 and 160 ms, and the final digest.
fn pinned(events: u64, end_us: u64, digests: [u64; 4], last: u64) -> EngineRun {
    EngineRun {
        events,
        end_time: SimTime::from_micros(end_us),
        checkpoints: digests
            .iter()
            .enumerate()
            .map(|(k, &d)| (SimTime::from_millis(40 * (k as u64 + 1)), d))
            .collect(),
        final_digest: last,
    }
}

#[test]
fn generated_internet_runs_match_their_pinned_digests() {
    // The other tests compare one run of a spec with another run of the
    // same spec, so a spec that configured every session differently (a
    // role's local-pref, a policy, which side listens) would pass them
    // all. These runs are pinned instead: each converges through the
    // beacons' propagation, and the checkpoints fall inside it.
    let cks = spaced_checkpoints(SimTime::from_millis(160), 4);
    let small = ScaleTopo::from_internet(&Internet::build(InternetConfig::small(42)), 8);
    let expected = pinned(
        2_538,
        118_250,
        [
            13_106_396_526_580_010_433,
            13_962_563_739_758_691_394,
            15_473_204_741_827_499_375,
            15_473_204_741_827_499_375,
        ],
        15_473_204_741_827_499_375,
    );
    for shards in [1, 2, 4] {
        assert_eq!(
            small.run_engine_parallel(shards, &cks, SimTime::MAX),
            expected,
            "small preset, 8 beacons: the {shards}-shard run moved"
        );
    }
    let eval = ScaleTopo::from_internet(&Internet::build(InternetConfig::eval(42)), 24);
    let expected = pinned(
        353_542,
        156_500,
        [
            991_235_478_032_143_894,
            12_787_272_969_686_268_678,
            14_838_695_075_127_200_418,
            11_626_229_599_805_204_529,
        ],
        11_626_229_599_805_204_529,
    );
    assert_eq!(
        eval.run_engine_sequential(&cks, SimTime::MAX),
        expected,
        "eval preset, 24 beacons: the sequential run moved"
    );
    assert_eq!(
        eval.run_engine_parallel(2, &cks, SimTime::MAX),
        expected,
        "eval preset, 24 beacons: the 2-shard run moved"
    );
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
