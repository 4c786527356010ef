//! Loom model checks for the parallel engine's shard barrier
//! ([`peering_netsim::EpochBarrier`]) and the cross-shard inbox pattern
//! it fences: a `Mutex<Vec<_>>` that senders append to and the owning
//! shard takes whole after the barrier.
//!
//! Compiled only under `--features loom`, which swaps the `sync` shim
//! from `std::sync` to loom's model-checked primitives. Under real loom
//! every interleaving of the spawned threads is explored; under the
//! offline stand-in a single interleaving runs, keeping the harness
//! exercised until the real dependency is available.
//!
//! Run with: `cargo test -p peering-netsim --features loom`
#![cfg(feature = "loom")]

use loom::sync::{Arc, Mutex};
use peering_netsim::EpochBarrier;
use std::sync::atomic::{AtomicU64, Ordering};

/// The barrier's decide closure runs exactly once per epoch, and every
/// party observes that epoch's value — in every interleaving of the
/// arrivals.
#[test]
fn barrier_decides_once_per_epoch_for_all_parties() {
    loom::model(|| {
        let barrier = Arc::new(EpochBarrier::<u64>::new(2));
        let decisions = Arc::new(AtomicU64::new(0));
        const ROUNDS: u64 = 3;
        let worker = |barrier: Arc<EpochBarrier<u64>>, decisions: Arc<AtomicU64>| {
            loom::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..ROUNDS {
                    let v =
                        barrier.arrive_and_decide(|| decisions.fetch_add(1, Ordering::SeqCst) + 1);
                    seen.push(v);
                }
                seen
            })
        };
        let ta = worker(barrier.clone(), decisions.clone());
        let tb = worker(barrier.clone(), decisions.clone());
        let sa = ta.join().expect("party a");
        let sb = tb.join().expect("party b");
        // One decision per epoch, and both parties agreed on each
        // epoch's value (epochs are totally ordered by the barrier).
        assert_eq!(decisions.load(Ordering::SeqCst), ROUNDS);
        assert_eq!(sa, sb, "parties must observe identical epoch values");
        assert_eq!(sa, vec![1, 2, 3]);
    });
}

/// The conservative-barrier invariant: a cross-shard event pushed
/// *before* the sender arrives at the barrier is always visible to the
/// destination shard *after* it passes the same epoch. No event
/// crosses the barrier early (the receiver never sees it before its
/// own arrival) and none is lost.
#[test]
fn cross_shard_event_never_crosses_barrier_early() {
    loom::model(|| {
        let inbox: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(EpochBarrier::<()>::new(2));

        let sender_inbox = inbox.clone();
        let sender_barrier = barrier.clone();
        let sender = loom::thread::spawn(move || {
            // Window [0, L): emit a cross-shard event for the *next*
            // window, then arrive.
            sender_inbox.lock().expect("inbox").push(7);
            sender_barrier.arrive_and_decide(|| ());
        });

        let receiver_inbox = inbox.clone();
        let receiver_barrier = barrier.clone();
        let receiver = loom::thread::spawn(move || {
            // Past the barrier, the sender's pre-arrival push must be
            // fully visible: conservative lookahead only works if the
            // inbox drain after the epoch sees every event for the
            // next window.
            receiver_barrier.arrive_and_decide(|| ());
            std::mem::take(&mut *receiver_inbox.lock().expect("inbox"))
        });

        sender.join().expect("sender");
        let drained = receiver.join().expect("receiver");
        assert_eq!(
            drained,
            vec![7],
            "event pushed before the barrier must be visible after it"
        );
    });
}

/// Multiple shards pushing into one destination inbox concurrently,
/// then a barrier, then the destination drains: every event survives
/// exactly once, regardless of push interleaving.
#[test]
fn no_lost_events_under_concurrent_shard_pushers() {
    loom::model(|| {
        let inbox: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(EpochBarrier::<()>::new(3));

        let spawn_pusher = |events: Vec<u32>| {
            let q = inbox.clone();
            let b = barrier.clone();
            loom::thread::spawn(move || {
                for payload in events {
                    q.lock().expect("inbox").push(payload);
                }
                b.arrive_and_decide(|| ());
            })
        };
        let p1 = spawn_pusher(vec![1, 2]);
        let p2 = spawn_pusher(vec![3]);

        let q = inbox.clone();
        let b = barrier.clone();
        let consumer = loom::thread::spawn(move || {
            b.arrive_and_decide(|| ());
            std::mem::take(&mut *q.lock().expect("inbox"))
        });

        p1.join().expect("pusher 1");
        p2.join().expect("pusher 2");
        let mut payloads = consumer.join().expect("consumer");
        payloads.sort_unstable();
        assert_eq!(payloads, vec![1, 2, 3], "no event lost, none duplicated");
    });
}
