//! The engines' pending events: one bucket per delivery time.
//!
//! Link delays take few distinct values (every delay of the full preset
//! is 10 ms plus a multiple of 250 µs), so thousands of pending events
//! share each delivery time. A bucket is sorted once, when it opens, and
//! then drained from its end: that streams through memory, where a
//! binary heap of the same events sifts through cache misses on every
//! pop. The pop order is the heap's exactly, `(time, from, seq)`.

use super::SimEvent;
use crate::time::SimTime;
use std::collections::BTreeMap;

/// An engine's pending events, popped in `(time, from, seq)` order.
///
/// Events wait in one unsorted bucket per delivery time; a bucket is
/// sorted once, when it becomes the open one, and drained from its end.
/// Every event in `now` is at or before `open`, and every key of
/// `later` is after it, so the open bucket always holds the minimum.
pub(super) struct Calendar<M> {
    /// One bucket per delivery time after `open`, in arrival order.
    later: BTreeMap<SimTime, Vec<SimEvent<M>>>,
    /// The open bucket, sorted by `SimEvent`'s reversed order: the next
    /// event to pop is the last.
    now: Vec<SimEvent<M>>,
    /// Delivery time of the bucket most recently opened.
    open: SimTime,
}

impl<M> Calendar<M> {
    pub(super) fn new() -> Self {
        Calendar {
            later: BTreeMap::new(),
            now: Vec::new(),
            open: SimTime::ZERO,
        }
    }

    /// Schedule `ev`. An event at or before the open time (a zero-delay
    /// send) goes straight into the open bucket at its sorted place.
    pub(super) fn push(&mut self, ev: SimEvent<M>) {
        if ev.time <= self.open {
            let at = self.now.partition_point(|e| *e < ev);
            self.now.insert(at, ev);
        } else {
            self.later.entry(ev.time).or_default().push(ev);
        }
    }

    /// Remove and return the earliest event, opening the next bucket
    /// when the open one is empty.
    pub(super) fn pop(&mut self) -> Option<SimEvent<M>> {
        if self.now.is_empty() {
            let (time, mut bucket) = self.later.pop_first()?;
            bucket.sort_unstable();
            self.open = time;
            self.now = bucket;
        }
        self.now.pop()
    }

    /// Delivery time of the earliest pending event, if any.
    pub(super) fn peek_time(&self) -> Option<SimTime> {
        match self.now.last() {
            Some(ev) => Some(ev.time),
            None => self.later.first_key_value().map(|(&t, _)| t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;
    use crate::transport::NodeId;
    use std::collections::BinaryHeap;

    /// `Calendar` pops exactly what a binary heap of the same events
    /// pops, under random interleavings of push, pop and peek: bursts of
    /// sources at one time, zero-delay pushes at the open time, and
    /// pushes before it.
    #[test]
    fn calendar_pops_like_a_binary_heap() {
        let key = |ev: &SimEvent<u64>| (ev.time, ev.from, ev.seq, ev.to, ev.msg);
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            let mut calendar: Calendar<u64> = Calendar::new();
            let mut heap: BinaryHeap<SimEvent<u64>> = BinaryHeap::new();
            let mut seqs = [0u64; 6];
            let mut last = SimTime::ZERO;
            let mut ids = 0u64;
            for step in 0..2_000 {
                let time = match rng.below(8) {
                    // A few distinct delays, as link delays are: many
                    // events share each delivery time.
                    0..=2 => last + SimDuration::from_micros(250 * rng.below(4)),
                    3 => calendar.open,
                    4 => SimTime::from_micros(calendar.open.as_micros().saturating_sub(1)),
                    _ => {
                        let popped = calendar.pop().map(|ev| key(&ev));
                        assert_eq!(
                            popped,
                            heap.pop().map(|ev| key(&ev)),
                            "seed {seed} step {step}"
                        );
                        if let Some((t, ..)) = popped {
                            last = t;
                        }
                        assert_eq!(calendar.peek_time(), heap.peek().map(|e| e.time));
                        continue;
                    }
                };
                for _ in 0..=rng.below(3) {
                    let from = rng.index(seqs.len());
                    let ev = || SimEvent {
                        time,
                        from: NodeId(from as u32),
                        seq: seqs[from],
                        to: NodeId((ids % 7) as u32),
                        msg: ids,
                    };
                    calendar.push(ev());
                    heap.push(ev());
                    seqs[from] += 1;
                    ids += 1;
                }
                assert_eq!(calendar.peek_time(), heap.peek().map(|e| e.time));
            }
            while let Some(ev) = heap.pop() {
                assert_eq!(
                    calendar.pop().map(|e| key(&e)),
                    Some(key(&ev)),
                    "seed {seed} drain"
                );
            }
            assert!(calendar.pop().is_none() && calendar.peek_time().is_none());
        }
    }
}
