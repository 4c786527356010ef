//! The timed event queue behind [`MsgNet`](crate::transport::MsgNet).
//!
//! Events are `(time, payload)` pairs popped in non-decreasing time order.
//! Ties are broken by insertion order (FIFO), which keeps the simulation
//! deterministic regardless of how the underlying heap reorders equal keys.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A monotonic, FIFO-stable priority queue of timed events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedule `payload` at `time`.
    ///
    /// Scheduling in the past (before the last popped event) is clamped to
    /// the current simulation time, preserving monotonicity: an event can
    /// never be delivered before one that has already been processed.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let time = time.max(self.last_popped);
        self.heap.push(Entry {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Remove and return the earliest event, advancing the internal clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.last_popped);
        self.last_popped = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events (the clock is not rewound).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        // Scheduling before t=10 now clamps to t=10.
        q.push(SimTime::from_secs(1), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(e, "early");
    }

    #[test]
    fn peek_and_len() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), 1);
        q.push(SimTime::from_millis(3), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_secs(2), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    fn interleaved_push_pop_stays_monotonic() {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        q.push(SimTime::from_millis(10), 0u32);
        for i in 1..50u32 {
            let (t, _) = q.pop().unwrap();
            assert!(t >= last);
            last = t;
            q.push(t + SimDuration::from_millis(u64::from(i % 7)), i);
        }
    }
}
