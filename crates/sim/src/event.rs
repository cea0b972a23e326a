//! The deterministic event queue.
//!
//! Events are ordered primarily by their firing time, and secondarily by a
//! monotonically increasing sequence number assigned at insertion. The
//! sequence number makes processing order deterministic when several events
//! share the same timestamp — essential for reproducible simulations where two
//! runs with the same seed must produce byte-identical results.

// lint: hot-path

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: the time, insertion sequence and payload. No per-entry
/// tag: an event, once pushed, always pops, so a 16-byte payload makes a
/// 32-byte entry.
#[derive(Debug, Clone)]
struct EventEntry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the earliest time pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timed events.
///
/// # Example
///
/// ```
/// use vanet_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(5.0), "late");
/// q.push(SimTime::from_secs(5.0), "late-too, but inserted second");
/// q.push(SimTime::from_secs(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "late");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Number of events in the queue.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.push_with_seq(time, seq, event);
    }

    /// Schedules `event` at `time` with a caller-assigned tie-break sequence
    /// number. Used by [`Scheduler`](crate::Scheduler), which shares one
    /// sequence counter between this heap and its batched timer wheel so that
    /// the merged pop order is identical to a single queue's.
    ///
    /// `seq` must be strictly larger than any sequence number already used,
    /// or same-time ordering becomes unspecified.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        self.next_seq = self.next_seq.max(seq + 1);
        self.heap.push(EventEntry { time, seq, event });
    }

    /// Returns the `(time, seq)` key of the next event without removing it —
    /// the key the scheduler merges against its timer wheel and calendar.
    #[must_use]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Removes and returns the next event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), 3);
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(1.0), 1);
        q.push(SimTime::from_secs(2.0), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn entry_carries_no_tag_beyond_its_key() {
        // The simulation's `Event` is 16 bytes; with the 8-byte time and
        // 8-byte seq that makes 32 bytes a heap entry, leaving no room for a tag.
        assert_eq!(std::mem::size_of::<EventEntry<[u64; 2]>>(), 32);
    }
}
