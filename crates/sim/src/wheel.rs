//! A bucketed deadline wheel for high-volume timers (beacons, per-node
//! maintenance deadlines, neighbour leases).
//!
//! A fleet of N periodically-firing nodes costs the binary-heap scheduler
//! `O(log Q)` per timer with `Q ≈ N` pending entries. [`TimerWheel`] instead
//! hashes timers into slots one period wide: scheduling is an `O(1)` push
//! into the slot's vector, and a slot is sorted once when the clock reaches
//! it. The wheel also keeps those N long-lived timers *out* of the main heap,
//! which shrinks every remaining heap operation.
//!
//! Originally the wheel only batched beacons; it is now a general deadline
//! wheel that any event type can ride. No deadline is ever revoked: periodic
//! timers re-arm themselves when they fire, and lease-style expiry is checked
//! lazily at those firings, so an entry is just its key and payload.
//!
//! Determinism: every entry carries the scheduler-wide `(time, seq)` key, the
//! same key the event heap orders by. [`TimerWheel::peek`] always exposes the
//! smallest key in the wheel, so the scheduler's two-way merge of wheel and
//! heap pops events in exactly the order a single queue would have — byte
//! identical, including same-timestamp tie-breaks.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One wheel entry: the `(time, seq)` ordering key plus the payload.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A timer wheel whose slots are `slot` wide, merged against the event heap
/// by `(time, seq)` key.
#[derive(Debug, Clone)]
pub struct TimerWheel<E> {
    slot_s: f64,
    /// Absolute slot index of `slots[0]` (the next slot to activate).
    base: i64,
    /// Future slots, unsorted.
    slots: VecDeque<Vec<Entry<E>>>,
    /// The activated slot, sorted *descending* by key so the next entry to
    /// fire pops off the back in O(1).
    current: Vec<Entry<E>>,
    /// Pending entries across `slots` and `current`.
    len: usize,
}

impl<E> TimerWheel<E> {
    /// Creates a wheel with `slot`-wide buckets.
    ///
    /// # Panics
    ///
    /// Panics unless `slot` is positive and finite.
    #[must_use]
    pub fn new(slot: SimDuration) -> Self {
        let slot_s = slot.as_secs();
        assert!(
            slot_s.is_finite() && slot_s > 0.0,
            "timer-wheel slot must be positive and finite"
        );
        TimerWheel {
            slot_s,
            base: 0,
            slots: VecDeque::new(),
            current: Vec::new(),
            len: 0,
        }
    }

    /// How many slots the wheel will allocate ahead of its base. Entries
    /// further out should live in the scheduler's heap instead (see
    /// [`TimerWheel::accepts`]); the merge by `(time, seq)` keeps order
    /// identical either way.
    pub const MAX_SLOTS_AHEAD: i64 = 4_096;

    fn slot_index(&self, time: SimTime) -> i64 {
        (time.as_secs() / self.slot_s).floor() as i64
    }

    /// Whether `time` is near enough for the wheel to bucket it without
    /// allocating an unbounded run of empty slots.
    #[must_use]
    pub fn accepts(&self, time: SimTime) -> bool {
        self.slot_index(time) - self.base < Self::MAX_SLOTS_AHEAD
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at `time` with ordering key `(time, seq)`.
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.len += 1;
        let entry = Entry { time, seq, event };
        let idx = self.slot_index(time);
        if idx < self.base {
            // The slot is already activated (or the wheel has advanced past
            // it): splice into the sorted remainder so ordering holds.
            let key = entry.key();
            let pos = self.current.partition_point(|e| e.key() > key);
            self.current.insert(pos, entry);
            return;
        }
        let offset = usize::try_from(idx - self.base).expect("slot offset fits usize");
        if offset >= self.slots.len() {
            self.slots.resize_with(offset + 1, Vec::new);
        }
        self.slots[offset].push(entry);
    }

    /// Activates slots until `current` holds an entry or the wheel is
    /// drained.
    fn advance(&mut self) {
        while self.current.is_empty() {
            let Some(mut slot) = self.slots.pop_front() else {
                return;
            };
            self.base += 1;
            if !slot.is_empty() {
                slot.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
                self.current = slot;
            }
        }
    }

    /// The `(time, seq)` key of the earliest pending entry.
    #[must_use]
    pub fn peek(&mut self) -> Option<(SimTime, u64)> {
        self.advance();
        self.current.last().map(Entry::key)
    }

    /// Removes and returns the earliest pending entry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.advance();
        let entry = self.current.pop()?;
        self.len -= 1;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(t(2.5), 3, "c");
        w.push(t(0.5), 1, "a");
        w.push(t(2.5), 2, "b");
        w.push(t(1.1), 0, "z");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "z", "b", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn push_into_activated_slot_keeps_order() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(t(0.2), 0, "first");
        w.push(t(0.8), 1, "third");
        assert_eq!(w.pop().unwrap().1, "first");
        // Slot 0 is activated and half-drained; a late arrival for it must
        // still fire in key order.
        w.push(t(0.5), 2, "second");
        assert_eq!(w.pop().unwrap().1, "second");
        assert_eq!(w.pop().unwrap().1, "third");
    }

    #[test]
    fn sparse_far_future_slots() {
        let mut w = TimerWheel::new(SimDuration::from_secs(1.0));
        w.push(t(100.0), 0, "far");
        w.push(t(3.0), 1, "near");
        assert_eq!(w.len(), 2);
        assert_eq!(w.peek(), Some((t(3.0), 1)));
        assert_eq!(w.pop().unwrap().1, "near");
        assert_eq!(w.pop().unwrap().1, "far");
        assert!(w.pop().is_none());
    }

    #[test]
    fn entry_carries_no_tag_beyond_its_key() {
        // The simulation's `Event` is 16 bytes; with the 8-byte time and
        // 8-byte seq that makes 32 bytes a wheel entry, leaving no room for a tag.
        assert_eq!(std::mem::size_of::<Entry<[u64; 2]>>(), 32);
    }
}
