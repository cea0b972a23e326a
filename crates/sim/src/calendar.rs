//! A fixed-bucket calendar queue for the near-future event tier (in-flight
//! packet arrivals).
//!
//! The [`TimerWheel`](crate::TimerWheel) batches *periodic* timers whose
//! deadlines sit a slot width or more apart; the few thousand sub-millisecond
//! in-flight arrivals between a transmission and its deliveries are a
//! different population: dense and very near future. Keeping them in the
//! binary heap costs `O(log Q)` pointer-chasing comparisons per arrival.
//! [`CalendarQueue`] instead hashes them into a fixed ring of
//! `buckets` buckets each `bucket` wide: scheduling is an `O(1)` push into a
//! contiguous vector, and a bucket is sorted once when the clock reaches it,
//! so the per-event cost is an amortised in-cache sort of one small bucket.
//!
//! Events beyond the ring's window (`buckets × bucket` ahead of the ring
//! base) are rejected by [`CalendarQueue::accepts`] and belong in the heap;
//! the scheduler's merge keeps fire order identical either way.
//!
//! Determinism: every entry carries the scheduler-wide `(time, seq)` key —
//! the same key the event heap and the timer wheel order by.
//! [`CalendarQueue::peek`] always exposes the smallest key in the ring, so
//! the scheduler's three-way merge pops events in exactly the order a single
//! heap would have, byte identical, including same-timestamp tie-breaks.

// lint: hot-path

use crate::time::{SimDuration, SimTime};

/// One calendar entry: the `(time, seq)` ordering key plus the payload.
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

/// A fixed-size calendar queue merged against the event heap and timer wheel
/// by `(time, seq)` key.
#[derive(Debug, Clone)]
pub struct CalendarQueue<E> {
    bucket_s: f64,
    /// Absolute bucket index anchoring the ring: `buckets[base % n]` is the
    /// next bucket to activate.
    base: i64,
    /// The ring. A bucket holds entries for exactly one absolute index at a
    /// time (pushes beyond the window are rejected, so a lap can never fold
    /// two generations into one bucket).
    buckets: Vec<Vec<Entry<E>>>,
    /// The activated bucket, sorted *descending* by key so the next entry to
    /// fire pops off the back in O(1).
    current: Vec<Entry<E>>,
    /// Pending entries across `buckets` and `current`.
    len: usize,
}

impl<E> CalendarQueue<E> {
    /// Creates a calendar with `buckets` ring buckets each `bucket` wide.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket` is positive and finite and `buckets > 0`.
    #[must_use]
    pub fn new(bucket: SimDuration, buckets: usize) -> Self {
        let bucket_s = bucket.as_secs();
        assert!(
            bucket_s.is_finite() && bucket_s > 0.0,
            "calendar bucket width must be positive and finite"
        );
        assert!(buckets > 0, "calendar needs at least one bucket");
        CalendarQueue {
            bucket_s,
            base: 0,
            // lint: allow(P1) — construction, once per queue; buckets are
            // recycled in place for the life of the run.
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            // lint: allow(P1) — construction, once per queue.
            current: Vec::new(),
            len: 0,
        }
    }

    fn bucket_index(&self, time: SimTime) -> i64 {
        (time.as_secs() / self.bucket_s).floor() as i64
    }

    fn ring_slot(&self, index: i64) -> usize {
        index.rem_euclid(self.buckets.len() as i64) as usize
    }

    /// Whether `time` falls inside the ring's current window. Anything later
    /// must go to the heap; the `(time, seq)` merge keeps order identical.
    #[must_use]
    pub fn accepts(&self, time: SimTime) -> bool {
        self.bucket_index(time) - self.base < self.buckets.len() as i64
    }

    /// Drags the ring base up to `now` while the calendar is empty, so an
    /// idle stretch does not leave the window anchored in the past (which
    /// would bounce every later near-future event to the heap). A no-op
    /// whenever entries are pending — the base then catches up by activating
    /// buckets in order, which is what keeps the pop order exact.
    pub fn reanchor(&mut self, now: SimTime) {
        if self.len == 0 {
            self.base = self.base.max(self.bucket_index(now));
        }
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
    ///
    /// Callers must check [`CalendarQueue::accepts`] first; in debug builds a
    /// push beyond the window panics (in release it would fold into an
    /// occupied ring bucket and corrupt the order).
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        self.len += 1;
        let idx = self.bucket_index(time);
        if idx < self.base {
            // The bucket is already activated (or the ring has advanced past
            // it): splice into the sorted remainder so ordering holds.
            let entry = Entry { time, seq, event };
            let key = entry.key();
            let pos = self.current.partition_point(|e| e.key() > key);
            self.current.insert(pos, entry);
            return;
        }
        debug_assert!(
            idx - self.base < self.buckets.len() as i64,
            "push beyond the calendar window; check accepts() first"
        );
        let slot = self.ring_slot(idx);
        self.buckets[slot].push(Entry { time, seq, event });
    }

    /// Activates ring buckets until `current` holds an entry or the calendar
    /// is drained. Capacity ping-pongs: the drained `current` vector is
    /// swapped back into the vacated ring slot so steady state allocates
    /// nothing.
    fn advance(&mut self) {
        while self.current.is_empty() {
            if self.len == 0 {
                return;
            }
            let slot = self.ring_slot(self.base);
            std::mem::swap(&mut self.buckets[slot], &mut self.current);
            self.base += 1;
            if !self.current.is_empty() {
                self.current
                    .sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
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

    fn cal() -> CalendarQueue<&'static str> {
        CalendarQueue::new(SimDuration::from_secs(0.001), 64)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut c = cal();
        c.push(t(0.0105), 3, "c");
        c.push(t(0.0002), 1, "a");
        c.push(t(0.0105), 2, "b");
        c.push(t(0.0041), 0, "z");
        let order: Vec<&str> = std::iter::from_fn(|| c.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "z", "b", "c"]);
        assert!(c.is_empty());
    }

    #[test]
    fn push_into_activated_bucket_keeps_order() {
        let mut c = cal();
        c.push(t(0.0002), 0, "first");
        c.push(t(0.0008), 1, "third");
        assert_eq!(c.pop().unwrap().1, "first");
        // Bucket 0 is activated and half-drained; a late arrival for it must
        // still fire in key order.
        c.push(t(0.0005), 2, "second");
        assert_eq!(c.pop().unwrap().1, "second");
        assert_eq!(c.pop().unwrap().1, "third");
    }

    #[test]
    fn rejects_times_beyond_the_window() {
        let c = cal();
        assert!(c.accepts(t(0.0)));
        assert!(c.accepts(t(0.063)));
        assert!(!c.accepts(t(0.064)), "64 × 1 ms window is exclusive");
        assert!(!c.accepts(t(5.0)));
    }

    #[test]
    fn ring_wraps_across_many_laps_without_mixing_generations() {
        let mut c = cal();
        let mut popped = Vec::new();
        // Push/pop far more entries than the ring has buckets, always within
        // the window of the moment, and check global sorted order.
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for lap in 0..10 {
            for i in 0..32 {
                let time = now + 0.001 * f64::from(i);
                c.reanchor(t(now));
                assert!(c.accepts(t(time)));
                c.push(t(time), seq, if lap % 2 == 0 { "even" } else { "odd" });
                seq += 1;
            }
            while let Some((time, _)) = c.pop() {
                popped.push((time, seq));
                now = time.as_secs();
            }
        }
        assert_eq!(popped.len(), 320);
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn reanchor_moves_an_idle_ring_forward() {
        let mut c = cal();
        c.push(t(0.001), 0, "early");
        assert_eq!(c.pop().unwrap().1, "early");
        // Idle gap far beyond the window: without reanchoring, a near-future
        // event would be rejected.
        assert!(!c.accepts(t(10.0)));
        c.reanchor(t(10.0));
        assert!(c.accepts(t(10.0005)));
        c.push(t(10.0005), 1, "late");
        assert_eq!(c.pop().unwrap().1, "late");
    }

    #[test]
    fn reanchor_is_a_noop_while_entries_are_pending() {
        let mut c = cal();
        c.push(t(0.0005), 0, "pending");
        c.reanchor(t(0.050));
        assert_eq!(c.pop().unwrap().1, "pending");
    }
}
