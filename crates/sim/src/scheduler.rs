//! The simulation scheduler: a clock plus an event queue.
//!
//! [`Scheduler`] is generic over the event payload type `E`. Its contract is
//! schedule, then pop in `(time, seq)` order: an event, once scheduled, fires.
//! Nothing is ever revoked, so no tier keeps tombstones and every entry is
//! just its key plus payload. The owning simulation drives it with a simple loop:
//!
//! ```
//! use vanet_sim::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_after(SimDuration::from_secs(1.0), Ev::Tick(1));
//! sched.schedule_after(SimDuration::from_secs(2.0), Ev::Tick(2));
//!
//! let mut fired = Vec::new();
//! while let Some((time, ev)) = sched.next_event() {
//!     match ev {
//!         Ev::Tick(n) => fired.push((time.as_secs(), n)),
//!     }
//! }
//! assert_eq!(fired, vec![(1.0, 1), (2.0, 2)]);
//! ```

use crate::calendar::CalendarQueue;
use crate::error::SimError;
use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimerWheel;

/// Which tier holds the next pending event (see [`Scheduler::peek_merged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Heap,
    Wheel,
    Calendar,
}

/// A discrete-event scheduler combining a clock, an event queue, an optional
/// batched timer wheel for high-volume periodic events, and an optional
/// calendar queue for dense near-future events (in-flight packet arrivals).
///
/// All three tiers share one sequence counter, and [`Scheduler::next_event`]
/// pops whichever holds the smallest `(time, seq)` key — so enabling
/// batching or the calendar never changes the order events fire in, only the
/// cost of scheduling them.
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    wheel: Option<TimerWheel<E>>,
    calendar: Option<CalendarQueue<E>>,
    seq: u64,
    processed: u64,
    horizon: Option<SimTime>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler with the clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            wheel: None,
            calendar: None,
            seq: 0,
            processed: 0,
            horizon: None,
        }
    }

    /// Creates a scheduler that refuses to advance past `horizon`.
    #[must_use]
    pub fn with_horizon(horizon: SimTime) -> Self {
        let mut s = Self::new();
        s.horizon = Some(horizon);
        s
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    #[must_use]
    pub fn processed_events(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
            + self.wheel.as_ref().map_or(0, TimerWheel::len)
            + self.calendar.as_ref().map_or(0, CalendarQueue::len)
    }

    /// Enables the batched timer wheel with `slot`-wide buckets. Call once,
    /// before the first [`Scheduler::schedule_batched_after`]; pick the slot
    /// close to the period of the batched events (e.g. the beacon interval).
    ///
    /// # Panics
    ///
    /// Panics unless `slot` is positive and finite.
    pub fn enable_batching(&mut self, slot: SimDuration) {
        if self.wheel.is_none() {
            self.wheel = Some(TimerWheel::new(slot));
        }
    }

    /// Enables the calendar-queue tier with `buckets` ring buckets each
    /// `bucket` wide. Once enabled, [`Scheduler::schedule_at`] and
    /// [`Scheduler::schedule_after`] route events landing inside the
    /// calendar's window (`buckets × bucket` ahead) through the ring instead
    /// of the heap; anything further out still goes to the heap. Fire order
    /// is identical either way — the calendar shares the scheduler-wide
    /// `(time, seq)` keys and `next_event` merges all tiers by that key.
    ///
    /// # Panics
    ///
    /// Panics unless `bucket` is positive and finite and `buckets > 0`.
    pub fn enable_calendar(&mut self, bucket: SimDuration, buckets: usize) {
        if self.calendar.is_none() {
            self.calendar = Some(CalendarQueue::new(bucket, buckets));
        }
    }

    /// Routes `(time, seq, event)` to the calendar when it is enabled and
    /// `time` is inside its window, to the heap otherwise.
    fn push_near(&mut self, time: SimTime, seq: u64, event: E) {
        if let Some(cal) = &mut self.calendar {
            cal.reanchor(self.now);
            if cal.accepts(time) {
                cal.push(time, seq, event);
                return;
            }
        }
        self.queue.push_with_seq(time, seq, event);
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ScheduledInPast`] if `time` is before the current
    /// clock value.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> Result<(), SimError> {
        if time < self.now {
            return Err(SimError::ScheduledInPast {
                now: self.now,
                requested: time,
            });
        }
        let seq = self.next_seq();
        self.push_near(time, seq, event);
        Ok(())
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let seq = self.next_seq();
        self.push_near(self.now + delay, seq, event);
    }

    /// Schedules an event `delay` after the current time through the batched
    /// timer wheel: an O(1) bucket push instead of a heap insertion. Intended
    /// for the per-node periodic timers (beacons) that would otherwise
    /// dominate the heap — i.e. events landing within a few slot widths of
    /// now. Falls back to the heap when batching is disabled or the delay is
    /// so far ahead that bucketing it would allocate a long run of empty
    /// slots ([`TimerWheel::MAX_SLOTS_AHEAD`]).
    ///
    /// Fire order is identical either way — the wheel shares the queue's
    /// sequence counter and `next_event` merges the two by `(time, seq)`.
    pub fn schedule_batched_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        let seq = self.next_seq();
        match &mut self.wheel {
            Some(wheel) if wheel.accepts(time) => wheel.push(time, seq, event),
            _ => self.queue.push_with_seq(time, seq, event),
        }
    }

    /// The `(time, seq)` key of the next pending event across the heap, the
    /// wheel and the calendar, plus which tier holds it. Seq keys are
    /// globally unique, so the three-way minimum is unambiguous.
    fn peek_merged(&mut self) -> Option<(SimTime, u64, Tier)> {
        let mut best: Option<(SimTime, u64, Tier)> =
            self.queue.peek_key().map(|(t, s)| (t, s, Tier::Heap));
        if let Some((t, s)) = self.wheel.as_mut().and_then(TimerWheel::peek) {
            if !best.is_some_and(|(bt, bs, _)| (bt, bs) <= (t, s)) {
                best = Some((t, s, Tier::Wheel));
            }
        }
        if let Some((t, s)) = self.calendar.as_mut().and_then(CalendarQueue::peek) {
            if !best.is_some_and(|(bt, bs, _)| (bt, bs) <= (t, s)) {
                best = Some((t, s, Tier::Calendar));
            }
        }
        best
    }

    /// Pops the next event and advances the clock to its time.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the configured horizon.
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        let (next_time, _, tier) = self.peek_merged()?;
        if let Some(h) = self.horizon {
            if next_time > h {
                return None;
            }
        }
        let (time, event) = match tier {
            Tier::Wheel => self.wheel.as_mut().expect("peek said wheel").pop()?,
            Tier::Calendar => self.calendar.as_mut().expect("peek said calendar").pop()?,
            Tier::Heap => self.queue.pop()?,
        };
        debug_assert!(
            time >= self.now,
            "event queue returned an event in the past"
        );
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        A,
        B,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut s = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(2.0), Ev::B);
        s.schedule_after(SimDuration::from_secs(1.0), Ev::A);
        assert_eq!(s.now(), SimTime::ZERO);
        let (t, e) = s.next_event().unwrap();
        assert_eq!(e, Ev::A);
        assert_eq!(t, SimTime::from_secs(1.0));
        assert_eq!(s.now(), t);
        let (t, e) = s.next_event().unwrap();
        assert_eq!(e, Ev::B);
        assert_eq!(s.now(), t);
        assert!(s.next_event().is_none());
        assert_eq!(s.processed_events(), 2);
    }

    #[test]
    fn scheduling_in_the_past_is_rejected() {
        let mut s = Scheduler::new();
        s.schedule_after(SimDuration::from_secs(5.0), Ev::A);
        s.next_event();
        let err = s.schedule_at(SimTime::from_secs(1.0), Ev::B).unwrap_err();
        assert!(matches!(err, SimError::ScheduledInPast { .. }));
    }

    #[test]
    fn horizon_stops_processing() {
        let mut s = Scheduler::with_horizon(SimTime::from_secs(1.5));
        s.schedule_after(SimDuration::from_secs(1.0), Ev::A);
        s.schedule_after(SimDuration::from_secs(2.0), Ev::B);
        assert!(s.next_event().is_some());
        assert!(
            s.next_event().is_none(),
            "event beyond horizon must not fire"
        );
        assert_eq!(s.pending_events(), 1);
    }

    #[test]
    fn batched_and_heap_events_fire_in_identical_merged_order() {
        // Interleave "beacon" (batched) and "arrival" (heap) events with
        // colliding timestamps; the pop order must equal a pure-heap
        // scheduler's, including same-time tie-breaks by scheduling order.
        let mut rng = crate::SimRng::new(42);
        let mut plan: Vec<(bool, f64)> = Vec::new();
        for _ in 0..500 {
            let batched = rng.chance(0.5);
            // Coarse timestamps force plenty of exact ties.
            let t = (rng.uniform_range(0.0, 20.0) * 4.0).round() / 4.0;
            plan.push((batched, t));
        }

        let mut plain: Scheduler<usize> = Scheduler::new();
        let mut wheeled: Scheduler<usize> = Scheduler::new();
        wheeled.enable_batching(SimDuration::from_secs(1.0));
        for (i, &(batched, t)) in plan.iter().enumerate() {
            let d = SimDuration::from_secs(t);
            plain.schedule_after(d, i);
            if batched {
                wheeled.schedule_batched_after(d, i);
            } else {
                wheeled.schedule_after(d, i);
            }
        }
        loop {
            let a = plain.next_event();
            let b = wheeled.next_event();
            assert_eq!(a, b, "merged pop order diverged");
            if a.is_none() {
                break;
            }
            // Re-schedule a fraction to exercise pushes into activated slots.
            if let Some((_, i)) = a {
                if i % 7 == 0 && plain.processed_events() < 700 {
                    let d = SimDuration::from_secs(0.3);
                    plain.schedule_after(d, i + 10_000);
                    wheeled.schedule_batched_after(d, i + 10_000);
                }
            }
        }
        assert_eq!(plain.processed_events(), wheeled.processed_events());
    }

    #[test]
    fn calendar_and_heap_events_fire_in_identical_merged_order() {
        // Randomized mix of near-future "arrivals" (inside the calendar
        // window), far-future events (heap fallback) and batched "beacons"
        // (wheel), with coarse timestamps forcing exact ties. The calendar-
        // enabled scheduler must pop in exactly the pure-heap order,
        // including same-time tie-breaks by scheduling order.
        let mut rng = crate::SimRng::new(7);
        let mut plain: Scheduler<usize> = Scheduler::new();
        let mut tiered: Scheduler<usize> = Scheduler::new();
        tiered.enable_batching(SimDuration::from_secs(1.0));
        tiered.enable_calendar(SimDuration::from_secs(0.001), 64);

        for i in 0..600 {
            let roll = rng.uniform_range(0.0, 1.0);
            let t = if roll < 0.6 {
                // Near-future arrival, quantised to force key collisions.
                (rng.uniform_range(0.0, 0.050) * 2_000.0).round() / 2_000.0
            } else {
                (rng.uniform_range(0.0, 5.0) * 4.0).round() / 4.0
            };
            let d = SimDuration::from_secs(t);
            // Every path consumes exactly one seq per event, so the two
            // schedulers' `(time, seq)` keys stay comparable.
            plain.schedule_after(d, i);
            if roll >= 0.9 {
                tiered.schedule_batched_after(d, i);
            } else {
                tiered.schedule_after(d, i);
            }
        }
        loop {
            let a = plain.next_event();
            let b = tiered.next_event();
            assert_eq!(a, b, "three-tier merged pop order diverged");
            if a.is_none() {
                break;
            }
            // Re-schedule a fraction from the current instant to exercise
            // pushes into the activated calendar bucket and ring wrap.
            if let Some((_, i)) = a {
                if i % 5 == 0 && plain.processed_events() < 900 {
                    let d = SimDuration::from_secs(0.0005);
                    plain.schedule_after(d, i + 10_000);
                    tiered.schedule_after(d, i + 10_000);
                }
            }
        }
        assert_eq!(plain.processed_events(), tiered.processed_events());
    }

    #[test]
    fn calendar_far_future_events_fall_back_to_heap_and_keep_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_calendar(SimDuration::from_secs(0.001), 64);
        // Beyond the 64 ms window: must ride the heap and still fire in
        // order against in-window calendar entries.
        s.schedule_after(SimDuration::from_secs(10.0), 2);
        s.schedule_after(SimDuration::from_secs(0.005), 1);
        assert_eq!(s.pending_events(), 2);
        assert_eq!(s.next_event().unwrap().1, 1);
        assert_eq!(s.next_event().unwrap().1, 2);
        // After the idle jump to t=10 the ring must have reanchored so
        // near-future events are accepted again (pure perf concern; order
        // would be right either way).
        s.schedule_after(SimDuration::from_secs(0.001), 3);
        assert_eq!(s.next_event().unwrap().1, 3);
    }

    #[test]
    fn far_future_batched_events_fall_back_to_heap_and_keep_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.enable_batching(SimDuration::from_secs(1.0));
        // An hour-scale timer on a 1 s wheel must not allocate thousands of
        // empty slots; it goes to the heap and still fires in order.
        s.schedule_batched_after(SimDuration::from_secs(100_000.0), 2);
        s.schedule_batched_after(SimDuration::from_secs(1.0), 1);
        assert_eq!(s.pending_events(), 2);
        assert_eq!(s.next_event().unwrap().1, 1);
        assert_eq!(s.next_event().unwrap().1, 2);
    }

    #[test]
    fn batching_without_enable_falls_back_to_heap() {
        let mut s: Scheduler<Ev> = Scheduler::new();
        s.schedule_batched_after(SimDuration::from_secs(1.0), Ev::A);
        assert_eq!(s.pending_events(), 1);
        assert_eq!(s.next_event().unwrap().1, Ev::A);
    }
}
