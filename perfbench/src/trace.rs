//! The traced passes' instruments, attached from outside the engine through
//! its two seams: a timing decorator around every protocol instance
//! (`Simulation::with_factory`) and a clock-reading `Telemetry` observer
//! (`Simulation::with_telemetry`). Neither changes what the engine does, so
//! a traced pass reproduces the untraced `Report` exactly.

use std::cell::Cell;
use std::time::{Duration, Instant};
use vanet_core::{MediumStats, Position, ProtocolKind, Telemetry};
use vanet_net::Packet;
use vanet_routing::{Category, ProtocolContext, RoutingProtocol};
use vanet_sim::{NodeId, SimDuration, SimTime};

/// Time spent inside protocol callbacks, by callback.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutingSpans {
    /// Callbacks made.
    pub calls: u64,
    /// Time in `originate`.
    pub originate: Duration,
    /// Time in `on_packet`.
    pub on_packet: Duration,
    /// Time in `on_tick`.
    pub on_tick: Duration,
    /// Time in `on_neighbor_lost`.
    pub on_neighbor_lost: Duration,
}

impl RoutingSpans {
    /// Total callback time (the routing layer's self time: callbacks only
    /// queue actions, so no engine work nests inside them).
    #[must_use]
    pub fn total(&self) -> Duration {
        self.originate + self.on_packet + self.on_tick + self.on_neighbor_lost
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &RoutingSpans) {
        self.calls += other.calls;
        self.originate += other.originate;
        self.on_packet += other.on_packet;
        self.on_tick += other.on_tick;
        self.on_neighbor_lost += other.on_neighbor_lost;
    }
}

thread_local! {
    /// Spans of the simulations run on this thread since the last
    /// [`take_routing_spans`]. Thread-local so the decorator stays `Send`
    /// without paying for atomics on every callback.
    static SPANS: Cell<RoutingSpans> = Cell::new(RoutingSpans::default());
}

/// Returns and resets this thread's accumulated routing spans.
pub fn take_routing_spans() -> RoutingSpans {
    SPANS.with(|s| s.replace(RoutingSpans::default()))
}

fn record(start: Instant, slot: fn(&mut RoutingSpans) -> &mut Duration) {
    let elapsed = start.elapsed();
    SPANS.with(|s| {
        let mut spans = s.get();
        spans.calls += 1;
        *slot(&mut spans) += elapsed;
        s.set(spans);
    });
}

/// Forwards every callback to the wrapped protocol and times it.
#[derive(Debug)]
pub struct TimedProtocol(Box<dyn RoutingProtocol + Send>);

impl RoutingProtocol for TimedProtocol {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn category(&self) -> Category {
        self.0.category()
    }

    fn beacon_interval(&self) -> Option<SimDuration> {
        self.0.beacon_interval()
    }

    fn originate(&mut self, ctx: &mut ProtocolContext<'_>, packet: Packet) {
        let start = Instant::now();
        self.0.originate(ctx, packet);
        record(start, |s| &mut s.originate);
    }

    fn on_packet(&mut self, ctx: &mut ProtocolContext<'_>, packet: &Packet, overheard: bool) {
        let start = Instant::now();
        self.0.on_packet(ctx, packet, overheard);
        record(start, |s| &mut s.on_packet);
    }

    fn on_tick(&mut self, ctx: &mut ProtocolContext<'_>) {
        let start = Instant::now();
        self.0.on_tick(ctx);
        record(start, |s| &mut s.on_tick);
    }

    fn on_neighbor_lost(&mut self, ctx: &mut ProtocolContext<'_>, neighbor: NodeId) {
        let start = Instant::now();
        self.0.on_neighbor_lost(ctx, neighbor);
        record(start, |s| &mut s.on_neighbor_lost);
    }
}

/// A protocol factory producing timed instances of `kind`, built exactly as
/// `Simulation::new` builds them.
pub fn timed_factory(
    kind: ProtocolKind,
    scenario: &vanet_core::Scenario,
) -> impl Fn() -> Box<dyn RoutingProtocol + Send> {
    let dtn = scenario.dtn;
    move || Box::new(TimedProtocol(kind.build_with(dtn)))
}

/// A `Telemetry` observer that reads the clock at the hooks and counts the
/// neighbour and medium activity they report.
#[derive(Debug, Clone)]
pub struct ClockTap {
    event_start: Instant,
    /// Time between an arrival's `on_event` and its `on_receive` hook: the
    /// neighbour-arena refresh of the receiver (plus the hooks themselves).
    pub observe: Duration,
    /// Neighbours newly inserted.
    pub gained: u64,
    /// Neighbour leases expired.
    pub lost: u64,
    /// Final medium counters.
    pub medium: MediumStats,
}

impl Default for ClockTap {
    fn default() -> Self {
        ClockTap {
            event_start: Instant::now(),
            observe: Duration::ZERO,
            gained: 0,
            lost: 0,
            medium: MediumStats::default(),
        }
    }
}

impl Telemetry for ClockTap {
    fn on_event(&mut self, _now: SimTime, _medium: &MediumStats) {
        self.event_start = Instant::now();
    }

    fn on_receive(&mut self, _now: SimTime, _pos: Position) {
        self.observe += self.event_start.elapsed();
    }

    fn on_neighbor_gained(&mut self, _now: SimTime) {
        self.gained += 1;
    }

    fn on_neighbor_lost(&mut self, _now: SimTime, count: usize) {
        self.lost += count as u64;
    }

    fn on_finish(&mut self, _end: SimTime, medium: &MediumStats) {
        self.medium = medium.clone();
    }
}

impl ClockTap {
    /// Adds `other`'s totals into `self`.
    pub fn add(&mut self, other: &ClockTap) {
        self.observe += other.observe;
        self.gained += other.gained;
        self.lost += other.lost;
        for (total, part) in [
            (&mut self.medium.transmissions, other.medium.transmissions),
            (&mut self.medium.deliveries, other.medium.deliveries),
            (
                &mut self.medium.propagation_losses,
                other.medium.propagation_losses,
            ),
            (
                &mut self.medium.collision_losses,
                other.medium.collision_losses,
            ),
        ] {
            total.add(part.value());
        }
    }
}
