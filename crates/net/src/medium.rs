//! The shared wireless medium.
//!
//! [`Medium::transmit`] is the single entry point through which every frame in
//! the simulation travels. Given the sender, its position, the packet and the
//! current positions of all nodes, it decides who receives a copy and when,
//! applying the propagation model, the contention/collision model and — for
//! unicast frames — the intended-receiver filter.
//!
//! The collision draw of every candidate receiver needs the number of
//! in-window transmissions within interference range of it. Each
//! transmission snapshots the relevant window once, as two dense coordinate
//! arrays (`snapshot_xs`/`snapshot_ys`), and every count is one branch-free
//! pass of [`WithinFilter::count`] over them. Its band rule keeps the counts
//! exact: a squared distance at most `range²·(1 − 1e-9)` counts, one at
//! least `range²·(1 + 1e-9)` does not, and if any entry lies between (or is
//! NaN) the pass is redone with the per-point [`WithinFilter::check`], which
//! settles those entries with `hypot`, so each count equals the number of
//! entries with `distance(p, c) <= range`.

// lint: hot-path

use crate::channel::PropagationModel;
use crate::mac::MacParams;
use crate::packet::Packet;
use std::collections::{HashMap, VecDeque};
use vanet_mobility::geometry::{distance, within, WithinFilter};
use vanet_mobility::Position;
use vanet_sim::{Counter, NodeId, SimRng, SimTime};

/// Configuration of the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// MAC parameters.
    pub mac: MacParams,
    /// Whether unicast frames are also overheard by other nodes in range
    /// (promiscuous mode, used by implicit-acknowledgement schemes such as
    /// Biswas et al.).
    pub promiscuous: bool,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            mac: MacParams::default(),
            promiscuous: true,
        }
    }
}

/// One frame delivery produced by [`Medium::transmit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The node receiving the frame.
    pub receiver: NodeId,
    /// When the frame finishes arriving at the receiver.
    pub arrival: SimTime,
    /// Whether this receiver was the intended link-layer destination
    /// (`false` for frames merely overheard in promiscuous mode).
    pub intended: bool,
    /// Distance between sender and receiver at transmission time, metres.
    pub distance_m: f64,
}

/// Aggregate statistics collected by the medium.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MediumStats {
    /// Frames handed to the medium for transmission.
    pub transmissions: Counter,
    /// Total frame copies delivered to receivers.
    pub deliveries: Counter,
    /// Frame copies lost to propagation (out of range / fading).
    pub propagation_losses: Counter,
    /// Frame copies lost to collisions.
    pub collision_losses: Counter,
    /// Frame copies lost to an active fault overlay (jamming / burst loss).
    pub fault_losses: Counter,
    /// Total bytes handed to the medium (control + data).
    pub bytes_transmitted: Counter,
}

impl MediumStats {
    /// Counter-wise difference `self − earlier` (saturating at zero): the
    /// medium activity between two snapshots. Telemetry taps snapshot the
    /// stats at each window boundary and report the per-window delta as the
    /// channel-load record — frames on air, deliveries, losses by cause and
    /// bytes, all attributed to the window they happened in.
    #[must_use]
    pub fn since(&self, earlier: &MediumStats) -> MediumStats {
        let delta = |now: Counter, before: Counter| {
            let mut c = Counter::new();
            c.add(now.value().saturating_sub(before.value()));
            c
        };
        MediumStats {
            transmissions: delta(self.transmissions, earlier.transmissions),
            deliveries: delta(self.deliveries, earlier.deliveries),
            propagation_losses: delta(self.propagation_losses, earlier.propagation_losses),
            collision_losses: delta(self.collision_losses, earlier.collision_losses),
            fault_losses: delta(self.fault_losses, earlier.fault_losses),
            bytes_transmitted: delta(self.bytes_transmitted, earlier.bytes_transmitted),
        }
    }

    /// Fraction of candidate receptions lost to collisions.
    #[must_use]
    pub fn collision_rate(&self) -> f64 {
        let attempts = self.deliveries.value()
            + self.collision_losses.value()
            + self.propagation_losses.value();
        if attempts == 0 {
            0.0
        } else {
            self.collision_losses.value() as f64 / attempts as f64
        }
    }
}

/// A rectangular extra-loss overlay installed by the fault subsystem: while
/// active, receivers standing inside `min..=max` lose each frame copy with
/// probability `loss` (after propagation and collision have been resolved).
/// Zones are pre-registered at build time and merely toggled by fault events,
/// so the steady-state transmit path never allocates for them; when no zone
/// is active the delivery pipeline pays a single integer compare.
#[derive(Debug, Clone, Copy)]
struct FaultZone {
    min: Position,
    max: Position,
    loss: f64,
    active: bool,
}

impl FaultZone {
    #[inline]
    fn covers(&self, pos: Position) -> bool {
        pos.x >= self.min.x && pos.x <= self.max.x && pos.y >= self.min.y && pos.y <= self.max.y
    }
}

/// A coarse uniform-grid index over recent transmissions.
///
/// The interference pipeline needs "transmissions inside the contention
/// window near this point". A flat deque of every recent transmission made
/// that an O(fleet × rate) scan *per frame* — at 100k beaconing vehicles the
/// window holds thousands of entries and the scan dwarfed the rest of the
/// transmit path. Bucketing by position bounds each query to the 3×3 cells
/// around the point. Per-cell deques stay time-ordered (simulation time is
/// monotone), so pruning is a pop-front loop; queries re-apply the exact
/// time-window and banded-distance predicates, so the surviving set — and
/// therefore every interference *count* derived from it — is identical to
/// the flat scan's. Only counts ever leave this index, so the cell-by-cell
/// visit order is unobservable.
#[derive(Debug, Default)]
struct RecentIndex {
    cell_m: f64,
    // lint: allow(D1) — cells are read only by keyed 3×3-block lookup and
    // every query re-applies the exact time-window and distance predicates,
    // so only counts (and predicate-filtered coordinates, gathered into the
    // snapshot's `xs`/`ys` in the deterministic dx/dy block order, whose
    // order no count depends on) ever leave the map; pinned by
    // `recent_index_counts_match_a_flat_scan`.
    cells: HashMap<(i64, i64), VecDeque<(SimTime, Position)>>,
}

impl RecentIndex {
    /// (Re)initialises the index for `cell_m`-sized cells. Queries are valid
    /// for any radius up to `cell_m`.
    fn reset(&mut self, cell_m: f64) {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "recent-transmission cell size must be positive and finite"
        );
        self.cell_m = cell_m;
        self.cells.clear();
    }

    fn cell_of(&self, pos: Position) -> (i64, i64) {
        (
            (pos.x / self.cell_m).floor() as i64,
            (pos.y / self.cell_m).floor() as i64,
        )
    }

    /// Records a transmission and prunes that cell's entries older than
    /// `keep` (entries arrive in time order, so pruning is front-pops).
    fn push(&mut self, now: SimTime, pos: Position, keep: f64) {
        let cell = self.cells.entry(self.cell_of(pos)).or_default();
        while let Some((t, _)) = cell.front() {
            if now.saturating_since(*t).as_secs() > keep {
                cell.pop_front();
            } else {
                break;
            }
        }
        cell.push_back((now, pos));
    }

    /// Appends to `xs`/`ys` the coordinates of transmissions within `window`
    /// seconds before `now` and within `radius` of `center`.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size (the 3×3 block would miss
    /// entries further than one cell away).
    fn collect_window(
        &self,
        now: SimTime,
        center: Position,
        window: f64,
        radius: f64,
        xs: &mut Vec<f64>,
        ys: &mut Vec<f64>,
    ) {
        assert!(
            radius <= self.cell_m,
            "query radius {radius} exceeds recent-index cell size {}",
            self.cell_m
        );
        let filter = WithinFilter::new(radius);
        let (cx, cy) = self.cell_of(center);
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(cell) = self.cells.get(&(cx + dx, cy + dy)) {
                    // Entries are time-ordered: skip the stale prefix, then
                    // everything from the first in-window entry onward is in
                    // the window.
                    for &(t, p) in cell.iter().rev() {
                        if now.saturating_since(t).as_secs() > window {
                            break;
                        }
                        if filter.check(p, center) {
                            xs.push(p.x);
                            ys.push(p.y);
                        }
                    }
                }
            }
        }
    }

    /// Counts transmissions within `window` seconds before `now` and within
    /// `radius` of `center` — allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `radius` exceeds the cell size.
    fn count_window(&self, now: SimTime, center: Position, window: f64, radius: f64) -> usize {
        assert!(
            radius <= self.cell_m,
            "query radius {radius} exceeds recent-index cell size {}",
            self.cell_m
        );
        let filter = WithinFilter::new(radius);
        let (cx, cy) = self.cell_of(center);
        let mut count = 0;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(cell) = self.cells.get(&(cx + dx, cy + dy)) {
                    for &(t, p) in cell.iter().rev() {
                        if now.saturating_since(t).as_secs() > window {
                            break;
                        }
                        if filter.check(p, center) {
                            count += 1;
                        }
                    }
                }
            }
        }
        count
    }
}

/// The shared broadcast medium connecting all nodes.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    propagation: Box<dyn PropagationModel + Send>,
    /// Recent transmissions, spatially bucketed. Used for the interference
    /// snapshot and to estimate channel load.
    recent: RecentIndex,
    /// Positions of the transmissions inside the contention window at the
    /// time of the current frame, as two dense coordinate arrays (entry `i`
    /// is `(snapshot_xs[i], snapshot_ys[i])`). Snapshotted once per
    /// transmission so each interference count is one pass of
    /// [`WithinFilter::count`] over the in-window set: a branch-free scan of
    /// contiguous `f64`s instead of a re-filter of the `recent` index per
    /// candidate.
    snapshot_xs: Vec<f64>,
    /// The y coordinates of the snapshot; always as long as `snapshot_xs`.
    snapshot_ys: Vec<f64>,
    /// Reusable buffer for spatial-grid candidate queries.
    candidates: Vec<(NodeId, Position)>,
    /// Scratch buffer for the grid query's run merge.
    candidate_scratch: Vec<(NodeId, Position)>,
    /// Pre-registered fault overlay rectangles, toggled by fault events.
    fault_zones: Vec<FaultZone>,
    /// How many fault zones are currently active — the transmit path's only
    /// cost when faults are disabled is comparing this against zero.
    active_fault_zones: usize,
    stats: MediumStats,
}

impl Medium {
    /// Creates a medium with the given configuration and propagation model.
    #[must_use]
    pub fn new(config: MediumConfig, propagation: Box<dyn PropagationModel + Send>) -> Self {
        let mut recent = RecentIndex::default();
        recent.reset(Self::relevant_range(propagation.as_ref()));
        Medium {
            config,
            propagation,
            recent,
            // lint: allow(P1) — construction, once per simulation; these
            // buffers grow to steady-state size and are reused thereafter.
            snapshot_xs: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            snapshot_ys: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            candidates: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            candidate_scratch: Vec::new(),
            // lint: allow(P1) — construction, once per simulation.
            fault_zones: Vec::new(),
            active_fault_zones: 0,
            stats: MediumStats::default(),
        }
    }

    /// Registers a rectangular fault-overlay zone (inactive until toggled)
    /// and returns its slot for [`Medium::set_fault_zone_active`]. Zones are
    /// registered once at simulation build time, so the delivery pipeline
    /// iterates a pre-sized, allocation-free vector.
    pub fn add_fault_zone(&mut self, min: Position, max: Position, loss: f64) -> usize {
        self.fault_zones.push(FaultZone {
            min,
            max,
            loss,
            active: false,
        });
        self.fault_zones.len() - 1
    }

    /// Activates or deactivates a registered fault zone.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not returned by [`Medium::add_fault_zone`].
    pub fn set_fault_zone_active(&mut self, slot: usize, active: bool) {
        let zone = &mut self.fault_zones[slot];
        if zone.active != active {
            zone.active = active;
            if active {
                self.active_fault_zones += 1;
            } else {
                self.active_fault_zones -= 1;
            }
        }
    }

    /// Number of currently active fault zones.
    #[must_use]
    pub fn active_fault_zone_count(&self) -> usize {
        self.active_fault_zones
    }

    /// Pre-sizes the per-transmission scratch buffers for a neighbourhood of
    /// `expected_candidates` nodes (the typical 3×3-cell grid query result).
    /// Purely a capacity hint — the buffers grow on demand regardless — but
    /// reserving up front means a fleet-scale run's first transmissions don't
    /// pay a reallocation ramp while the caches are already cold.
    pub fn reserve_for_neighborhood(&mut self, expected_candidates: usize) {
        self.candidates.reserve(expected_candidates);
        self.candidate_scratch.reserve(expected_candidates);
        self.snapshot_xs.reserve(expected_candidates);
        self.snapshot_ys.reserve(expected_candidates);
    }

    /// The largest distance at which a recent transmission can matter to any
    /// receiver of a frame: every receiver lies within `max_range` of the
    /// sender, interference reaches `2 × nominal_range`, and the extra metre
    /// of slack dwarfs any floating-point rounding. Doubles as the recent-
    /// index cell size, so 3×3-cell queries cover both the snapshot radius
    /// and the smaller `channel_load` radius.
    fn relevant_range(propagation: &(dyn PropagationModel + Send)) -> f64 {
        propagation.max_range() + propagation.nominal_range() * 2.0 + 1.0
    }

    /// The propagation model in use.
    #[must_use]
    pub fn propagation(&self) -> &(dyn PropagationModel + Send) {
        self.propagation.as_ref()
    }

    /// The medium configuration.
    #[must_use]
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MediumStats {
        &self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MediumStats::default();
    }

    /// Number of transmissions in the contention window around `now` within
    /// interference range (2× nominal range) of `position`.
    #[must_use]
    pub fn channel_load(&self, now: SimTime, position: Position) -> usize {
        let window = self.config.mac.contention_window_s;
        let interference_range = self.propagation.nominal_range() * 2.0;
        self.recent
            .count_window(now, position, window, interference_range)
    }

    /// Transmits `packet` from `sender` at `sender_pos` to every node in
    /// `nodes` (id, position) pairs, excluding the sender itself. Returns the
    /// successful deliveries; losses are recorded in [`MediumStats`].
    pub fn transmit(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        nodes: &[(NodeId, Position)],
        rng: &mut SimRng,
    ) -> Vec<Delivery> {
        // lint: allow(P1) — convenience form; the engine's warm path owns a
        // delivery buffer and calls the `_into` variants.
        let mut deliveries = Vec::new();
        self.begin_transmission(now, sender_pos, packet);
        self.deliver(now, sender, sender_pos, packet, nodes, rng, &mut deliveries);
        deliveries
    }

    /// Like [`Medium::transmit`], but takes the candidate receivers from a
    /// [`SpatialGrid`](crate::SpatialGrid) instead of scanning every node, so
    /// the cost scales with local density rather than total fleet size.
    ///
    /// The grid must be built with a cell size of at least
    /// [`PropagationModel::max_range`]. Candidates are processed in ascending
    /// node-id order — the same order `transmit` sees when its `nodes` slice
    /// is id-sorted — so both paths draw identically from `rng` and produce
    /// identical deliveries.
    pub fn transmit_indexed(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        grid: &crate::SpatialGrid,
        rng: &mut SimRng,
    ) -> Vec<Delivery> {
        // lint: allow(P1) — convenience form; warm-path callers reuse a
        // buffer via `transmit_indexed_into`.
        let mut deliveries = Vec::new();
        self.transmit_indexed_into(now, sender, sender_pos, packet, grid, rng, &mut deliveries);
        deliveries
    }

    /// The allocation-free form of [`Medium::transmit_indexed`]: clears `out`
    /// and fills it with this frame's deliveries. A driver that owns `out`
    /// and reuses it across calls pays no per-transmission heap allocation
    /// once the buffer has warmed up.
    #[allow(clippy::too_many_arguments)]
    pub fn transmit_indexed_into(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        grid: &crate::SpatialGrid,
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        out.clear();
        self.begin_transmission(now, sender_pos, packet);
        let mut candidates = std::mem::take(&mut self.candidates);
        let mut scratch = std::mem::take(&mut self.candidate_scratch);
        grid.candidates_within_scratch(
            sender_pos,
            self.propagation.max_range(),
            &mut candidates,
            &mut scratch,
        );
        self.deliver(now, sender, sender_pos, packet, &candidates, rng, out);
        candidates.clear();
        self.candidates = candidates;
        self.candidate_scratch = scratch;
    }

    /// Books the transmission into the contention window and the statistics,
    /// and snapshots the in-window transmission coordinates (including this
    /// frame's own) into `snapshot_xs`/`snapshot_ys` for the interference
    /// counts of the delivery pipeline.
    ///
    /// The snapshot keeps only entries that could possibly interfere at this
    /// frame's sender or any of its receivers: every receiver lies within
    /// `max_range` of the sender, so by the triangle inequality an entry
    /// further than `max_range + interference_range` from the sender is out
    /// of interference range of all of them (see [`Medium::relevant_range`]).
    /// The spatially-bucketed recent index serves that query from the 3×3
    /// cells around the sender instead of a scan of every in-window
    /// transmission in the fleet; the predicates are unchanged, so the
    /// snapshot multiset — and every count derived from it — is identical.
    fn begin_transmission(&mut self, now: SimTime, sender_pos: Position, packet: &Packet) {
        let keep = self.config.mac.contention_window_s * 4.0;
        self.recent.push(now, sender_pos, keep);
        self.stats.transmissions.incr();
        self.stats.bytes_transmitted.add(packet.size_bytes() as u64);
        let window = self.config.mac.contention_window_s;
        let relevant = Self::relevant_range(self.propagation.as_ref());
        self.snapshot_xs.clear();
        self.snapshot_ys.clear();
        self.recent.collect_window(
            now,
            sender_pos,
            window,
            relevant,
            &mut self.snapshot_xs,
            &mut self.snapshot_ys,
        );
    }

    /// Runs the propagation / contention / collision pipeline over the
    /// candidate receivers, in slice order, appending to `out`.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        now: SimTime,
        sender: NodeId,
        sender_pos: Position,
        packet: &Packet,
        nodes: &[(NodeId, Position)],
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        let interference = WithinFilter::new(self.propagation.nominal_range() * 2.0);
        let (xs, ys) = (&self.snapshot_xs[..], &self.snapshot_ys[..]);
        // `begin_transmission` has already pushed this frame into the window
        // (and the snapshot), so discount it when counting contenders.
        let contenders = interference.count(xs, ys, sender_pos).saturating_sub(1);
        let backoff = self.config.mac.sample_backoff(contenders, rng);
        let tx_delay = self.config.mac.transmission_delay(packet.size_bytes());
        let processing = vanet_sim::SimDuration::from_secs(self.config.mac.processing_delay_s);
        let range_filter = WithinFilter::new(self.propagation.max_range());

        for &(node, pos) in nodes {
            if node == sender {
                continue;
            }
            // Cheap banded reject first — a 3×3-cell candidate block holds
            // roughly twice as many nodes as the range circle, so most
            // candidates leave here without paying for an exact distance.
            if !range_filter.check(sender_pos, pos) {
                continue;
            }
            let d = distance(sender_pos, pos);
            // Unicast frames are only *delivered* to the intended next hop
            // unless promiscuous overhearing is enabled.
            let intended = match packet.next_hop {
                None => true,
                Some(h) => h == node,
            };
            if !intended && !self.config.promiscuous {
                continue;
            }
            if !self.propagation.sample_reception(d, rng) {
                self.stats.propagation_losses.incr();
                continue;
            }
            let interferers = interference.count(xs, ys, pos).saturating_sub(1);
            if !self.config.mac.sample_collision_survival(interferers, rng) {
                self.stats.collision_losses.incr();
                continue;
            }
            // Fault overlay: one combined-survival draw per candidate that
            // stands inside at least one active zone. With no active zones
            // this is a single integer compare and zero RNG draws, keeping
            // fault-free runs byte-identical.
            if self.active_fault_zones > 0 {
                let mut survive = 1.0;
                for zone in &self.fault_zones {
                    if zone.active && zone.covers(pos) {
                        survive *= 1.0 - zone.loss;
                    }
                }
                if survive < 1.0 && rng.uniform() >= survive {
                    self.stats.fault_losses.incr();
                    continue;
                }
            }
            let arrival =
                now + processing + backoff + tx_delay + self.config.mac.propagation_delay(d);
            self.stats.deliveries.incr();
            out.push(Delivery {
                receiver: node,
                arrival,
                intended,
                distance_m: d,
            });
        }
    }

    /// Whether two positions are within nominal communication range: the
    /// connectivity predicate used by protocols when they reason about links.
    #[must_use]
    pub fn in_range(&self, a: Position, b: Position) -> bool {
        within(a, b, self.propagation.nominal_range())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LogNormalShadowing, UnitDisk};
    use crate::packet::{Packet, PacketKind};
    use vanet_mobility::Vec2;

    fn nodes_on_a_line(count: usize, spacing: f64) -> Vec<(NodeId, Position)> {
        (0..count)
            .map(|i| (NodeId(i as u32), Vec2::new(i as f64 * spacing, 0.0)))
            .collect()
    }

    fn medium_unit_disk(range: f64) -> Medium {
        Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: true,
            },
            Box::new(UnitDisk::new(range)),
        )
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let mut m = medium_unit_disk(250.0);
        let nodes = nodes_on_a_line(5, 200.0); // 0,200,400,600,800
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(1);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let receivers: Vec<u32> = deliveries.iter().map(|d| d.receiver.0).collect();
        assert_eq!(receivers, vec![1], "only the 200 m neighbour is in range");
        assert_eq!(m.stats().transmissions.value(), 1);
        assert_eq!(m.stats().deliveries.value(), 1);
    }

    #[test]
    fn sender_never_receives_its_own_frame() {
        let mut m = medium_unit_disk(1_000.0);
        let nodes = nodes_on_a_line(3, 100.0);
        let pkt = Packet::broadcast(NodeId(1), PacketKind::Hello, 0);
        let mut rng = SimRng::new(2);
        let deliveries = m.transmit(
            SimTime::ZERO,
            NodeId(1),
            Vec2::new(100.0, 0.0),
            &pkt,
            &nodes,
            &mut rng,
        );
        assert!(deliveries.iter().all(|d| d.receiver != NodeId(1)));
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn unicast_marks_intended_receiver() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(3, 100.0);
        let mut pkt = Packet::data(NodeId(0), NodeId(2), 100);
        pkt.next_hop = Some(NodeId(1));
        let mut rng = SimRng::new(3);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let intended: Vec<u32> = deliveries
            .iter()
            .filter(|d| d.intended)
            .map(|d| d.receiver.0)
            .collect();
        assert_eq!(intended, vec![1]);
        // Promiscuous mode: node 2 overhears.
        assert!(deliveries
            .iter()
            .any(|d| d.receiver == NodeId(2) && !d.intended));
    }

    #[test]
    fn non_promiscuous_unicast_reaches_only_next_hop() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: false,
            },
            Box::new(UnitDisk::new(500.0)),
        );
        let nodes = nodes_on_a_line(3, 100.0);
        let mut pkt = Packet::data(NodeId(0), NodeId(2), 100);
        pkt.next_hop = Some(NodeId(1));
        let mut rng = SimRng::new(4);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].receiver, NodeId(1));
    }

    #[test]
    fn arrival_time_is_after_transmission_time() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(2, 100.0);
        let pkt = Packet::data(NodeId(0), NodeId(1), 1_000);
        let mut rng = SimRng::new(5);
        let now = SimTime::from_secs(10.0);
        let deliveries = m.transmit(now, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert!(deliveries[0].arrival > now);
        assert!((deliveries[0].arrival - now).as_secs() < 0.01);
    }

    #[test]
    fn channel_load_counts_recent_nearby_transmissions() {
        let mut m = Medium::new(MediumConfig::default(), Box::new(UnitDisk::new(250.0)));
        let nodes = nodes_on_a_line(2, 100.0);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(6);
        for _ in 0..5 {
            m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        }
        assert_eq!(m.channel_load(SimTime::ZERO, Vec2::ZERO), 5);
        // Far away, the same transmissions do not count.
        assert_eq!(m.channel_load(SimTime::ZERO, Vec2::new(10_000.0, 0.0)), 0);
        // Long after, they have been pruned from the window.
        assert_eq!(m.channel_load(SimTime::from_secs(10.0), Vec2::ZERO), 0);
    }

    #[test]
    fn collisions_increase_with_simultaneous_transmissions() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams {
                    collision_probability: 0.2,
                    ..MacParams::default()
                },
                promiscuous: true,
            },
            Box::new(UnitDisk::new(500.0)),
        );
        let nodes = nodes_on_a_line(30, 20.0);
        let mut rng = SimRng::new(7);
        // Every node broadcasts at the same instant: heavy contention.
        for i in 0..30u32 {
            let pkt = Packet::broadcast(NodeId(i), PacketKind::Hello, 64);
            let pos = Vec2::new(i as f64 * 20.0, 0.0);
            m.transmit(SimTime::ZERO, NodeId(i), pos, &pkt, &nodes, &mut rng);
        }
        assert!(
            m.stats().collision_losses.value() > 0,
            "synchronous broadcasts should collide"
        );
        assert!(m.stats().collision_rate() > 0.0);
    }

    #[test]
    fn shadowing_medium_delivers_probabilistically() {
        let mut m = Medium::new(
            MediumConfig {
                mac: MacParams::ideal(),
                promiscuous: true,
            },
            Box::new(LogNormalShadowing::new(250.0, 2.7, 4.0)),
        );
        let nodes = vec![(NodeId(1), Vec2::new(250.0, 0.0))];
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(8);
        let mut received = 0;
        let n = 2_000;
        for _ in 0..n {
            received += m
                .transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng)
                .len();
        }
        let freq = received as f64 / n as f64;
        assert!(
            (freq - 0.5).abs() < 0.05,
            "delivery frequency at nominal range should be ~0.5, got {freq}"
        );
        assert!(m.stats().propagation_losses.value() > 0);
    }

    #[test]
    fn in_range_uses_nominal_range() {
        let m = medium_unit_disk(250.0);
        assert!(m.in_range(Vec2::ZERO, Vec2::new(200.0, 0.0)));
        assert!(!m.in_range(Vec2::ZERO, Vec2::new(300.0, 0.0)));
    }

    #[test]
    fn fault_zone_drops_receivers_inside_it() {
        let mut m = medium_unit_disk(500.0);
        let nodes = nodes_on_a_line(3, 100.0); // at 0, 100, 200
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        // Total-loss zone covering only the node at x=200.
        let slot = m.add_fault_zone(Vec2::new(150.0, -10.0), Vec2::new(250.0, 10.0), 1.0);
        let mut rng = SimRng::new(11);

        // Inactive zone: both neighbours receive.
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 2);
        assert_eq!(m.stats().fault_losses.value(), 0);

        // Active zone: the covered receiver is lost, the other survives.
        m.set_fault_zone_active(slot, true);
        assert_eq!(m.active_fault_zone_count(), 1);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        let receivers: Vec<u32> = deliveries.iter().map(|d| d.receiver.0).collect();
        assert_eq!(receivers, vec![1]);
        assert_eq!(m.stats().fault_losses.value(), 1);

        // Deactivated again: back to both.
        m.set_fault_zone_active(slot, false);
        assert_eq!(m.active_fault_zone_count(), 0);
        let deliveries = m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn overlapping_fault_zones_compose_their_loss() {
        let mut m = medium_unit_disk(500.0);
        let nodes = vec![(NodeId(1), Vec2::new(100.0, 0.0))];
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let everywhere_min = Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        let everywhere_max = Vec2::new(f64::INFINITY, f64::INFINITY);
        let a = m.add_fault_zone(everywhere_min, everywhere_max, 0.5);
        let b = m.add_fault_zone(everywhere_min, everywhere_max, 0.5);
        m.set_fault_zone_active(a, true);
        m.set_fault_zone_active(b, true);
        let mut rng = SimRng::new(12);
        let n = 4_000;
        let mut received = 0;
        for _ in 0..n {
            received += m
                .transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng)
                .len();
        }
        // Two independent 50% zones compose to 25% survival.
        let freq = received as f64 / n as f64;
        assert!(
            (freq - 0.25).abs() < 0.05,
            "composed survival should be ~0.25, got {freq}"
        );
        assert_eq!(
            m.stats().fault_losses.value() + received as u64,
            n as u64,
            "every candidate is either delivered or counted as fault loss"
        );
    }

    #[test]
    fn inactive_zones_consume_no_rng() {
        // Identical RNG streams with and without registered-but-inactive
        // zones: the delivery sequence must match draw-for-draw.
        let nodes = nodes_on_a_line(5, 80.0);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut plain = medium_unit_disk(500.0);
        let mut with_zones = medium_unit_disk(500.0);
        with_zones.add_fault_zone(Vec2::ZERO, Vec2::new(1.0, 1.0), 1.0);
        let mut rng_a = SimRng::new(13);
        let mut rng_b = SimRng::new(13);
        for _ in 0..50 {
            let a = plain.transmit(
                SimTime::ZERO,
                NodeId(0),
                Vec2::ZERO,
                &pkt,
                &nodes,
                &mut rng_a,
            );
            let b = with_zones.transmit(
                SimTime::ZERO,
                NodeId(0),
                Vec2::ZERO,
                &pkt,
                &nodes,
                &mut rng_b,
            );
            assert_eq!(a, b);
        }
    }

    /// The order-insensitivity property behind the `RecentIndex` D1 allow:
    /// after a randomised stream of transmissions, both the window *counts*
    /// and the collected window positions equal a brute-force scan over a
    /// flat, insertion-ordered log — map order never reaches either.
    #[test]
    fn recent_index_counts_match_a_flat_scan() {
        let cell = 250.0;
        let keep = 2.0;
        let mut rng = SimRng::new(0x5eed);
        for case in 0..10 {
            let mut index = RecentIndex::default();
            index.reset(cell);
            let mut flat: Vec<(SimTime, Position)> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..400 {
                now += vanet_sim::SimDuration::from_secs(rng.uniform_range(0.0, 0.05));
                let pos = Vec2::new(
                    rng.uniform_range(-500.0, 1_500.0),
                    rng.uniform_range(-500.0, 1_500.0),
                );
                index.push(now, pos, keep);
                flat.push((now, pos));
            }
            for _ in 0..30 {
                let center = Vec2::new(
                    rng.uniform_range(-400.0, 1_400.0),
                    rng.uniform_range(-400.0, 1_400.0),
                );
                let window = rng.uniform_range(0.1, keep);
                let radius = rng.uniform_range(10.0, cell);
                let filter = WithinFilter::new(radius);
                let expected = flat
                    .iter()
                    .filter(|&&(t, p)| {
                        now.saturating_since(t).as_secs() <= window && filter.check(p, center)
                    })
                    .count();
                assert_eq!(
                    index.count_window(now, center, window, radius),
                    expected,
                    "case {case}: bucketed count diverged from the flat scan"
                );
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                index.collect_window(now, center, window, radius, &mut xs, &mut ys);
                assert_eq!(xs.len(), ys.len());
                assert_eq!(
                    xs.len(),
                    expected,
                    "case {case}: collected window size diverged from the flat scan"
                );
            }
        }
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = medium_unit_disk(250.0);
        let nodes = nodes_on_a_line(2, 100.0);
        let pkt = Packet::broadcast(NodeId(0), PacketKind::Hello, 0);
        let mut rng = SimRng::new(9);
        m.transmit(SimTime::ZERO, NodeId(0), Vec2::ZERO, &pkt, &nodes, &mut rng);
        assert!(m.stats().transmissions.value() > 0);
        m.reset_stats();
        assert_eq!(m.stats().transmissions.value(), 0);
    }
}
