//! The simulation driver: wires mobility, the wireless medium, the beaconing
//! service, application traffic and one routing-protocol instance per node,
//! and collects the metrics every experiment is built from.

use crate::fault::FaultKind;
use crate::metrics::{Metrics, Report};
use crate::scenario::{ChannelModel, Scenario};
use crate::taxonomy::ProtocolKind;
use crate::telemetry::{NoTelemetry, Telemetry};
use std::sync::Arc;
use vanet_mobility::{MobilityModel, Position, VehicleKind, VehicleState, Velocity};
use vanet_net::{
    ArenaTable, BeaconConfig, Delivery, LogNormalShadowing, Medium, MediumConfig, NeighborArena,
    Packet, PacketKind, SpatialGrid, UnitDisk,
};
use vanet_routing::{Action, ActionSink, ProtocolContext, RoutingProtocol, TableLocationService};
use vanet_sim::{FlowId, NodeId, PacketIdAllocator, Scheduler, SimDuration, SimRng, SimTime};

/// One constant-bit-rate application flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Flow identifier.
    pub id: FlowId,
    /// Source vehicle.
    pub source: NodeId,
    /// Destination vehicle.
    pub destination: NodeId,
}

/// Scheduler payload. Frames are behind `Arc` so a broadcast delivered to N
/// receivers schedules N refcount bumps instead of N deep packet clones, and
/// the heap entries stay a pointer wide.
#[derive(Debug)]
enum Event {
    MobilityStep,
    /// Per-node maintenance deadline (replaces the old fleet-wide `Tick`):
    /// lazy neighbour-lease purge, neighbour-count sample, `on_tick`. Rides
    /// the batched timer wheel like beacons do.
    Maintain(NodeId),
    Beacon(NodeId),
    FlowSend(usize),
    PacketArrival {
        receiver: NodeId,
        packet: Arc<Packet>,
        intended: bool,
    },
    BackboneArrival {
        receiver: NodeId,
        packet: Arc<Packet>,
    },
    /// A scheduled fault transition: index into the pre-built fault
    /// timeline. Fault transitions are first-class events riding the same
    /// `(time, seq)` discipline as everything else, so runs with a fault
    /// plan are deterministic across runs, workers and shards.
    Fault(usize),
}

/// One pre-resolved fault transition (what `Event::Fault` executes).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    /// Node's radio goes dark (vehicle or RSU outage begins).
    NodeDown(NodeId),
    /// Node's radio recovers.
    NodeUp(NodeId),
    /// A medium fault-overlay zone (jam / burst loss) activates.
    ZoneOn(usize),
    /// A medium fault-overlay zone deactivates.
    ZoneOff(usize),
    /// A chaos fault: panic the worker, deterministically.
    Poison,
}

/// Per-node control state. Kinematics live in the simulation's
/// structure-of-arrays (`states`/`positions`/`velocities`) and neighbour
/// entries in the shared [`NeighborArena`], so this stays a few dozen bytes
/// and the fleet's node array is cache-dense.
struct NodeRuntime {
    id: NodeId,
    protocol: Box<dyn RoutingProtocol + Send>,
    /// Handle into the fleet-shared neighbour arena.
    neighbors: ArenaTable,
    rng: SimRng,
}

/// A complete, runnable simulation of one scenario with one protocol.
///
/// Generic over a [`Telemetry`] tap; the default [`NoTelemetry`]
/// instantiation monomorphises every hook call to nothing, so the hot path
/// is untouched unless a tap is attached via
/// [`Simulation::with_telemetry`].
pub struct Simulation<T: Telemetry = NoTelemetry> {
    scenario: Scenario,
    mobility: Box<dyn MobilityModel + Send>,
    mobility_rng: SimRng,
    nodes: Vec<NodeRuntime>,
    /// Fleet-shared neighbour storage: every node's entries live in one
    /// contiguous slab of index-linked blocks instead of a `Vec` per node,
    /// so neighbour walks stay inside a few hot cache lines per node and
    /// start-up makes one allocation instead of a million.
    neighbor_arena: NeighborArena,
    /// Structure-of-arrays kinematics, indexed by `NodeId::index()`. The
    /// full per-node `VehicleState` backs protocol contexts; positions and
    /// velocities are mirrored in dense arrays so the transmit / grid /
    /// telemetry hot paths read 16-byte entries instead of striding over
    /// whole node runtimes.
    states: Vec<VehicleState>,
    positions: Vec<Position>,
    velocities: Vec<Velocity>,
    rsu_ids: Vec<NodeId>,
    bus_ids: Vec<NodeId>,
    medium: Medium,
    medium_rng: SimRng,
    /// Spatial index over current node positions. Built once at start-up and
    /// maintained incrementally: every mobility step feeds per-node position
    /// deltas into [`SpatialGrid::update`] (a full rebuild would only be
    /// needed if the cell size — the propagation model's maximum range —
    /// changed mid-run, which it never does).
    grid: SpatialGrid,
    scheduler: Scheduler<Event>,
    location: TableLocationService,
    packet_ids: PacketIdAllocator,
    metrics: Metrics,
    flows: Vec<Flow>,
    beacon_config: BeaconConfig,
    protocol_name: String,
    /// Reusable sink protocol callbacks push actions into.
    sink: ActionSink,
    /// Scratch buffer the sink is drained into (ping-ponged with the sink's
    /// own buffer, so draining allocates nothing in steady state).
    action_scratch: Vec<Action>,
    /// Reusable buffer for `Medium::transmit_indexed_into`.
    delivery_buf: Vec<Delivery>,
    /// Reusable buffer for expired-neighbour ids during a maintenance event
    /// (ping-ponged around `dispatch`, so purges allocate nothing).
    lost_scratch: Vec<NodeId>,
    /// Pre-resolved fault transitions, scheduled as `Event::Fault(index)`.
    fault_timeline: Vec<(SimTime, FaultAction)>,
    /// Per-node outage flag, indexed by `NodeId::index()`. Only consulted
    /// when `faults_enabled`, so fault-free runs pay one branch on a
    /// false bool per transmit/arrival.
    node_down: Vec<bool>,
    /// Whether the scenario has a non-empty fault plan.
    faults_enabled: bool,
    /// Streaming observation tap (zero-sized no-op by default).
    telemetry: T,
}

impl<T: Telemetry> std::fmt::Debug for Simulation<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("scenario", &self.scenario.name)
            .field("protocol", &self.protocol_name)
            .field("nodes", &self.nodes.len())
            .field("flows", &self.flows.len())
            .finish()
    }
}

impl Simulation {
    /// Builds a simulation of `scenario` where every node runs a fresh
    /// instance of `kind`.
    #[must_use]
    pub fn new(scenario: Scenario, kind: ProtocolKind) -> Self {
        let dtn = scenario.dtn;
        Self::with_factory(scenario, &move || kind.build_with(dtn))
    }

    /// Builds a simulation with a custom protocol factory (one call per node).
    #[must_use]
    pub fn with_factory(
        scenario: Scenario,
        factory: &dyn Fn() -> Box<dyn RoutingProtocol + Send>,
    ) -> Self {
        Self::build(scenario, &|| factory(), NoTelemetry)
    }
}

impl<T: Telemetry> Simulation<T> {
    /// Builds a simulation with a streaming telemetry tap attached. The
    /// event stream is identical to the untapped run — the tap only
    /// observes — so reports stay byte-identical with and without it.
    #[must_use]
    pub fn with_telemetry(scenario: Scenario, kind: ProtocolKind, telemetry: T) -> Self {
        let dtn = scenario.dtn;
        Self::build(scenario, &move || kind.build_with(dtn), telemetry)
    }

    fn build(
        scenario: Scenario,
        factory: &dyn Fn() -> Box<dyn RoutingProtocol + Send>,
        mut telemetry: T,
    ) -> Self {
        let master = SimRng::new(scenario.seed);
        let mut mobility_rng = master.derive("mobility");
        let medium_rng = master.derive("medium");
        let mut traffic_rng = master.derive("traffic");

        let mobility = scenario.build_mobility(&mut mobility_rng);
        let vehicle_states: Vec<VehicleState> = mobility.states().to_vec();
        let bounds = mobility.bounds();
        telemetry.on_start(bounds.min, bounds.max, scenario.duration);

        // Road-side units are placed evenly along the scenario's x extent.
        let vehicle_count = vehicle_states.len();
        let mut rsu_states = Vec::new();
        for i in 0..scenario.rsu_count {
            let frac = (i as f64 + 0.5) / scenario.rsu_count as f64;
            let pos = Position::new(bounds.min.x + frac * bounds.width(), bounds.center().y);
            rsu_states.push(VehicleState::stationary(
                NodeId((vehicle_count + i) as u32),
                VehicleKind::RoadSideUnit,
                pos,
            ));
        }

        let node_count = vehicle_count + rsu_states.len();
        let mut location = TableLocationService::new();
        let mut nodes = Vec::with_capacity(node_count);
        let mut states = Vec::with_capacity(node_count);
        let mut positions = Vec::with_capacity(node_count);
        let mut velocities = Vec::with_capacity(node_count);
        let mut rsu_ids = Vec::new();
        let mut bus_ids = Vec::new();
        for state in vehicle_states.iter().chain(rsu_states.iter()) {
            location.set(state.id, state.position, state.velocity);
            match state.kind {
                VehicleKind::RoadSideUnit => rsu_ids.push(state.id),
                VehicleKind::Bus => bus_ids.push(state.id),
                VehicleKind::Car => {}
            }
            nodes.push(NodeRuntime {
                id: state.id,
                protocol: factory(),
                neighbors: ArenaTable::new(),
                rng: master.derive_index("node", u64::from(state.id.0)),
            });
            states.push(*state);
            positions.push(state.position);
            velocities.push(state.velocity);
        }
        let protocol_name = nodes
            .first()
            .map(|n| n.protocol.name().to_owned())
            .unwrap_or_else(|| "none".to_owned());

        let propagation: Box<dyn vanet_net::PropagationModel + Send> = match scenario.channel {
            ChannelModel::UnitDisk => Box::new(UnitDisk::new(scenario.radio_range_m)),
            ChannelModel::Shadowing { alpha, sigma_db } => Box::new(LogNormalShadowing::new(
                scenario.radio_range_m,
                alpha,
                sigma_db,
            )),
        };
        let mut medium = Medium::new(
            MediumConfig {
                mac: scenario.mac,
                promiscuous: true,
            },
            propagation,
        );

        // Application flows between random distinct vehicle pairs.
        let mut flows = Vec::new();
        if vehicle_count >= 2 {
            for i in 0..scenario.flows {
                let src = traffic_rng.uniform_usize(vehicle_count);
                let mut dst = traffic_rng.uniform_usize(vehicle_count);
                while dst == src {
                    dst = traffic_rng.uniform_usize(vehicle_count);
                }
                flows.push(Flow {
                    id: FlowId(i as u32),
                    source: NodeId(src as u32),
                    destination: NodeId(dst as u32),
                });
            }
        }

        // Pre-size every hot-path container from the scenario itself, so a
        // megacity-scale start-up makes its big allocations once instead of
        // paying a reallocation ramp while the caches are cold. The expected
        // neighbourhood is the uniform-density estimate `density × π r²`,
        // capped at the fleet size.
        let max_range = medium.propagation().max_range();
        let area = (bounds.width() * bounds.height()).max(1.0);
        let expected_neighbors =
            ((node_count as f64 / area) * std::f64::consts::PI * max_range * max_range)
                .ceil()
                .min(node_count as f64);
        // A 3×3-cell grid query covers 9 r² ≈ 2.9 π r², so the candidate
        // buffers see roughly three neighbourhoods' worth of entries.
        let expected_candidates = (expected_neighbors * 3.0) as usize + 16;
        medium.reserve_for_neighborhood(expected_candidates);
        let neighbor_arena = NeighborArena::with_block_capacity(NeighborArena::blocks_for(
            node_count,
            expected_neighbors,
        ));

        // Resolve the fault plan into a concrete timeline: node ids for
        // outages, pre-registered medium overlay zones for jams and burst
        // loss. Out-of-range targets and transitions at/after the horizon
        // are dropped here, so the run loop never re-checks them. An empty
        // plan builds nothing — the engine is byte-identical to one without
        // fault support.
        let faults_enabled = !scenario.faults.is_empty();
        let mut fault_timeline: Vec<(SimTime, FaultAction)> = Vec::new();
        if faults_enabled {
            scenario
                .faults
                .validate()
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
            let horizon = SimTime::ZERO + scenario.duration;
            let regions = scenario.faults.regions_per_axis;
            let cell_w = bounds.width() / regions as f64;
            let cell_h = bounds.height() / regions as f64;
            for fault in &scenario.faults.faults {
                let transition = match fault.kind {
                    FaultKind::NodeOutage { node } => {
                        if (node as usize) < vehicle_count {
                            let id = NodeId(node);
                            Some((FaultAction::NodeDown(id), FaultAction::NodeUp(id)))
                        } else {
                            None
                        }
                    }
                    FaultKind::RsuOutage { rsu } => {
                        if (rsu as usize) < scenario.rsu_count {
                            let id = NodeId((vehicle_count + rsu as usize) as u32);
                            Some((FaultAction::NodeDown(id), FaultAction::NodeUp(id)))
                        } else {
                            None
                        }
                    }
                    FaultKind::Jam { region, loss } => {
                        let rx = region as usize % regions;
                        let ry = region as usize / regions;
                        let min = Position::new(
                            bounds.min.x + rx as f64 * cell_w,
                            bounds.min.y + ry as f64 * cell_h,
                        );
                        let max = Position::new(min.x + cell_w, min.y + cell_h);
                        let slot = medium.add_fault_zone(min, max, loss);
                        Some((FaultAction::ZoneOn(slot), FaultAction::ZoneOff(slot)))
                    }
                    FaultKind::BurstLoss { loss } => {
                        let everywhere = f64::INFINITY;
                        let slot = medium.add_fault_zone(
                            Position::new(-everywhere, -everywhere),
                            Position::new(everywhere, everywhere),
                            loss,
                        );
                        Some((FaultAction::ZoneOn(slot), FaultAction::ZoneOff(slot)))
                    }
                    // A poison never recovers, so the up action is never
                    // scheduled (its window end is infinite by construction).
                    FaultKind::Poison => Some((FaultAction::Poison, FaultAction::Poison)),
                };
                if let Some((down, up)) = transition {
                    let start = SimTime::ZERO + SimDuration::from_secs(fault.start_s);
                    if start < horizon {
                        fault_timeline.push((start, down));
                        if fault.end_s.is_finite() {
                            let end = SimTime::ZERO + SimDuration::from_secs(fault.end_s);
                            if end < horizon {
                                fault_timeline.push((end, up));
                            }
                        }
                    }
                }
            }
        }

        let mut sim = Simulation {
            scheduler: Scheduler::with_horizon(SimTime::ZERO + scenario.duration),
            scenario,
            mobility,
            mobility_rng,
            nodes,
            neighbor_arena,
            states,
            positions,
            velocities,
            rsu_ids,
            bus_ids,
            medium,
            medium_rng,
            grid: SpatialGrid::default(),
            location,
            packet_ids: PacketIdAllocator::new(),
            metrics: Metrics::new(),
            flows,
            beacon_config: BeaconConfig::default(),
            protocol_name,
            sink: ActionSink::with_capacity(32),
            action_scratch: Vec::with_capacity(32),
            delivery_buf: Vec::with_capacity(expected_neighbors as usize + 16),
            lost_scratch: Vec::with_capacity(64),
            fault_timeline,
            node_down: vec![false; node_count],
            faults_enabled,
            telemetry,
        };
        // Beacons and per-node maintenance deadlines go through the
        // scheduler's timer wheel: one slot per interval instead of one heap
        // entry per node.
        sim.scheduler.enable_batching(sim.beacon_config.interval);
        // Packet arrivals land a MAC processing + contention delay ahead of
        // now (sub-millisecond to a few tens of milliseconds), far denser
        // than the wheel's beacon intervals: they get the calendar-queue
        // tier — O(1) ring pushes instead of heap sifts. Anything beyond the
        // 64 ms window falls back to the heap with ordering unchanged. The
        // bucket width sits *below* the MAC's fixed processing + minimum
        // backoff delay (0.5 ms), so a new arrival always lands in a
        // not-yet-activated bucket and the sorted-splice slow path for
        // already-activated buckets never runs in steady state.
        sim.scheduler
            .enable_calendar(SimDuration::from_secs(0.000_25), 256);
        sim.build_grid();
        sim.schedule_initial_events(&mut traffic_rng);
        sim
    }

    /// Builds the spatial index from the current node positions — once, at
    /// start-up; mobility steps keep it current via [`SpatialGrid::update`].
    /// Node ids ascend in `nodes` order, so grid queries (which sort by id)
    /// candidate nodes in exactly the order the old exhaustive scan visited
    /// them.
    fn build_grid(&mut self) {
        let positions: Vec<(NodeId, Position)> = self
            .positions
            .iter()
            .enumerate()
            .map(|(i, &pos)| (NodeId(i as u32), pos))
            .collect();
        self.grid = SpatialGrid::build(self.medium.propagation().max_range(), &positions);
    }

    fn schedule_initial_events(&mut self, traffic_rng: &mut SimRng) {
        self.scheduler
            .schedule_after(self.scenario.mobility_step, Event::MobilityStep);
        // One maintenance deadline per node, scheduled in ascending node
        // order so same-timestamp wheel entries fire in exactly the order
        // the old fleet-wide `Tick` loop visited the nodes.
        for i in 0..self.nodes.len() {
            let id = self.nodes[i].id;
            self.scheduler
                .schedule_batched_after(self.scenario.tick_interval, Event::Maintain(id));
        }
        for i in 0..self.nodes.len() {
            if let Some(interval) = self.nodes[i].protocol.beacon_interval() {
                let jitter = interval * traffic_rng.uniform_range(0.0, 1.0);
                let id = self.nodes[i].id;
                self.scheduler
                    .schedule_batched_after(jitter, Event::Beacon(id));
            }
        }
        for (i, _flow) in self.flows.iter().enumerate() {
            let offset = self.scenario.warmup
                + self.scenario.packet_interval * traffic_rng.uniform_range(0.0, 1.0);
            self.scheduler.schedule_after(offset, Event::FlowSend(i));
        }
        // Fault transitions are scheduled last, and only for a non-empty
        // plan, so the sequence numbers of every other initial event — and
        // with them the entire fault-free event order — are unchanged.
        for index in 0..self.fault_timeline.len() {
            let (time, _) = self.fault_timeline[index];
            self.scheduler
                .schedule_at(time, Event::Fault(index))
                .expect("fault times are validated non-negative");
        }
    }

    /// The application flows generated for this run.
    #[must_use]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The ids of the road-side units.
    #[must_use]
    pub fn rsu_ids(&self) -> &[NodeId] {
        &self.rsu_ids
    }

    /// Total number of nodes (vehicles + RSUs).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of scheduler events processed so far (the workspace
    /// benchmark's like-with-like guard and events/sec denominator).
    #[must_use]
    pub fn processed_events(&self) -> u64 {
        self.scheduler.processed_events()
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(&mut self) -> Report {
        while let Some((now, event)) = self.scheduler.next_event() {
            self.telemetry.on_event(now, self.medium.stats());
            self.handle_event(now, event);
        }
        let end = SimTime::ZERO + self.scenario.duration;
        self.telemetry.on_finish(end, self.medium.stats());
        self.metrics
            .report(self.protocol_name.clone(), self.scenario.name.clone())
    }

    /// The attached telemetry tap.
    #[must_use]
    pub fn telemetry(&self) -> &T {
        &self.telemetry
    }

    /// Consumes the simulation and returns the tap (for flushing after
    /// [`Simulation::run`]).
    #[must_use]
    pub fn into_telemetry(self) -> T {
        self.telemetry
    }

    fn node_index(&self, id: NodeId) -> usize {
        id.index()
    }

    /// Whether `idx`'s radio is currently disabled by a scheduled fault.
    /// `faults_enabled` short-circuits first, so fault-free runs pay a
    /// single always-false branch.
    #[inline]
    fn node_is_down(&self, idx: usize) -> bool {
        self.faults_enabled && self.node_down[idx]
    }

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::MobilityStep => {
                self.mobility
                    .step(self.scenario.mobility_step, &mut self.mobility_rng);
                // Position deltas feed the spatial index directly — no
                // per-step position collect, no rebuild. RSUs are not part
                // of the mobility model and simply stay in their cells.
                for state in self.mobility.states() {
                    let idx = state.id.index();
                    let old_pos = self.positions[idx];
                    if old_pos != state.position {
                        self.grid.update(state.id, old_pos, state.position);
                    }
                    self.states[idx] = *state;
                    self.positions[idx] = state.position;
                    self.velocities[idx] = state.velocity;
                    self.location.set(state.id, state.position, state.velocity);
                }
                self.scheduler
                    .schedule_after(self.scenario.mobility_step, Event::MobilityStep);
            }
            Event::Maintain(node_id) => {
                // Per-node maintenance, byte-identical to one iteration of
                // the old fleet-wide `Tick` loop: lazy lease purge (an O(1)
                // deadline check for most nodes), the post-purge neighbour-
                // count sample, loss callbacks in ascending neighbour order,
                // then the protocol's periodic tick.
                let idx = self.node_index(node_id);
                let mut lost = std::mem::take(&mut self.lost_scratch);
                lost.clear();
                self.neighbor_arena
                    .purge_due(&mut self.nodes[idx].neighbors, now, &mut lost);
                if !lost.is_empty() {
                    self.telemetry.on_neighbor_lost(now, lost.len());
                }
                let count = self.nodes[idx].neighbors.len();
                self.metrics.record_neighbor_count(count);
                for &neighbor in &lost {
                    self.dispatch(idx, now, |p, ctx| p.on_neighbor_lost(ctx, neighbor));
                }
                self.lost_scratch = lost;
                self.dispatch(idx, now, |p, ctx| p.on_tick(ctx));
                self.scheduler
                    .schedule_batched_after(self.scenario.tick_interval, Event::Maintain(node_id));
            }
            Event::Beacon(node_id) => {
                let idx = self.node_index(node_id);
                let Some(interval) = self.nodes[idx].protocol.beacon_interval() else {
                    return;
                };
                let mut hello = Packet::broadcast(node_id, PacketKind::Hello, 0);
                hello.id = self.packet_ids.allocate();
                hello.created_at = now;
                hello.sender_position = Some(self.positions[idx]);
                hello.sender_velocity = Some(self.velocities[idx]);
                self.transmit(idx, now, hello);
                let jitter = 1.0
                    + self.beacon_config.jitter_fraction * (self.nodes[idx].rng.uniform() - 0.5);
                self.scheduler
                    .schedule_batched_after(interval * jitter, Event::Beacon(node_id));
            }
            Event::FlowSend(flow_idx) => {
                let flow = self.flows[flow_idx];
                let mut packet =
                    Packet::data(flow.source, flow.destination, self.scenario.payload_bytes);
                packet.id = self.packet_ids.allocate();
                packet.created_at = now;
                packet.flow = Some(flow.id);
                self.metrics.record_origination(packet.id, flow.source, now);
                self.telemetry.on_origination(now);
                let idx = self.node_index(flow.source);
                self.dispatch(idx, now, |p, ctx| p.originate(ctx, packet));
                self.scheduler
                    .schedule_after(self.scenario.packet_interval, Event::FlowSend(flow_idx));
            }
            Event::PacketArrival {
                receiver,
                packet,
                intended,
            } => {
                let idx = self.node_index(receiver);
                // A frame arriving at a node whose radio a fault disabled is
                // silently lost: no reception, no neighbour refresh — the
                // protocol only ever observes the outage as missing frames
                // and expiring neighbour leases.
                if self.node_is_down(idx) {
                    self.telemetry.on_fault_drop(now, self.positions[idx]);
                    return;
                }
                // Every received frame refreshes the neighbour entry for its
                // transmitter (overhearing counts as neighbour awareness).
                if let (Some(pos), Some(vel)) = (packet.sender_position, packet.sender_velocity) {
                    let lifetime = self.beacon_config.lifetime;
                    let gained = self.neighbor_arena.observe(
                        &mut self.nodes[idx].neighbors,
                        packet.prev_hop,
                        pos,
                        vel,
                        now,
                        lifetime,
                    );
                    if gained {
                        self.telemetry.on_neighbor_gained(now);
                    }
                }
                self.telemetry.on_receive(now, self.positions[idx]);
                if packet.kind == PacketKind::Hello {
                    return;
                }
                self.dispatch(idx, now, |p, ctx| p.on_packet(ctx, &packet, !intended));
            }
            Event::BackboneArrival { receiver, packet } => {
                let idx = self.node_index(receiver);
                if self.node_is_down(idx) {
                    self.telemetry.on_fault_drop(now, self.positions[idx]);
                    return;
                }
                self.dispatch(idx, now, |p, ctx| p.on_packet(ctx, &packet, false));
            }
            Event::Fault(index) => {
                let (_, action) = self.fault_timeline[index];
                match action {
                    FaultAction::NodeDown(id) => {
                        self.node_down[id.index()] = true;
                        self.telemetry.on_outage(now, true);
                    }
                    FaultAction::NodeUp(id) => {
                        self.node_down[id.index()] = false;
                        self.telemetry.on_outage(now, false);
                    }
                    FaultAction::ZoneOn(slot) => {
                        self.medium.set_fault_zone_active(slot, true);
                        self.telemetry.on_outage(now, true);
                    }
                    FaultAction::ZoneOff(slot) => {
                        self.medium.set_fault_zone_active(slot, false);
                        self.telemetry.on_outage(now, false);
                    }
                    FaultAction::Poison => {
                        panic!(
                            "poison fault fired at {:.3}s in scenario '{}'",
                            now.as_secs(),
                            self.scenario.name
                        );
                    }
                }
            }
        }
    }

    /// Runs one protocol callback with the shared [`ActionSink`] in the
    /// context, then carries out whatever the callback queued.
    fn dispatch<F>(&mut self, idx: usize, now: SimTime, f: F)
    where
        F: FnOnce(&mut (dyn RoutingProtocol + Send), &mut ProtocolContext<'_>),
    {
        debug_assert!(self.sink.is_empty(), "sink drained after every callback");
        let range_m = self.scenario.radio_range_m;
        let node = &mut self.nodes[idx];
        let mut ctx = ProtocolContext {
            node: node.id,
            now,
            state: &self.states[idx],
            neighbors: self.neighbor_arena.view(&node.neighbors),
            range_m,
            rsu_ids: &self.rsu_ids,
            bus_ids: &self.bus_ids,
            location: &self.location,
            rng: &mut node.rng,
            packet_ids: &mut self.packet_ids,
            actions: &mut self.sink,
        };
        f(node.protocol.as_mut(), &mut ctx);
        self.process_actions(idx, now);
    }

    fn transmit(&mut self, sender_idx: usize, now: SimTime, packet: Packet) {
        // A down radio transmits nothing: the frame vanishes before it
        // reaches the metrics or the medium, exactly as if the hardware
        // were powered off.
        if self.node_is_down(sender_idx) {
            self.telemetry
                .on_fault_drop(now, self.positions[sender_idx]);
            return;
        }
        self.metrics.record_transmission(
            packet.kind.name(),
            packet.size_bytes(),
            packet.is_control(),
        );
        let sender_id = self.nodes[sender_idx].id;
        let sender_pos = self.positions[sender_idx];
        self.telemetry
            .on_transmit(now, sender_pos, packet.size_bytes(), packet.is_control());
        let mut deliveries = std::mem::take(&mut self.delivery_buf);
        self.medium.transmit_indexed_into(
            now,
            sender_id,
            sender_pos,
            &packet,
            &self.grid,
            &mut self.medium_rng,
            &mut deliveries,
        );
        if !deliveries.is_empty() {
            // One shared frame for every receiver: N refcount bumps, not N
            // deep clones.
            let shared = Arc::new(packet);
            for d in &deliveries {
                self.scheduler
                    .schedule_at(
                        d.arrival,
                        Event::PacketArrival {
                            receiver: d.receiver,
                            packet: Arc::clone(&shared),
                            intended: d.intended,
                        },
                    )
                    .expect("arrival is never in the past");
            }
        }
        deliveries.clear();
        self.delivery_buf = deliveries;
    }

    fn is_rsu(&self, id: NodeId) -> bool {
        // `rsu_ids` ascends by construction (vehicles are numbered before
        // RSUs and both in id order), so membership is a binary search.
        self.rsu_ids.binary_search(&id).is_ok()
    }

    /// Drains the sink (ping-ponging its buffer with `action_scratch`, so no
    /// allocation in steady state) and executes the queued actions.
    fn process_actions(&mut self, node_idx: usize, now: SimTime) {
        if self.sink.is_empty() {
            return;
        }
        let mut actions = std::mem::take(&mut self.action_scratch);
        self.sink.swap_into(&mut actions);
        for action in actions.drain(..) {
            match action {
                Action::Transmit(packet) => {
                    let mut packet = packet;
                    if packet.id == vanet_sim::PacketId(0) && packet.is_control() {
                        packet.id = self.packet_ids.allocate();
                    }
                    self.transmit(node_idx, now, packet);
                }
                Action::Deliver(packet) => {
                    self.metrics.record_delivery(packet.id, packet.hops, now);
                    let delay_s = (now - packet.created_at).as_secs();
                    self.telemetry.on_delivery(now, delay_s);
                }
                Action::Drop { reason, .. } => {
                    self.metrics.record_drop(reason);
                    self.telemetry
                        .on_drop(now, self.positions[node_idx], reason);
                }
                Action::Bundle { op, occupancy } => {
                    self.metrics.record_bundle(op, occupancy);
                    self.telemetry.on_bundle(now, op, occupancy);
                }
                Action::BackboneSend { to, packet } => {
                    let from = self.nodes[node_idx].id;
                    // A down RSU is detached from the wired backbone too, so
                    // the send fails through the protocol's normal no-route
                    // path (short-circuit: fault-free runs check nothing;
                    // the is_rsu checks run first so `to` is known valid
                    // before its outage flag is read).
                    let backbone_ok = self.is_rsu(from)
                        && self.is_rsu(to)
                        && !self.node_is_down(node_idx)
                        && !self.node_is_down(self.node_index(to));
                    if backbone_ok {
                        self.metrics
                            .record_transmission("ISYNC", packet.size_bytes(), true);
                        self.scheduler.schedule_after(
                            self.scenario.backbone_latency,
                            Event::BackboneArrival {
                                receiver: to,
                                packet: Arc::new(packet),
                            },
                        );
                    } else {
                        self.metrics.record_drop(vanet_routing::DropReason::NoRoute);
                        self.telemetry.on_drop(
                            now,
                            self.positions[node_idx],
                            vanet_routing::DropReason::NoRoute,
                        );
                    }
                }
            }
        }
        self.action_scratch = actions;
    }
}

/// Convenience: runs `kind` on `scenario` and returns the report.
#[must_use]
pub fn run_scenario(scenario: Scenario, kind: ProtocolKind) -> Report {
    Simulation::new(scenario, kind).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use vanet_sim::SimDuration;

    fn quick_scenario(vehicles: usize, seed: u64) -> Scenario {
        Scenario::highway(vehicles)
            .with_seed(seed)
            .with_flows(3)
            .with_duration(SimDuration::from_secs(30.0))
    }

    #[test]
    fn aodv_delivers_on_a_dense_highway() {
        let report = run_scenario(quick_scenario(50, 7), ProtocolKind::Aodv);
        assert!(report.data_sent > 0, "flows must generate traffic");
        assert!(
            report.delivery_ratio > 0.3,
            "AODV should deliver a reasonable share on a well-connected highway, got {}",
            report.delivery_ratio
        );
        assert!(report.control_packets > 0);
        assert_eq!(report.protocol, "AODV");
    }

    #[test]
    fn flooding_delivers_but_with_much_higher_overhead_than_greedy() {
        let flood = run_scenario(quick_scenario(60, 1), ProtocolKind::Flooding);
        let greedy = run_scenario(quick_scenario(60, 1), ProtocolKind::Greedy);
        assert!(flood.delivery_ratio > 0.3);
        assert!(greedy.delivery_ratio > 0.2);
        assert!(
            flood.transmissions_per_delivered > greedy.transmissions_per_delivered,
            "flooding must cost more transmissions per delivery ({} vs {})",
            flood.transmissions_per_delivered,
            greedy.transmissions_per_delivered
        );
    }

    #[test]
    fn deterministic_replay_with_same_seed() {
        let a = run_scenario(quick_scenario(30, 7), ProtocolKind::Aodv);
        let b = run_scenario(quick_scenario(30, 7), ProtocolKind::Aodv);
        assert_eq!(a, b, "same seed must give identical reports");
        let c = run_scenario(quick_scenario(30, 8), ProtocolKind::Aodv);
        assert_ne!(a, c, "different seeds must give different reports");
    }

    #[test]
    fn rsus_are_added_as_nodes() {
        let sim = Simulation::new(quick_scenario(20, 5).with_rsus(4), ProtocolKind::Drr);
        assert_eq!(sim.node_count(), 24);
        assert_eq!(sim.rsu_ids().len(), 4);
        assert_eq!(sim.flows().len(), 3);
    }

    #[test]
    fn beaconing_protocols_report_neighbor_counts() {
        let mut sim = Simulation::new(quick_scenario(30, 6), ProtocolKind::Greedy);
        let report = sim.run();
        assert!(
            report.avg_neighbors > 0.5,
            "beaconing should populate neighbour tables, got {}",
            report.avg_neighbors
        );
    }
}
