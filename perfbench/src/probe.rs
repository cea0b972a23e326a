//! Public-API probes of the beacon-plane layers on a workload's own
//! scenario, seed and geometry: mobility, the spatial grid and the medium.

use std::hint::black_box;
use std::time::{Duration, Instant};
use vanet_core::{ChannelModel, Scenario};
use vanet_net::{
    LogNormalShadowing, Medium, MediumConfig, Packet, PacketKind, PropagationModel, SpatialGrid,
    UnitDisk,
};
use vanet_sim::{NodeId, SimDuration, SimRng, SimTime};

/// Totals of one or more probes (sums, so several scenarios add up).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeTotals {
    /// Time in `MobilityModel::step` over the scenario's duration.
    pub mobility_step: Duration,
    /// Time of one `SpatialGrid::build` over the initial positions.
    pub grid_build: Duration,
    /// Time in `SpatialGrid::update` feeding every step's moved nodes.
    pub grid_update: Duration,
    /// `SpatialGrid::update` calls made.
    pub grid_updates: u64,
    /// Time of one `candidates_within_scratch` query at every node.
    pub grid_query: Duration,
    /// Queries made.
    pub grid_queries: u64,
    /// Time of one Hello per node through `Medium::transmit_indexed_into`.
    pub medium_transmit: Duration,
    /// Hellos transmitted.
    pub medium_transmits: u64,
}

impl ProbeTotals {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &ProbeTotals) {
        self.mobility_step += other.mobility_step;
        self.grid_build += other.grid_build;
        self.grid_update += other.grid_update;
        self.grid_updates += other.grid_updates;
        self.grid_query += other.grid_query;
        self.grid_queries += other.grid_queries;
        self.medium_transmit += other.medium_transmit;
        self.medium_transmits += other.medium_transmits;
    }
}

/// The propagation model the engine builds for `scenario`.
fn propagation(scenario: &Scenario) -> Box<dyn PropagationModel + Send> {
    match scenario.channel {
        ChannelModel::UnitDisk => Box::new(UnitDisk::new(scenario.radio_range_m)),
        ChannelModel::Shadowing { alpha, sigma_db } => Box::new(LogNormalShadowing::new(
            scenario.radio_range_m,
            alpha,
            sigma_db,
        )),
    }
}

/// Probes `scenario` with the engine's own mobility stream
/// (`SimRng::new(seed).derive("mobility")`), so the positions are the ones
/// the simulation sees.
#[must_use]
pub fn probe(scenario: &Scenario) -> ProbeTotals {
    let mut totals = ProbeTotals::default();
    let master = SimRng::new(scenario.seed);
    let mut mobility_rng = master.derive("mobility");
    let mut model = scenario.build_mobility(&mut mobility_rng);
    let mut positions: Vec<(NodeId, vanet_core::Position)> =
        model.states().iter().map(|s| (s.id, s.position)).collect();
    let propagation = propagation(scenario);
    let cell_m = propagation.max_range();

    let start = Instant::now();
    let mut grid = SpatialGrid::build(cell_m, &positions);
    totals.grid_build = start.elapsed();

    let steps = (scenario.duration.as_secs() / scenario.mobility_step.as_secs()).floor() as usize;
    for _ in 0..steps {
        let start = Instant::now();
        model.step(scenario.mobility_step, &mut mobility_rng);
        let stepped = Instant::now();
        for state in model.states() {
            let slot = &mut positions[state.id.index()];
            if slot.1 != state.position {
                grid.update(state.id, slot.1, state.position);
                slot.1 = state.position;
                totals.grid_updates += 1;
            }
        }
        totals.mobility_step += stepped - start;
        totals.grid_update += stepped.elapsed();
    }

    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for &(_, pos) in &positions {
        grid.candidates_within_scratch(pos, cell_m, &mut out, &mut scratch);
        black_box(out.len());
    }
    totals.grid_query = start.elapsed();
    totals.grid_queries = positions.len() as u64;

    // One beacon round: every node sends a Hello, spread evenly over one
    // beacon interval as the jittered beacon timers spread them in a run.
    let mut medium = Medium::new(
        MediumConfig {
            mac: scenario.mac,
            promiscuous: true,
        },
        propagation,
    );
    let mut medium_rng = master.derive("medium");
    let spacing = 1.0 / positions.len().max(1) as f64;
    let base = SimTime::ZERO + SimDuration::from_secs(scenario.duration.as_secs());
    let mut deliveries = Vec::new();
    let start = Instant::now();
    for (i, state) in model.states().iter().enumerate() {
        let now = base + SimDuration::from_secs(i as f64 * spacing);
        let mut hello = Packet::broadcast(state.id, PacketKind::Hello, 0);
        hello.created_at = now;
        hello.sender_position = Some(state.position);
        hello.sender_velocity = Some(state.velocity);
        medium.transmit_indexed_into(
            now,
            state.id,
            state.position,
            &hello,
            &grid,
            &mut medium_rng,
            &mut deliveries,
        );
        black_box(deliveries.len());
    }
    totals.medium_transmit = start.elapsed();
    totals.medium_transmits = positions.len() as u64;
    totals
}
