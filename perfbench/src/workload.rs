//! The named workloads, the inputs each builds from its seed, and one
//! simulation run under each instrument.

use crate::trace::{take_routing_spans, timed_factory, ClockTap, RoutingSpans};
use std::time::{Duration, Instant};
use vanet_core::{CampaignPlan, ProtocolKind, Report, Scenario, Simulation, Telemetry};
use vanet_sim::SimDuration;

/// A benchmark workload (see `perfbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven family representatives on one dense, connected city.
    CityFamilies,
    /// Greedy on a 100k-vehicle city: the beacon and neighbour plane.
    MegacityBeacons,
    /// The Table-I sweep as a journaled, tapped campaign on the pool.
    Table1Campaign,
}

/// Vehicles in the `city-families` city.
pub const CITY_VEHICLES: usize = 400;
/// Simulated seconds per `city-families` run.
pub const CITY_SECONDS: f64 = 20.0;
/// Application flows in the `city-families` city.
pub const CITY_FLOWS: usize = 16;
/// Vehicles in the `megacity-beacons` city.
pub const MEGACITY_VEHICLES: usize = 100_000;
/// Simulated seconds of the `megacity-beacons` run.
pub const MEGACITY_SECONDS: f64 = 2.0;
/// Seconds before the `megacity-beacons` flows start sending (the
/// catalog's 2 s would leave a 2 s run without a single data packet).
pub const MEGACITY_WARMUP_SECONDS: f64 = 1.0;
/// `table1-campaign` highway populations: sparse, normal, congested.
pub const CAMPAIGN_POPULATIONS: [usize; 3] = [10, 40, 90];
/// Simulated seconds per `table1-campaign` job.
pub const CAMPAIGN_SECONDS: f64 = 20.0;
/// Flows per `table1-campaign` job.
pub const CAMPAIGN_FLOWS: usize = 4;
/// Seeds per `table1-campaign` cell.
pub const CAMPAIGN_SEEDS: usize = 10;
/// Pool workers of the `table1-campaign` runner.
pub const CAMPAIGN_WORKERS: usize = 2;

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// The fully seeded scenario.
    pub scenario: Scenario,
    /// The protocol every node runs.
    pub protocol: ProtocolKind,
}

impl Workload {
    /// Every workload, by name.
    pub const ALL: [(&'static str, Workload); 3] = [
        ("city-families", Workload::CityFamilies),
        ("megacity-beacons", Workload::MegacityBeacons),
        ("table1-campaign", Workload::Table1Campaign),
    ];

    /// The workload called `name`.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }

    /// The distinct scenarios the workload runs, seeded from `seed`.
    #[must_use]
    pub fn scenarios(self, seed: u64) -> Vec<Scenario> {
        match self {
            Workload::CityFamilies => vec![Scenario::urban(CITY_VEHICLES)
                .with_seed(seed)
                .with_flows(CITY_FLOWS)
                .with_duration(SimDuration::from_secs(CITY_SECONDS))],
            Workload::MegacityBeacons => vec![Scenario {
                warmup: SimDuration::from_secs(MEGACITY_WARMUP_SECONDS),
                ..Scenario::megacity(MEGACITY_VEHICLES)
                    .with_seed(seed)
                    .with_duration(SimDuration::from_secs(MEGACITY_SECONDS))
            }],
            // Cell seeds run `base..base + CAMPAIGN_SEEDS`, so consecutive
            // workload seeds share no job.
            Workload::Table1Campaign => CAMPAIGN_POPULATIONS
                .iter()
                .map(|&vehicles| {
                    Scenario::highway(vehicles)
                        .with_seed(seed.wrapping_mul(CAMPAIGN_SEEDS as u64))
                        .with_flows(CAMPAIGN_FLOWS)
                        .with_duration(SimDuration::from_secs(CAMPAIGN_SECONDS))
                })
                .collect(),
        }
    }

    /// The `table1-campaign` plan: every protocol on every population,
    /// `CAMPAIGN_SEEDS` seeds per cell.
    #[must_use]
    pub fn plan(seed: u64) -> CampaignPlan {
        let scenarios: Vec<(String, Scenario)> = Workload::Table1Campaign
            .scenarios(seed)
            .into_iter()
            .map(|s| (s.name.clone(), s))
            .collect();
        CampaignPlan::cross_product(
            "table1-campaign",
            &scenarios,
            &ProtocolKind::ALL,
            CAMPAIGN_SEEDS,
        )
    }

    /// The workload's simulations in run order.
    #[must_use]
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        match self {
            Workload::CityFamilies => {
                let scenario = self.scenarios(seed).remove(0);
                crate::registry::REPRESENTATIVES
                    .iter()
                    .map(|&(_, protocol)| Job {
                        scenario: scenario.clone(),
                        protocol,
                    })
                    .collect()
            }
            Workload::MegacityBeacons => vec![Job {
                scenario: self.scenarios(seed).remove(0),
                protocol: ProtocolKind::Greedy,
            }],
            Workload::Table1Campaign => Self::plan(seed)
                .initial_jobs()
                .into_iter()
                .map(|job| Job {
                    scenario: job.scenario,
                    protocol: job.protocol,
                })
                .collect(),
        }
    }
}

/// How a simulation is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    /// Untraced: `Simulation::new`.
    Plain,
    /// Every protocol instance wrapped in the timing decorator.
    Timed,
    /// The clock-reading `Telemetry` observer attached.
    Clock,
}

/// One finished simulation.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The run's report.
    pub report: Report,
    /// Scheduler events processed.
    pub events: u64,
    /// Host time to build the simulation.
    pub setup: Duration,
    /// Host time of `Simulation::run`.
    pub run: Duration,
    /// Callback spans (`Instrument::Timed` only).
    pub spans: RoutingSpans,
    /// Observer totals (`Instrument::Clock` only).
    pub tap: ClockTap,
}

fn drive<T: Telemetry>(build: impl FnOnce() -> Simulation<T>) -> (SimRun, T) {
    let start = Instant::now();
    let mut sim = build();
    let setup = start.elapsed();
    let start = Instant::now();
    let report = sim.run();
    let run = start.elapsed();
    let events = sim.processed_events();
    let run = SimRun {
        report,
        events,
        setup,
        run,
        spans: RoutingSpans::default(),
        tap: ClockTap::default(),
    };
    (run, sim.into_telemetry())
}

/// Builds and runs `job` under `instrument`.
#[must_use]
pub fn run_job(job: &Job, instrument: Instrument) -> SimRun {
    let scenario = job.scenario.clone();
    match instrument {
        Instrument::Plain => drive(|| Simulation::new(scenario, job.protocol)).0,
        Instrument::Timed => {
            let factory = timed_factory(job.protocol, &scenario);
            take_routing_spans();
            let (mut run, _) = drive(|| Simulation::with_factory(scenario, &factory));
            run.spans = take_routing_spans();
            run
        }
        Instrument::Clock => {
            let (mut run, tap) =
                drive(|| Simulation::with_telemetry(scenario, job.protocol, ClockTap::default()));
            run.tap = tap;
            run
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fingerprint;

    fn tiny_jobs() -> Vec<Job> {
        let scenario = Scenario::urban(40)
            .with_seed(3)
            .with_duration(SimDuration::from_secs(8.0));
        [
            ProtocolKind::Greedy,
            ProtocolKind::Aodv,
            ProtocolKind::Epidemic,
        ]
        .into_iter()
        .map(|protocol| Job {
            scenario: scenario.clone(),
            protocol,
        })
        .collect()
    }

    #[test]
    fn instruments_leave_reports_byte_identical() {
        for job in tiny_jobs() {
            let plain = run_job(&job, Instrument::Plain);
            assert!(plain.events > 0);
            for instrument in [Instrument::Timed, Instrument::Clock] {
                let traced = run_job(&job, instrument);
                assert_eq!(traced.events, plain.events, "{instrument:?}");
                assert_eq!(
                    format!("{:?}", traced.report),
                    format!("{:?}", plain.report),
                    "{instrument:?}"
                );
                assert_eq!(fingerprint([&traced.report]), fingerprint([&plain.report]));
            }
        }
    }

    #[test]
    fn attributed_spans_never_exceed_the_pass_wall_time() {
        for job in tiny_jobs() {
            let timed = run_job(&job, Instrument::Timed);
            assert!(timed.spans.calls > 0);
            assert!(timed.spans.total() <= timed.run, "{:?}", job.protocol);
            let clock = run_job(&job, Instrument::Clock);
            assert!(clock.tap.observe > Duration::ZERO);
            assert!(clock.tap.observe <= clock.run, "{:?}", job.protocol);
        }
    }

    #[test]
    fn workloads_round_trip_by_name_and_seed_their_inputs() {
        for (name, workload) in Workload::ALL {
            assert_eq!(Workload::parse(name), Some(workload));
            assert_eq!(workload.name(), name);
            let a = workload.scenarios(1);
            assert_eq!(a, workload.scenarios(1));
            assert_ne!(a, workload.scenarios(2));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(
            Workload::Table1Campaign.jobs(1).len(),
            CAMPAIGN_POPULATIONS.len() * ProtocolKind::ALL.len() * CAMPAIGN_SEEDS
        );
        assert_eq!(Workload::CityFamilies.jobs(1).len(), 7);
    }
}
