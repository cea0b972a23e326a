//! Stress-tier checks for the zero-allocation event hot path: a 10k-vehicle
//! megacity smoke run (bounded wall-clock, pinned deterministic report) and
//! the determinism of the batched-beacon scheduler at scale, plus an ignored
//! 1M-vehicle tier whose event count is pinned.

use std::time::Instant;
use vanet_core::{ProtocolKind, Report, Scenario, Simulation};
use vanet_sim::SimDuration;

fn fingerprint(r: &Report) -> String {
    format!(
        "{}|sent={} dlvd={} dup={} pdr={:?} delay={:?} hops={:?} ctrl={} dtx={} drops={} nbr={:?}",
        r.protocol,
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.avg_hops,
        r.control_packets,
        r.data_transmissions,
        r.drops,
        r.avg_neighbors
    )
}

/// One simulated second of the full 10 000-vehicle megacity. The report pin
/// makes any nondeterminism (or behaviour change) in the hot path visible;
/// the wall-clock bound keeps the stress tier honest about throughput.
///
/// Regenerate the pin with:
/// `cargo test -p vanet-core --test hotpath -- --ignored --nocapture`
#[test]
fn megacity_10k_smoke_is_deterministic_and_bounded() {
    const PIN: &str = "Greedy|sent=14 dlvd=0 dup=0 pdr=0.0 delay=0.0 hops=0.0 ctrl=20025 dtx=56 drops=0 nbr=38.56545000000036";
    let started = Instant::now();
    let mut sim = Simulation::new(megacity_second(), ProtocolKind::Greedy);
    assert_eq!(sim.node_count(), 10_000);
    let report = sim.run();
    let wall = started.elapsed();
    assert!(
        sim.processed_events() > 100_000,
        "a megacity second must process serious event volume, got {}",
        sim.processed_events()
    );
    assert_eq!(
        fingerprint(&report),
        PIN,
        "10k-vehicle megacity report diverged from its pin"
    );
    // Generous bound (debug builds are ~10-20x slower than release); the
    // point is that the stress tier cannot silently become quadratic.
    assert!(
        wall.as_secs() < 300,
        "megacity smoke took {wall:?} — hot path has regressed badly"
    );
}

fn megacity_second() -> Scenario {
    let mut scenario = Scenario::megacity(10_000)
        .with_flows(8)
        .with_duration(SimDuration::from_secs(2.0));
    // Shrink the warm-up so application flows actually send within the
    // shortened horizon (the full megacity default is 2 s of warm-up).
    scenario.warmup = SimDuration::from_secs(0.5);
    scenario
}

#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    let report = Simulation::new(megacity_second(), ProtocolKind::Greedy).run();
    println!("PIN: {:?}", fingerprint(&report));
}

/// One simulated second of the 1 000 000-vehicle megacity under Greedy: the
/// whole 1M build (arena slab, SoA kinematics, calendar tier, pre-sized
/// grid) must complete, and its event count is pinned. About 4.3 GiB peak
/// RSS and over a minute in a release build, so it is ignored by default.
///
/// Run with:
/// `cargo test --release -p vanet-core --test hotpath -- --ignored megacity_1m`
#[test]
#[ignore = "1M vehicles: about 4.3 GiB and over a minute in release"]
fn megacity_1m_second_completes_with_pinned_event_count() {
    let scenario = Scenario::megacity(1_000_000).with_duration(SimDuration::from_secs(1.0));
    let mut sim = Simulation::new(scenario, ProtocolKind::Greedy);
    assert_eq!(sim.node_count(), 1_000_000);
    sim.run();
    assert_eq!(sim.processed_events(), 43_573_949);
}
