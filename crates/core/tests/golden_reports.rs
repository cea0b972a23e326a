//! Golden per-protocol reports pinned against the pre-`ActionSink` engine.
//!
//! The hot-path refactor (protocol `ActionSink` API, `Arc`-shared frames,
//! scratch delivery buffers, batched beacon wheel) must not change a single
//! simulated outcome: for a fixed seed, every protocol has to produce a
//! byte-identical [`Report`]. The pins below were captured from the engine
//! *before* the refactor; any diff here means the refactor altered RNG
//! consumption or event ordering somewhere.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! cargo test -p vanet-core --test golden_reports -- --ignored --nocapture regenerate
//! ```

use vanet_core::{
    run_scenario, MediumStats, ProtocolKind, Report, Scenario, Simulation, Telemetry,
};
use vanet_sim::SimDuration;

/// The fixed scenario every protocol is pinned on: a 30-vehicle highway with
/// RSUs (exercises DRR's backbone) and buses (exercises the bus ferry).
fn golden_scenario() -> Scenario {
    Scenario::highway(30)
        .with_seed(7)
        .with_rsus(2)
        .with_buses(2)
        .with_flows(3)
        .with_duration(SimDuration::from_secs(30.0))
}

/// A compact, lossless fingerprint of a report. Floats are rendered with
/// `Debug` (shortest round-trip representation), so two fingerprints are
/// equal iff the reports are bit-identical.
fn fingerprint(r: &Report) -> String {
    format!(
        "{}|sent={} dlvd={} dup={} pdr={:?} delay={:?} maxdelay={:?} hops={:?} \
         ctrl={} ctrlB={} dtx={} rerr={} drops={} nbr={:?}",
        r.protocol,
        r.data_sent,
        r.data_delivered,
        r.duplicate_deliveries,
        r.delivery_ratio,
        r.avg_delay_s,
        r.max_delay_s,
        r.avg_hops,
        r.control_packets,
        r.control_bytes,
        r.data_transmissions,
        r.route_errors,
        r.drops,
        r.avg_neighbors
    )
}

/// Pinned fingerprints, one per `ProtocolKind` in `ALL` order.
/// Captured from the pre-refactor engine at seed 7.
const PINS: &[&str] = &[
    "Flooding|sent=75 dlvd=6 dup=0 pdr=0.08 delay=0.01046353144706528 maxdelay=0.012677419095819431 hops=5.0 ctrl=0 ctrlB=0 dtx=627 rerr=0 drops=1280 nbr=2.168750000000002",
    "Biswas|sent=75 dlvd=11 dup=0 pdr=0.14666666666666667 delay=1.0337708339644407 maxdelay=4.566312094358889 hops=5.727272727272727 ctrl=0 ctrlB=0 dtx=922 rerr=0 drops=1757 nbr=2.233333333333333",
    "AODV|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1320 ctrlB=43676 dtx=0 rerr=13 drops=635 nbr=3.813541666666667",
    "DSDV|sent=75 dlvd=3 dup=0 pdr=0.04 delay=0.008124698842881509 maxdelay=0.00848280756930464 hops=6.0 ctrl=480 ctrlB=61872 dtx=58 rerr=0 drops=65 nbr=3.214583333333332",
    "PBR|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1331 ctrlB=44176 dtx=0 rerr=16 drops=627 nbr=3.8135416666666644",
    "Taleb|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1071 ctrlB=34072 dtx=0 rerr=5 drops=257 nbr=3.809375000000001",
    "Abedi|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1319 ctrlB=43608 dtx=0 rerr=14 drops=636 nbr=3.813541666666667",
    "DRR|sent=75 dlvd=15 dup=0 pdr=0.2 delay=10.50042384368885 maxdelay=19.757498930173277 hops=3.0 ctrl=982 ctrlB=42424 dtx=195 rerr=0 drops=0 nbr=3.8020833333333313",
    "Bus|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=960 ctrlB=30720 dtx=25 rerr=0 drops=0 nbr=3.802083333333331",
    "Greedy|sent=75 dlvd=4 dup=0 pdr=0.05333333333333334 delay=0.11262254551842908 maxdelay=0.4234308530027473 hops=6.0 ctrl=960 ctrlB=30720 dtx=251 rerr=0 drops=0 nbr=3.8031250000000014",
    "Zone|sent=75 dlvd=7 dup=0 pdr=0.09333333333333334 delay=0.011501307937278325 maxdelay=0.014028192284975205 hops=5.142857142857143 ctrl=960 ctrlB=30720 dtx=623 rerr=0 drops=1255 nbr=3.814583333333338",
    "ROVER|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1320 ctrlB=43676 dtx=0 rerr=13 drops=635 nbr=3.813541666666667",
    "Yan|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1139 ctrlB=37692 dtx=0 rerr=0 drops=95 nbr=3.8031250000000023",
    "Yan-TBPSS|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=1139 ctrlB=37704 dtx=0 rerr=0 drops=96 nbr=3.807291666666665",
    "CAR|sent=75 dlvd=4 dup=0 pdr=0.05333333333333334 delay=0.11262254551842908 maxdelay=0.4234308530027473 hops=6.0 ctrl=960 ctrlB=30720 dtx=250 rerr=0 drops=0 nbr=3.8031250000000014",
    "REAR|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=0.010873164722845274 maxdelay=0.010873164722845274 hops=7.0 ctrl=960 ctrlB=30720 dtx=313 rerr=0 drops=0 nbr=3.805208333333331",
    "GVGrid|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=0.015663958650240062 maxdelay=0.015663958650240062 hops=8.0 ctrl=960 ctrlB=30720 dtx=305 rerr=0 drops=0 nbr=3.805208333333332",
    "Epidemic|sent=75 dlvd=1 dup=0 pdr=0.013333333333333334 delay=13.42289873314268 maxdelay=13.42289873314268 hops=9.0 ctrl=2362 ctrlB=115852 dtx=1953 rerr=0 drops=66 nbr=3.8510416666666645",
    "PRoPHET|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=2008 ctrlB=181984 dtx=507 rerr=0 drops=6 nbr=3.8489583333333344",
    "SprayWait|sent=75 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=2094 ctrlB=77628 dtx=330 rerr=0 drops=3 nbr=3.842708333333332",
    "ProbFlood|sent=75 dlvd=7 dup=0 pdr=0.09333333333333334 delay=3.668832132403559 maxdelay=17.10116248617009 hops=5.7142857142857135 ctrl=957 ctrlB=30624 dtx=1265 rerr=0 drops=1835 nbr=3.8187499999999943",
];

#[test]
fn every_protocol_matches_its_pinned_report() {
    assert_eq!(
        PINS.len(),
        ProtocolKind::ALL.len(),
        "pin list out of sync with ProtocolKind::ALL — regenerate"
    );
    let mut failures = Vec::new();
    for (kind, pin) in ProtocolKind::ALL.into_iter().zip(PINS) {
        let report = run_scenario(golden_scenario(), kind);
        let got = fingerprint(&report);
        if got != *pin {
            failures.push(format!("{kind:?}:\n  pinned: {pin}\n  got:    {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden reports diverged for {} protocol(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// An *empty* fault plan must be invisible: attaching `FaultPlan::new()`
/// explicitly schedules no events, draws no RNG, and changes no seq numbers,
/// so every protocol must still match its pre-fault-support pin exactly.
#[test]
fn empty_fault_plan_is_byte_identical_for_every_protocol() {
    let mut failures = Vec::new();
    for (kind, pin) in ProtocolKind::ALL.into_iter().zip(PINS) {
        let scenario = golden_scenario().with_faults(vanet_core::FaultPlan::new());
        let report = run_scenario(scenario, kind);
        let got = fingerprint(&report);
        if got != *pin {
            failures.push(format!("{kind:?}:\n  pinned: {pin}\n  got:    {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "an empty FaultPlan changed the engine for {} protocol(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The dense-contention scenario: 400 vehicles on the 1.2 km city grid,
/// where each frame's interference snapshot is far fuller than on the
/// highway above, and collision losses outnumber deliveries. Data flows
/// start after a 1 s warm-up, so the short run still routes packets.
fn dense_scenario() -> Scenario {
    let mut scenario = Scenario::urban(400)
        .with_seed(11)
        .with_flows(16)
        .with_duration(SimDuration::from_secs(4.0));
    scenario.warmup = SimDuration::from_secs(1.0);
    scenario
}

/// The protocols pinned on [`dense_scenario`]: the broadcast storm, the
/// on-demand route search and the two DTN summary-vector exchanges, which
/// load the medium hardest.
const DENSE_KINDS: [ProtocolKind; 4] = [
    ProtocolKind::Flooding,
    ProtocolKind::Aodv,
    ProtocolKind::Epidemic,
    ProtocolKind::Prophet,
];

/// Keeps the medium's final statistics of a run.
#[derive(Default)]
struct FinalMedium(MediumStats);

impl Telemetry for FinalMedium {
    fn on_finish(&mut self, _end: vanet_sim::SimTime, medium: &MediumStats) {
        self.0 = medium.clone();
    }
}

/// Runs `kind` on [`dense_scenario`]; returns the report fingerprint
/// extended with the medium's counts, and the medium statistics.
fn dense_run(kind: ProtocolKind) -> (String, MediumStats) {
    let mut sim = Simulation::with_telemetry(dense_scenario(), kind, FinalMedium::default());
    let report = sim.run();
    let medium = sim.into_telemetry().0;
    let pin = format!(
        "{} tx={} rx={} coll={} prop={}",
        fingerprint(&report),
        medium.transmissions.value(),
        medium.deliveries.value(),
        medium.collision_losses.value(),
        medium.propagation_losses.value()
    );
    (pin, medium)
}

/// Pinned dense-contention fingerprints, one per entry of [`DENSE_KINDS`],
/// captured before the medium's interference count became a branch-free
/// kernel over the structure-of-arrays snapshot.
const DENSE_PINS: &[&str] = &[
    "Flooding|sent=48 dlvd=43 dup=0 pdr=0.8958333333333334 delay=0.04369582198055537 maxdelay=0.1465675512255702 hops=5.953488372093022 ctrl=0 ctrlB=0 dtx=17504 rerr=0 drops=66098 nbr=23.501875000000048 tx=17504 rx=83861 coll=476278 prop=0",
    "AODV|sent=48 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=13308 ctrlB=671532 dtx=0 rerr=0 drops=43348 nbr=32.85500000000008 tx=13308 rx=92890 coll=334063 prop=0",
    "Epidemic|sent=48 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=3212 ctrlB=65564 dtx=222 rerr=0 drops=0 nbr=32.71937499999994 tx=3434 rx=54252 coll=55390 prop=0",
    "PRoPHET|sent=48 dlvd=0 dup=0 pdr=0.0 delay=0.0 maxdelay=0.0 hops=0.0 ctrl=3205 ctrlB=1706896 dtx=12 rerr=0 drops=0 nbr=32.71937499999989 tx=3217 rx=53928 coll=49512 prop=0",
];

#[test]
fn dense_contention_matches_its_pinned_reports() {
    assert_eq!(
        DENSE_PINS.len(),
        DENSE_KINDS.len(),
        "regenerate the dense pins"
    );
    let mut failures = Vec::new();
    let (mut collisions, mut deliveries) = (0, 0);
    for (kind, pin) in DENSE_KINDS.into_iter().zip(DENSE_PINS) {
        let (got, medium) = dense_run(kind);
        collisions += medium.collision_losses.value();
        deliveries += medium.deliveries.value();
        if got != *pin {
            failures.push(format!("{kind:?}:\n  pinned: {pin}\n  got:    {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "dense-contention reports diverged for {} protocol(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(
        collisions > deliveries,
        "the dense scenario must be collision-dominated \
         ({collisions} collision losses vs {deliveries} deliveries)"
    );
}

/// Prints the pin lists for pasting into `PINS` and `DENSE_PINS`. Run with
/// `--ignored`.
#[test]
#[ignore = "generator, not a check"]
fn regenerate() {
    for kind in ProtocolKind::ALL {
        let report = run_scenario(golden_scenario(), kind);
        println!("    {:?},", fingerprint(&report));
    }
    println!();
    for kind in DENSE_KINDS {
        println!("    {:?},", dense_run(kind).0);
    }
}
