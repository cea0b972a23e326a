//! `perfbench`: runs one named workload of the vanet workspace and prints
//! its metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the untraced workload for `--seconds` and reports
//! the median of each end-to-end metric; `--trace 1` makes one traced run
//! and reports the per-layer metrics. Human-readable progress goes to
//! stderr; the last line of stdout is the JSON result. See `README.md`.

mod campaign;
mod check;
mod probe;
mod registry;
mod trace;
mod workload;

use campaign::{
    check_cold, check_resume, file_bytes, journal_reports, run_campaign, time_journal_records,
    WorkDir,
};
use check::{fingerprint, pooled_pdr, report_invariants};
use registry::{median, peak_rss_mib, Outcome, END_TO_END, REPRESENTATIVES};
use std::time::{Duration, Instant};
use vanet_core::Report;
use workload::{run_job, Instrument, Job, SimRun, Workload};

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(|(n, _)| n).join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let declared = if args.trace {
        traced(args.workload, args.seed, &mut out);
        registry::per_layer()
    } else {
        untraced(args.workload, args.seed, args.seconds, &mut out);
        END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_owned(), unit))
            .collect()
    };
    let line = out.render(&declared);
    for (name, unit) in &declared {
        eprintln!(
            "  {name:<28} {:>16.6} {unit}",
            out.get(name).unwrap_or(f64::NAN)
        );
    }
    for problem in &out.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    println!("{line}");
}

/// One untraced repetition of a workload.
#[derive(Debug)]
struct Rep {
    setup: Duration,
    run: Duration,
    /// Events processed (simulation workloads) or jobs executed (campaign).
    count: u64,
    fingerprint: u64,
    reports: Vec<Report>,
    sims: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Checks a finished workload's reports against the `Report` invariants.
/// Returns the failures.
fn check_reports(runs: &[(&Report, Option<u64>)]) -> Vec<String> {
    runs.iter()
        .filter_map(|(report, events)| report_invariants(report, *events).err())
        .collect()
}

/// Warns (on stderr) when the workload has lost the shape it was chosen
/// for: a connected-path representative that delivers nothing on the city,
/// or a megacity that originates no packets. These depend on the seed's
/// geometry, not on the program being right, so they are not failures.
fn warn_shape(workload: Workload, reports: &[Report]) {
    for report in reports {
        let shapeless = match workload {
            Workload::CityFamilies => {
                report.data_delivered == 0
                    && !["Epidemic", "PRoPHET"].contains(&report.protocol.as_str())
            }
            Workload::MegacityBeacons => report.data_sent == 0,
            Workload::Table1Campaign => false,
        };
        if shapeless {
            eprintln!(
                "perfbench: warning: {} on {} delivered {} of {} packets",
                report.protocol, report.scenario, report.data_delivered, report.data_sent
            );
        }
    }
}

/// Builds per simulation and repetition whose median is its set-up time.
const SETUP_SAMPLES: usize = 5;

/// Host time of one `Simulation::new` for `job` (the simulation is dropped
/// outside the timed section).
fn time_build(job: &Job) -> Duration {
    let scenario = job.scenario.clone();
    let start = Instant::now();
    let sim = vanet_core::Simulation::new(scenario, job.protocol);
    let elapsed = start.elapsed();
    drop(sim);
    elapsed
}

fn sims_rep(jobs: &[Job]) -> Rep {
    let mut setup = Duration::ZERO;
    let mut runs = Vec::with_capacity(jobs.len());
    for job in jobs {
        let mut samples: Vec<f64> = (1..SETUP_SAMPLES)
            .map(|_| time_build(job).as_secs_f64())
            .collect();
        let run = run_job(job, Instrument::Plain);
        samples.push(run.setup.as_secs_f64());
        setup += Duration::from_secs_f64(median(&samples));
        runs.push(run);
    }
    let checked: Vec<(&Report, Option<u64>)> =
        runs.iter().map(|r| (&r.report, Some(r.events))).collect();
    let problems = check_reports(&checked);
    Rep {
        setup,
        run: runs.iter().map(|r| r.run).sum(),
        count: runs.iter().map(|r| r.events).sum(),
        fingerprint: fingerprint(runs.iter().map(|r| &r.report)),
        reports: runs.into_iter().map(|r| r.report).collect(),
        sims: jobs.len() as u64,
        failed: problems.len() as u64,
        problems,
    }
}

fn campaign_rep(seed: u64, jobs: &[Job], work: &WorkDir, rep: usize) -> Rep {
    let plan = Workload::plan(seed);
    // Set-up: every job's simulation built outside the timed campaign.
    let setup = jobs
        .iter()
        .map(|job| {
            let samples: Vec<f64> = (0..SETUP_SAMPLES)
                .map(|_| time_build(job).as_secs_f64())
                .collect();
            Duration::from_secs_f64(median(&samples))
        })
        .sum();
    let dir = work.sub(&format!("rep{rep}"));
    let cold = run_campaign(&plan, &dir, true);
    let mut problems = Vec::new();
    problems.extend(check_cold(&cold, jobs.len()).err());
    let reports = journal_reports(&plan, &dir).unwrap_or_else(|e| {
        problems.push(e);
        Vec::new()
    });
    let checked: Vec<(&Report, Option<u64>)> = reports.iter().map(|r| (r, None)).collect();
    problems.extend(check_reports(&checked));
    let resume = run_campaign(&plan, &dir, true);
    problems.extend(check_resume(&resume, &cold, jobs.len()).err());
    let _ = std::fs::remove_dir_all(&dir);
    Rep {
        setup,
        run: cold.wall,
        count: cold.results.executed_jobs as u64,
        fingerprint: fingerprint(&reports),
        reports,
        sims: jobs.len() as u64,
        failed: (problems.len() as u64).min(jobs.len() as u64),
        problems,
    }
}

/// Repeats the untraced workload until `seconds` have passed and reports
/// the medians. Repetitions whose event count or report fingerprint differ
/// from the first are refused, never aggregated.
fn untraced(workload: Workload, seed: u64, seconds: u64, out: &mut Outcome) {
    let jobs = workload.jobs(seed);
    let work = WorkDir::new(workload.name());
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while reps.is_empty() || start.elapsed() < budget {
        let rep = match workload {
            Workload::Table1Campaign => campaign_rep(seed, &jobs, &work, reps.len()),
            _ => sims_rep(&jobs),
        };
        eprintln!(
            "perfbench: repetition {}: setup {:.6} s, run {:.6} s",
            reps.len(),
            rep.setup.as_secs_f64(),
            rep.run.as_secs_f64()
        );
        out.attempted += rep.sims;
        out.failed += rep.failed;
        out.problems.extend(rep.problems.iter().cloned());
        if let Some(first) = reps.first() {
            if (rep.count, rep.fingerprint) != (first.count, first.fingerprint) {
                out.fail(
                    rep.sims,
                    format!(
                        "repetition {} is not like the first: count {} fingerprint {:#018x} vs {} {:#018x}",
                        reps.len(),
                        rep.count,
                        rep.fingerprint,
                        first.count,
                        first.fingerprint
                    ),
                );
                continue;
            }
        }
        reps.push(rep);
    }
    eprintln!(
        "perfbench: {} seed {seed}: count {} fingerprint {:#018x}, {} repetitions",
        workload.name(),
        reps[0].count,
        reps[0].fingerprint,
        reps.len()
    );
    warn_shape(workload, &reps[0].reports);
    let secs =
        |f: fn(&Rep) -> Duration| -> Vec<f64> { reps.iter().map(|r| f(r).as_secs_f64()).collect() };
    out.set("setup_s", median(&secs(|r| r.setup)));
    out.set("run_s", median(&secs(|r| r.run)));
    out.set("peak_rss_mib", peak_rss_mib());
}

/// Checks that `traced` reproduces `reference` byte for byte, run by run.
fn compare(pass: &str, reference: &[Report], traced: &[SimRun], out: &mut Outcome) {
    for (want, got) in reference.iter().zip(traced) {
        if format!("{want:?}") != format!("{:?}", got.report) {
            out.fail(
                1,
                format!(
                    "{pass} pass changed the report of {} on {}",
                    want.protocol, want.scenario
                ),
            );
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One traced run: the campaign passes (for `table1-campaign`), then the
/// untraced reference, the timing-decorator and the clock-observer passes
/// over every simulation, then the layer probes.
fn traced(workload: Workload, seed: u64, out: &mut Outcome) {
    let jobs = workload.jobs(seed);
    let mut reference: Option<Vec<Report>> = None;
    for name in [
        "accounting.tap_s",
        "runner.telemetry_bytes",
        "runner.jobs",
        "runner.jobs_per_s",
        "runner.resume_s",
        "journal.open_s",
        "journal.record_us",
        "journal.bytes",
    ] {
        out.set(name, 0.0);
    }
    if workload == Workload::Table1Campaign {
        reference = Some(traced_campaign(seed, jobs.len(), out));
    }

    let pass =
        |instrument| -> Vec<SimRun> { jobs.iter().map(|j| run_job(j, instrument)).collect() };
    let plain = pass(Instrument::Plain);
    let timed = pass(Instrument::Timed);
    let clock = pass(Instrument::Clock);
    out.attempted += 3 * jobs.len() as u64;
    let plain_reports: Vec<Report> = plain.iter().map(|r| r.report.clone()).collect();
    let checked: Vec<(&Report, Option<u64>)> =
        plain.iter().map(|r| (&r.report, Some(r.events))).collect();
    for problem in check_reports(&checked) {
        out.fail(1, problem);
    }
    warn_shape(workload, &plain_reports);
    if let Some(reference) = &reference {
        compare("serial", reference, &plain, out);
    }
    compare("timing-decorator", &plain_reports, &timed, out);
    compare("clock-observer", &plain_reports, &clock, out);
    for (i, runs) in [&timed, &clock].into_iter().enumerate() {
        for (a, b) in plain.iter().zip(runs) {
            if a.events != b.events {
                out.fail(1, format!("traced pass {i} changed the event count"));
            }
        }
    }

    let sum =
        |runs: &[SimRun], f: fn(&SimRun) -> Duration| -> Duration { runs.iter().map(f).sum() };
    let plain_s = secs(sum(&plain, |r| r.run));
    let timed_s = secs(sum(&timed, |r| r.run));
    let clock_s = secs(sum(&clock, |r| r.run));
    let events: u64 = plain.iter().map(|r| r.events).sum();
    eprintln!(
        "perfbench: {} seed {seed}: events {events} fingerprint {:#018x} (traced run)",
        workload.name(),
        fingerprint(&plain_reports)
    );
    out.set("pdr", pooled_pdr(&plain_reports));
    out.set("sched.events", events as f64);
    out.set("sched.events_per_s", events as f64 / plain_s);

    let mut probes = probe::ProbeTotals::default();
    for scenario in workload.scenarios(seed) {
        probes.add(&probe::probe(&scenario));
    }
    out.set("mobility.step_s", secs(probes.mobility_step));
    out.set("grid.build_s", secs(probes.grid_build));
    out.set("grid.update_s", secs(probes.grid_update));
    out.set("grid.updates", probes.grid_updates as f64);
    out.set(
        "grid.query_us",
        secs(probes.grid_query) * 1e6 / probes.grid_queries.max(1) as f64,
    );
    out.set(
        "medium.transmit_us",
        secs(probes.medium_transmit) * 1e6 / probes.medium_transmits.max(1) as f64,
    );

    let mut tap = trace::ClockTap::default();
    for run in &clock {
        tap.add(&run.tap);
    }
    let tx = tap.medium.transmissions.value();
    out.set("medium.tx", tx as f64);
    out.set("medium.rx", tap.medium.deliveries.value() as f64);
    out.set(
        "medium.collision_losses",
        tap.medium.collision_losses.value() as f64,
    );
    out.set(
        "medium.propagation_losses",
        tap.medium.propagation_losses.value() as f64,
    );
    out.set(
        "medium.rx_per_tx",
        tap.medium.deliveries.value() as f64 / tx.max(1) as f64,
    );
    out.set("arena.observe_s", secs(tap.observe));
    out.set("arena.gained", tap.gained as f64);
    out.set("arena.lost", tap.lost as f64);
    out.set(
        "arena.avg_neighbors",
        plain_reports.iter().map(|r| r.avg_neighbors).sum::<f64>() / plain_reports.len() as f64,
    );

    let mut spans = trace::RoutingSpans::default();
    for run in &timed {
        spans.add(&run.spans);
    }
    out.set("routing.self_s", secs(spans.total()));
    out.set("routing.calls", spans.calls as f64);
    out.set("routing.originate_s", secs(spans.originate));
    out.set("routing.on_packet_s", secs(spans.on_packet));
    out.set("routing.on_tick_s", secs(spans.on_tick));
    out.set("routing.on_neighbor_lost_s", secs(spans.on_neighbor_lost));
    let total = |f: fn(&Report) -> u64| -> u64 { plain_reports.iter().map(f).sum() };
    let control = total(|r| r.control_packets);
    let data = total(|r| r.data_transmissions);
    out.set("routing.control_tx", control as f64);
    out.set("routing.data_tx", data as f64);
    out.set("routing.drops", total(|r| r.drops) as f64);
    out.set(
        "routing.tx_per_delivered",
        (control + data) as f64 / total(|r| r.data_delivered).max(1) as f64,
    );
    out.set("dtn.bundles_stored", total(|r| r.bundles_stored) as f64);
    out.set(
        "dtn.bundles_forwarded",
        total(|r| r.bundles_forwarded) as f64,
    );
    out.set(
        "dtn.buffer_peak",
        plain_reports
            .iter()
            .map(|r| r.buffer_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set("driver.other_s", timed_s - secs(spans.total()));
    out.set("trace.overhead", timed_s / plain_s);
    out.set("trace.overhead.clock", clock_s / plain_s);

    for (label, kind) in REPRESENTATIVES {
        let of_kind: Vec<usize> = (0..jobs.len())
            .filter(|&i| jobs[i].protocol == kind)
            .collect();
        out.set(
            format!("run_s.{label}"),
            secs(of_kind.iter().map(|&i| plain[i].run).sum()),
        );
        out.set(
            format!("routing.self_s.{label}"),
            secs(of_kind.iter().map(|&i| timed[i].spans.total()).sum()),
        );
        out.set(
            format!("pdr.{label}"),
            pooled_pdr(of_kind.iter().map(|&i| &plain[i].report)),
        );
    }
}

/// The `table1-campaign` engine passes: a tapped cold campaign, the journal
/// probes, a resume pass, and an untapped cold campaign for the accounting
/// difference. Returns the journaled reports in plan order.
fn traced_campaign(seed: u64, jobs: usize, out: &mut Outcome) -> Vec<Report> {
    let plan = Workload::plan(seed);
    let work = WorkDir::new("table1-campaign-trace");
    let dir = work.sub("tapped");
    let cold = run_campaign(&plan, &dir, true);
    out.attempted += 2 * jobs as u64;
    if let Err(e) = check_cold(&cold, jobs) {
        out.fail(jobs as u64, e);
    }
    let reports = journal_reports(&plan, &dir).unwrap_or_else(|e| {
        out.fail(jobs as u64, e);
        Vec::new()
    });
    let start = Instant::now();
    let journal = vanet_runner::Journal::open(&dir);
    out.set("journal.open_s", secs(start.elapsed()));
    drop(journal);
    let resume = run_campaign(&plan, &dir, true);
    if let Err(e) = check_resume(&resume, &cold, jobs) {
        out.fail(1, e);
    }
    out.set("runner.resume_s", secs(resume.wall));
    out.set(
        "journal.bytes",
        file_bytes(&dir, vanet_runner::JOURNAL_FILE) as f64,
    );
    out.set(
        "runner.telemetry_bytes",
        file_bytes(&dir, vanet_runner::TELEMETRY_FILE) as f64,
    );
    match time_journal_records(&plan, &reports, &work.sub("rerecord")) {
        Ok(per_record) => out.set("journal.record_us", secs(per_record) * 1e6),
        Err(e) => out.fail(1, e),
    }
    let untapped = run_campaign(&plan, &work.sub("untapped"), false);
    if let Err(e) = check_cold(&untapped, jobs) {
        out.fail(jobs as u64, e);
    }
    if untapped.results.cells != cold.results.cells {
        out.fail(1, "the telemetry tap changed the campaign's cell summaries");
    }
    out.set("accounting.tap_s", secs(cold.wall) - secs(untapped.wall));
    out.set("runner.jobs", jobs as f64);
    out.set("runner.jobs_per_s", jobs as f64 / secs(cold.wall));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line_and_refuses_bad_input() {
        let ok = parse_args(&args(&[
            "--workload",
            "city-families",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(ok.workload, Workload::CityFamilies);
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 10, true));
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "city-families",
                "--seed",
                "x",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "city-families",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "city-families",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "city-families",
                "--seed",
                "1",
                "--seconds",
                "1",
            ],
            &["--workload"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
