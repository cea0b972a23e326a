//! The `table1-campaign` passes through the campaign engine and its journal.

use crate::workload::CAMPAIGN_WORKERS;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vanet_core::{CampaignPlan, Report};
use vanet_runner::{CampaignResults, Journal, JournalEntry, Runner, TelemetrySettings};

/// One timed `Runner::run_plan`.
#[derive(Debug)]
pub struct CampaignRun {
    /// The engine's results.
    pub results: CampaignResults,
    /// Host wall time of the call.
    pub wall: Duration,
}

/// Runs `plan` on the pool with the journal in `dir`, and the default
/// telemetry tap when `tapped`.
#[must_use]
pub fn run_campaign(plan: &CampaignPlan, dir: &Path, tapped: bool) -> CampaignRun {
    let mut runner = Runner::new()
        .with_workers(CAMPAIGN_WORKERS)
        .with_journal(dir);
    if tapped {
        runner = runner.with_telemetry(TelemetrySettings::default());
    }
    let start = Instant::now();
    let results = runner.run_plan(plan);
    CampaignRun {
        results,
        wall: start.elapsed(),
    }
}

/// Checks a cold pass: every job executed, none quarantined.
///
/// # Errors
///
/// Names the first violated expectation.
pub fn check_cold(run: &CampaignRun, jobs: usize) -> Result<(), String> {
    let r = &run.results;
    if r.executed_jobs != jobs || r.cached_jobs != 0 || !r.quarantined.is_empty() {
        return Err(format!(
            "cold pass executed {} and replayed {} of {jobs} jobs, {} quarantined",
            r.executed_jobs,
            r.cached_jobs,
            r.quarantined.len()
        ));
    }
    Ok(())
}

/// Checks a resume pass over a finished journal: nothing executed, nothing
/// quarantined, cell summaries identical to the cold pass.
///
/// # Errors
///
/// Names the first violated expectation.
pub fn check_resume(resume: &CampaignRun, cold: &CampaignRun, jobs: usize) -> Result<(), String> {
    let r = &resume.results;
    if r.executed_jobs != 0 || r.cached_jobs != jobs || !r.quarantined.is_empty() {
        return Err(format!(
            "resume pass executed {} and replayed {} of {jobs} jobs, {} quarantined",
            r.executed_jobs,
            r.cached_jobs,
            r.quarantined.len()
        ));
    }
    if r.cells != cold.results.cells {
        return Err("resume pass cell summaries differ from the cold pass".to_owned());
    }
    Ok(())
}

/// The journaled report of every plan job, in plan order.
///
/// # Errors
///
/// Fails when the journal cannot be opened or misses a job.
pub fn journal_reports(plan: &CampaignPlan, dir: &Path) -> Result<Vec<Report>, String> {
    let journal = Journal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    plan.initial_jobs()
        .iter()
        .map(|job| {
            journal.lookup(job.key()).cloned().ok_or_else(|| {
                format!(
                    "journal misses {} on {} seed {}",
                    job.protocol.name(),
                    job.scenario.name,
                    job.scenario.seed
                )
            })
        })
        .collect()
}

/// Re-records `reports` (in plan order) into a fresh journal in `dir` and
/// returns the mean time per `Journal::record`.
///
/// # Errors
///
/// Fails on any journal IO error.
pub fn time_journal_records(
    plan: &CampaignPlan,
    reports: &[Report],
    dir: &Path,
) -> Result<Duration, String> {
    let journal = Journal::open(dir).map_err(|e| format!("scratch journal open: {e}"))?;
    let entries: Vec<JournalEntry> = plan
        .initial_jobs()
        .iter()
        .zip(reports)
        .map(|(job, report)| JournalEntry {
            key: job.key(),
            campaign: plan.name.clone(),
            label: plan.cells[job.cell].label.clone(),
            seed: job.scenario.seed,
            report: report.clone(),
        })
        .collect();
    let start = Instant::now();
    for entry in &entries {
        journal
            .record(entry)
            .map_err(|e| format!("journal record: {e}"))?;
    }
    Ok(start.elapsed() / entries.len().max(1) as u32)
}

/// Size of `dir/file` in bytes (0 when absent).
#[must_use]
pub fn file_bytes(dir: &Path, file: &str) -> u64 {
    std::fs::metadata(dir.join(file)).map_or(0, |m| m.len())
}

/// A scratch directory for this process's journals, inside the benchmark's
/// own directory; removed again by [`WorkDir`]'s `Drop`.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh, empty work directory named after this process.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> WorkDir {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark work directory");
        WorkDir(path)
    }

    /// A fresh, not yet existing sub-directory path.
    #[must_use]
    pub fn sub(&self, name: &str) -> PathBuf {
        let path = self.0.join(name);
        let _ = std::fs::remove_dir_all(&path);
        path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run's directory is left in it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
