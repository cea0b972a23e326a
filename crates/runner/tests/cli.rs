//! `vanet-campaign` refuses oversized telemetry settings with a named error
//! and exit 1 before any job starts, instead of aborting on an allocation.

use std::path::Path;
use std::process::Command;

fn run_tapped_campaign(dir_name: &str, extra: &[&str]) -> (Option<i32>, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(env!("CARGO_BIN_EXE_vanet-campaign"))
        .args(["--scenarios", "highway-12", "--protocols", "Greedy"])
        .args(["--seeds", "1", "--quiet", "--telemetry", "--resume"])
        .arg(&dir)
        .args(extra)
        .output()
        .expect("run vanet-campaign");
    assert!(
        !dir.exists(),
        "a refused campaign must not create its journal"
    );
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn telemetry_window_too_small_for_the_scenario_is_refused() {
    let (code, stderr) = run_tapped_campaign("tiny-window", &["--telemetry-window", "1e-12"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("telemetry settings refused")
            && stderr.contains("windows per job, above the limit of 100000"),
        "{stderr}"
    );
}

#[test]
fn telemetry_region_grid_too_large_is_refused() {
    let (code, stderr) = run_tapped_campaign("huge-grid", &["--telemetry-regions", "100000"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("telemetry settings refused")
            && stderr.contains("100000 regions per axis is outside 1..=256"),
        "{stderr}"
    );
}
