//! The metrics the benchmark declares, the result line it prints, and the
//! small statistics it aggregates repetitions with.
//!
//! [`END_TO_END`] and [`per_layer`] mirror `BENCHMARK.json` exactly (a test
//! pins that); an untraced run prints every end-to-end metric and a traced
//! run every per-layer metric, nothing more and nothing less.

use std::collections::BTreeMap;

/// The connected-path and store-carry-forward family representatives of the
/// `city-families` workload, with the label their per-protocol metrics use.
pub const REPRESENTATIVES: [(&str, vanet_core::ProtocolKind); 7] = [
    ("Greedy", vanet_core::ProtocolKind::Greedy),
    ("Flooding", vanet_core::ProtocolKind::Flooding),
    ("AODV", vanet_core::ProtocolKind::Aodv),
    ("DSDV", vanet_core::ProtocolKind::Dsdv),
    ("Yan", vanet_core::ProtocolKind::Yan),
    ("Epidemic", vanet_core::ProtocolKind::Epidemic),
    ("PRoPHET", vanet_core::ProtocolKind::Prophet),
];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics with a fixed name: `(name, unit)`. The per-protocol
/// metrics of [`per_protocol`] follow them.
pub const PER_LAYER_FIXED: [(&str, &str); 42] = [
    ("pdr", "ratio"),
    ("sched.events", "count"),
    ("sched.events_per_s", "1/s"),
    ("mobility.step_s", "s"),
    ("grid.build_s", "s"),
    ("grid.update_s", "s"),
    ("grid.updates", "count"),
    ("grid.query_us", "us"),
    ("medium.transmit_us", "us"),
    ("medium.tx", "count"),
    ("medium.rx", "count"),
    ("medium.collision_losses", "count"),
    ("medium.propagation_losses", "count"),
    ("medium.rx_per_tx", "ratio"),
    ("arena.observe_s", "s"),
    ("arena.gained", "count"),
    ("arena.lost", "count"),
    ("arena.avg_neighbors", "count"),
    ("routing.self_s", "s"),
    ("routing.calls", "count"),
    ("routing.originate_s", "s"),
    ("routing.on_packet_s", "s"),
    ("routing.on_tick_s", "s"),
    ("routing.on_neighbor_lost_s", "s"),
    ("routing.control_tx", "count"),
    ("routing.data_tx", "count"),
    ("routing.drops", "count"),
    ("routing.tx_per_delivered", "ratio"),
    ("dtn.bundles_stored", "count"),
    ("dtn.bundles_forwarded", "count"),
    ("dtn.buffer_peak", "count"),
    ("driver.other_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.overhead.clock", "ratio"),
    ("accounting.tap_s", "s"),
    ("runner.telemetry_bytes", "bytes"),
    ("runner.jobs", "count"),
    ("runner.jobs_per_s", "1/s"),
    ("runner.resume_s", "s"),
    ("journal.open_s", "s"),
    ("journal.record_us", "us"),
    ("journal.bytes", "bytes"),
];

/// The per-protocol per-layer metrics, `(name, unit)`, in declaration order.
#[must_use]
pub fn per_protocol() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (prefix, unit) in [("run_s", "s"), ("routing.self_s", "s"), ("pdr", "ratio")] {
        for (label, _) in REPRESENTATIVES {
            out.push((format!("{prefix}.{label}"), unit));
        }
    }
    out
}

/// Every per-layer metric, `(name, unit)`, in declaration order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    out.extend(per_protocol());
    out
}

/// Whether `name` is a well-formed metric name.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// The result of one benchmark run: the values of one metric set plus the
/// failure accounting, rendered as the final JSON line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulations (or campaign jobs) attempted.
    pub attempted: u64,
    /// Attempted simulations that failed an output check.
    pub failed: u64,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed check on `sims` simulations.
    pub fn fail(&mut self, sims: u64, problem: impl Into<String>) {
        self.failed += sims;
        self.problems.push(problem.into());
    }

    /// Renders the result line for the declared metric set `declared`.
    /// A declared metric that was never recorded, an undeclared one that
    /// was, or a non-finite value makes the run incorrect.
    #[must_use]
    pub fn render(&mut self, declared: &[(String, &'static str)]) -> String {
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            if !valid_name(name) {
                self.problems
                    .push(format!("metric name {name:?} is malformed"));
            }
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        for name in self.values.keys() {
            if !declared.iter().any(|(d, _)| d == name) {
                self.problems.push(format!("metric {name} is not declared"));
            }
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with all its digits (Rust's `Display`
/// for floats is the shortest exact round-trip form and never uses an
/// exponent).
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') {
        text
    } else {
        format!("{text}.0")
    }
}

/// The median of `values` (the mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    vanet_runner::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_owned()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "metric names must be unique");
    }

    /// `(name, unit)` of every metric object in the `key` list of
    /// `BENCHMARK.json`.
    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("section is a list")];
        let field = |object: &str, name: &str| -> String {
            let tag = format!("\"{name}\": \"");
            let at = object.find(&tag).expect("field present") + tag.len();
            object[at..at + object[at..].find('"').expect("closing quote")].to_owned()
        };
        section
            .split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let end_to_end: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(declared_in_benchmark_json("end_to_end"), end_to_end);
        let per_layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(declared_in_benchmark_json("per_layer"), per_layer);
    }

    #[test]
    fn render_flags_missing_and_undeclared_metrics() {
        let declared = vec![("a".to_owned(), "s")];
        let mut ok = Outcome::default();
        ok.set("a", 1.5);
        let line = ok.render(&declared);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));

        let mut missing = Outcome::default();
        assert!(missing.render(&declared).contains("\"correct\": false"));
        let mut extra = Outcome::default();
        extra.set("a", 1.0);
        extra.set("b", 1.0);
        assert!(extra.render(&declared).contains("\"correct\": false"));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
