//! Probability models for link reliability (Sec. VII).
//!
//! These are the models underlying the probability-model-based family:
//!
//! * [`expected_link_duration`] / [`mean_link_duration`] — Yan et al.'s ticket
//!   metric: the expected (and mean, i.e. "stability") duration of a link when
//!   the relative speed is normally distributed.
//! * [`link_availability`] — Jiang/Rao-style prediction: the probability that
//!   a link alive now is still alive after `t` seconds (used by NiuDe and
//!   GVGrid for QoS route selection).
//! * [`segment_connectivity_probability`] — CAR's per-road-segment model: the
//!   probability that consecutive vehicles on a segment are all within range,
//!   assuming exponential inter-vehicle spacing.
//! * [`receipt_probability`] — REAR's receipt probability from the log-normal
//!   shadowing signal-strength model.

use vanet_mobility::distributions::{std_normal_cdf, Normal};

/// A probabilistic model of one link's remaining duration, built from the
/// mobility information a node has about a neighbour (relative speed mean and
/// standard deviation, current gap to the range boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDurationModel {
    /// Mean relative speed along the link axis, m/s (signed: positive means
    /// the vehicles are separating towards the break boundary).
    pub relative_speed_mean: f64,
    /// Standard deviation of the relative speed, m/s.
    pub relative_speed_std: f64,
    /// Current separation `d_0`, metres (signed, |d_0| ≤ range).
    pub separation: f64,
    /// Communication range `r`, metres.
    pub range: f64,
}

impl LinkDurationModel {
    /// Creates a model; the separation is clamped into `[-range, range]`.
    ///
    /// # Panics
    ///
    /// Panics if `range <= 0` or `relative_speed_std < 0`.
    #[must_use]
    pub fn new(
        relative_speed_mean: f64,
        relative_speed_std: f64,
        separation: f64,
        range: f64,
    ) -> Self {
        assert!(range > 0.0, "range must be positive");
        assert!(relative_speed_std >= 0.0, "std must be non-negative");
        LinkDurationModel {
            relative_speed_mean,
            relative_speed_std,
            separation: separation.clamp(-range, range),
            range,
        }
    }

    /// Expected link duration under this model (see [`expected_link_duration`]).
    #[must_use]
    pub fn expected_duration(&self) -> f64 {
        expected_link_duration(
            self.separation,
            self.relative_speed_mean,
            self.relative_speed_std,
            self.range,
        )
    }

    /// Probability the link is still alive after `t` seconds
    /// (see [`link_availability`]).
    #[must_use]
    pub fn availability(&self, t: f64) -> f64 {
        link_availability(
            self.separation,
            self.relative_speed_mean,
            self.relative_speed_std,
            self.range,
            t,
        )
    }
}

/// Expected link duration `E[T]` when the relative speed `V` is
/// `Normal(mean, std)`: for each realisation `v`, the deterministic
/// constant-speed lifetime is `(r − d₀)/v` when separating (`v > 0`) and
/// `(r + d₀)/|v|` when closing; the expectation is taken numerically over the
/// speed distribution (integrating the normal density on ±6σ), excluding a
/// small dead band around `v = 0` where the lifetime is effectively unbounded
/// and capped at `cap = 3600 s`.
///
/// Returns the cap when the relative speed is (almost) deterministically zero.
///
/// # Panics
///
/// Panics if `range <= 0` or `std < 0`.
#[must_use]
pub fn expected_link_duration(separation: f64, mean: f64, std: f64, range: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(std >= 0.0, "std must be non-negative");
    const CAP: f64 = 3_600.0;
    let d0 = separation.clamp(-range, range);
    let lifetime = |v: f64| -> f64 {
        if v.abs() < 1e-3 {
            CAP
        } else if v > 0.0 {
            ((range - d0) / v).min(CAP)
        } else {
            ((range + d0) / -v).min(CAP)
        }
    };
    if std == 0.0 {
        return lifetime(mean);
    }
    let dist = Normal::new(mean, std);
    // Numerical expectation over ±6σ with Simpson-friendly uniform steps.
    let lo = mean - 6.0 * std;
    let hi = mean + 6.0 * std;
    let steps = 2_000;
    let h = (hi - lo) / steps as f64;
    let mut acc = 0.0;
    let mut weight = 0.0;
    for k in 0..=steps {
        let v = lo + k as f64 * h;
        let w = dist.pdf(v) * if k == 0 || k == steps { 0.5 } else { 1.0 };
        acc += w * lifetime(v);
        weight += w;
    }
    if weight <= 0.0 {
        CAP
    } else {
        acc / weight
    }
}

/// The *mean link duration* ("stability" in Yan et al.'s TBP-SS): the
/// deterministic lifetime evaluated at the mean relative speed. Cheaper than
/// the full expectation and the quantity the ticket-based probing algorithm
/// propagates as its routing metric.
///
/// # Panics
///
/// Panics if `range <= 0`.
#[must_use]
pub fn mean_link_duration(separation: f64, mean_relative_speed: f64, range: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    const CAP: f64 = 3_600.0;
    let d0 = separation.clamp(-range, range);
    let v = mean_relative_speed;
    if v.abs() < 1e-3 {
        CAP
    } else if v > 0.0 {
        ((range - d0) / v).min(CAP)
    } else {
        ((range + d0) / -v).min(CAP)
    }
}

/// Link availability `L(t) = P(link alive at t | alive now)` under a
/// normally distributed relative speed: the link survives `t` seconds iff the
/// future separation `d₀ + V·t` is still within `[−r, r]`, so
/// `L(t) = Φ((r − d₀)/(σt)) − Φ((−r − d₀)/(σt))` shifted by the mean drift.
///
/// # Panics
///
/// Panics if `range <= 0`, `std < 0` or `t < 0`.
#[must_use]
pub fn link_availability(separation: f64, mean: f64, std: f64, range: f64, t: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(std >= 0.0, "std must be non-negative");
    assert!(t >= 0.0, "prediction horizon must be non-negative");
    let d0 = separation.clamp(-range, range);
    if t == 0.0 {
        return 1.0;
    }
    let drift = d0 + mean * t;
    if std == 0.0 {
        return if (-range..=range).contains(&drift) {
            1.0
        } else {
            0.0
        };
    }
    let sigma_t = std * t;
    let upper = (range - drift) / sigma_t;
    let lower = (-range - drift) / sigma_t;
    (std_normal_cdf(upper) - std_normal_cdf(lower)).clamp(0.0, 1.0)
}

/// CAR-style road-segment connectivity probability: on a segment of
/// `length_m` metres carrying traffic of `density_per_m` vehicles per metre
/// with exponentially distributed inter-vehicle spacing, the probability that
/// every gap between consecutive vehicles (expected count
/// `n = density·length`) is at most `range_m`:
/// `P = (1 − e^{−λ·R})^{max(n−1, 0)}` with `λ = density`.
///
/// Returns 1.0 for segments shorter than the range (a single hop suffices).
///
/// # Panics
///
/// Panics if any argument is negative or `range_m == 0`.
#[must_use]
pub fn segment_connectivity_probability(density_per_m: f64, length_m: f64, range_m: f64) -> f64 {
    assert!(density_per_m >= 0.0, "density must be non-negative");
    assert!(length_m >= 0.0, "length must be non-negative");
    assert!(range_m > 0.0, "range must be positive");
    if length_m <= range_m {
        return 1.0;
    }
    let expected_vehicles = density_per_m * length_m;
    if expected_vehicles < 2.0 {
        // Fewer than two vehicles expected: the segment cannot be bridged.
        return 0.0;
    }
    let gap_within_range = 1.0 - (-density_per_m * range_m).exp();
    gap_within_range.powf(expected_vehicles - 1.0)
}

/// REAR-style receipt probability: probability that a frame transmitted over
/// `distance_m` metres is received, under log-normal shadowing with path-loss
/// exponent `alpha` and shadow-fading deviation `sigma_db`, where the
/// detection threshold corresponds to `nominal_range_m`.
///
/// This mirrors the channel model in `vanet-net` so protocols can *reason*
/// about the receipt probability without sampling the channel.
///
/// # Panics
///
/// Panics if `nominal_range_m <= 0`, `alpha <= 0` or `sigma_db < 0`.
#[must_use]
pub fn receipt_probability(
    distance_m: f64,
    nominal_range_m: f64,
    alpha: f64,
    sigma_db: f64,
) -> f64 {
    assert!(nominal_range_m > 0.0, "range must be positive");
    assert!(alpha > 0.0, "path-loss exponent must be positive");
    assert!(sigma_db >= 0.0, "sigma must be non-negative");
    let d = distance_m.max(1.0);
    let mean_margin_db = 10.0 * alpha * (nominal_range_m.log10() - d.log10());
    if sigma_db == 0.0 {
        return if mean_margin_db >= 0.0 { 1.0 } else { 0.0 };
    }
    std_normal_cdf(mean_margin_db / sigma_db)
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: f64 = 250.0;

    #[test]
    fn expected_duration_decreases_with_relative_speed() {
        let slow = expected_link_duration(0.0, 2.0, 1.0, R);
        let fast = expected_link_duration(0.0, 20.0, 1.0, R);
        assert!(slow > fast, "slow {slow} should exceed fast {fast}");
    }

    #[test]
    fn expected_duration_zero_std_matches_mean_duration() {
        let e = expected_link_duration(-50.0, 5.0, 0.0, R);
        let m = mean_link_duration(-50.0, 5.0, R);
        assert!((e - m).abs() < 1e-9);
        assert!((m - 60.0).abs() < 1e-9);
    }

    #[test]
    fn expected_duration_is_capped_for_zero_speed() {
        assert_eq!(mean_link_duration(0.0, 0.0, R), 3_600.0);
        let e = expected_link_duration(0.0, 0.0, 0.0, R);
        assert_eq!(e, 3_600.0);
    }

    #[test]
    fn mean_duration_direction_sign() {
        // Separating: only (r − d0) to cover; closing: (r + d0).
        let separating = mean_link_duration(100.0, 10.0, R);
        let closing = mean_link_duration(100.0, -10.0, R);
        assert!((separating - 15.0).abs() < 1e-9);
        assert!((closing - 35.0).abs() < 1e-9);
    }

    #[test]
    fn availability_at_zero_horizon_is_one() {
        assert_eq!(link_availability(0.0, 10.0, 3.0, R, 0.0), 1.0);
    }

    #[test]
    fn availability_decreases_with_horizon() {
        let mut last = 1.0;
        for t in [1.0, 5.0, 10.0, 20.0, 50.0, 100.0] {
            let a = link_availability(0.0, 5.0, 3.0, R, t);
            assert!(a <= last + 1e-12, "availability must not increase");
            assert!((0.0..=1.0).contains(&a));
            last = a;
        }
        assert!(last < 0.2, "long horizons should be unreliable, got {last}");
    }

    #[test]
    fn availability_deterministic_case() {
        // No variance: survives exactly while drift stays in range.
        assert_eq!(link_availability(0.0, 10.0, 0.0, R, 10.0), 1.0);
        assert_eq!(link_availability(0.0, 10.0, 0.0, R, 30.0), 0.0);
    }

    #[test]
    fn availability_higher_for_same_direction_traffic() {
        // Same direction ⇒ small relative speed mean; opposite ⇒ large.
        let same = link_availability(0.0, 2.0, 2.0, R, 30.0);
        let opposite = link_availability(0.0, 55.0, 2.0, R, 30.0);
        assert!(same > 0.9);
        assert!(opposite < 0.05);
    }

    #[test]
    fn segment_connectivity_increases_with_density() {
        let sparse = segment_connectivity_probability(0.002, 2_000.0, 250.0);
        let medium = segment_connectivity_probability(0.01, 2_000.0, 250.0);
        let dense = segment_connectivity_probability(0.05, 2_000.0, 250.0);
        assert!(sparse < medium && medium < dense);
        assert!(dense > 0.99);
        assert!((0.0..=1.0).contains(&sparse));
    }

    #[test]
    fn segment_connectivity_edge_cases() {
        assert_eq!(segment_connectivity_probability(0.01, 100.0, 250.0), 1.0);
        assert_eq!(segment_connectivity_probability(0.0, 2_000.0, 250.0), 0.0);
        // Expected vehicles < 2 cannot bridge the segment.
        assert_eq!(
            segment_connectivity_probability(0.0005, 2_000.0, 250.0),
            0.0
        );
    }

    #[test]
    fn receipt_probability_behaviour() {
        // Half at the nominal range, near-one close in, near-zero far out.
        let at_range = receipt_probability(250.0, 250.0, 2.7, 4.0);
        assert!((at_range - 0.5).abs() < 1e-3);
        assert!(receipt_probability(50.0, 250.0, 2.7, 4.0) > 0.99);
        assert!(receipt_probability(600.0, 250.0, 2.7, 4.0) < 0.05);
        // Deterministic when sigma = 0.
        assert_eq!(receipt_probability(200.0, 250.0, 2.7, 0.0), 1.0);
        assert_eq!(receipt_probability(300.0, 250.0, 2.7, 0.0), 0.0);
    }

    #[test]
    fn receipt_probability_monotone_in_distance() {
        let mut last = 1.1;
        for d in (1..30).map(|i| i as f64 * 25.0) {
            let p = receipt_probability(d, 250.0, 2.7, 6.0);
            assert!(p <= last + 1e-12);
            last = p;
        }
    }

    #[test]
    fn model_struct_wraps_functions() {
        let m = LinkDurationModel::new(5.0, 2.0, -50.0, R);
        assert!(m.expected_duration() > 0.0);
        assert!(m.availability(5.0) > m.availability(60.0));
        // Separation clamping.
        let clamped = LinkDurationModel::new(5.0, 2.0, 500.0, R);
        assert_eq!(clamped.separation, R);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_range_rejected() {
        let _ = mean_link_duration(0.0, 5.0, 0.0);
    }
}
