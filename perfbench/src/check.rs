//! Output checks: `Report` invariants and stable fingerprints for the
//! like-with-like guard.

use vanet_core::Report;
use vanet_sim::StableHasher;

/// The invariants every finished run's `Report` must satisfy; `events` is
/// the run's processed event count, when the run was driven directly.
///
/// # Errors
///
/// Names the first violated invariant.
pub fn report_invariants(report: &Report, events: Option<u64>) -> Result<(), String> {
    if report.data_delivered > report.data_sent {
        return Err(format!(
            "{} on {}: delivered {} > originated {}",
            report.protocol, report.scenario, report.data_delivered, report.data_sent
        ));
    }
    let pdr = if report.data_sent == 0 {
        0.0
    } else {
        report.data_delivered as f64 / report.data_sent as f64
    };
    if report.delivery_ratio.to_bits() != pdr.to_bits() {
        return Err(format!(
            "{} on {}: pdr {} != delivered/originated {}",
            report.protocol, report.scenario, report.delivery_ratio, pdr
        ));
    }
    if events == Some(0) {
        return Err(format!(
            "{} on {}: no events processed",
            report.protocol, report.scenario
        ));
    }
    Ok(())
}

/// Feeds every field of `report` into `hasher`, floats by bit pattern.
pub fn hash_report(hasher: &mut StableHasher, report: &Report) {
    hasher.write_str(&report.protocol);
    hasher.write_str(&report.scenario);
    for value in [
        report.data_sent,
        report.data_delivered,
        report.duplicate_deliveries,
        report.control_packets,
        report.control_bytes,
        report.data_transmissions,
        report.route_errors,
        report.drops,
        report.bundles_stored,
        report.bundles_forwarded,
        report.bundles_expired,
        report.bundles_evicted,
        report.custody_transfers,
        report.buffer_peak,
    ] {
        hasher.write_u64(value);
    }
    for value in [
        report.delivery_ratio,
        report.avg_delay_s,
        report.max_delay_s,
        report.avg_hops,
        report.control_per_delivered,
        report.transmissions_per_delivered,
        report.avg_neighbors,
    ] {
        hasher.write_f64(value);
    }
}

/// The fingerprint of a workload's reports, in run order.
#[must_use]
pub fn fingerprint<'a>(reports: impl IntoIterator<Item = &'a Report>) -> u64 {
    let mut hasher = StableHasher::new();
    for report in reports {
        hash_report(&mut hasher, report);
    }
    hasher.finish()
}

/// Packet delivery ratio summed over `reports`: delivered / originated.
#[must_use]
pub fn pooled_pdr<'a>(reports: impl IntoIterator<Item = &'a Report>) -> f64 {
    let (mut sent, mut delivered) = (0u64, 0u64);
    for report in reports {
        sent += report.data_sent;
        delivered += report.data_delivered;
    }
    if sent == 0 {
        0.0
    } else {
        delivered as f64 / sent as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_core::Metrics;
    use vanet_sim::{NodeId, PacketId, SimTime};

    fn report(sent: u64, delivered: u64) -> Report {
        let mut m = Metrics::new();
        for i in 0..sent {
            m.record_origination(PacketId(i + 1), NodeId(0), SimTime::ZERO);
        }
        for i in 0..delivered {
            m.record_delivery(PacketId(i + 1), 1, SimTime::from_secs(0.1));
        }
        m.report("P", "S")
    }

    #[test]
    fn invariants_accept_a_consistent_report_and_name_violations() {
        assert!(report_invariants(&report(4, 1), Some(10)).is_ok());
        assert!(report_invariants(&report(4, 1), Some(0)).is_err());
        let mut bad = report(4, 1);
        bad.delivery_ratio = 0.3;
        assert!(report_invariants(&bad, None).unwrap_err().contains("pdr"));
        bad.data_delivered = 5;
        assert!(report_invariants(&bad, None)
            .unwrap_err()
            .contains("delivered 5 > originated 4"));
    }

    #[test]
    fn fingerprint_sees_every_field_and_the_order() {
        let a = report(4, 1);
        let mut b = a.clone();
        b.avg_neighbors += 1e-12;
        assert_ne!(fingerprint([&a]), fingerprint([&b]));
        let c = report(3, 2);
        assert_ne!(fingerprint([&a, &c]), fingerprint([&c, &a]));
        assert_eq!(fingerprint([&a, &c]), fingerprint([&a.clone(), &c.clone()]));
    }

    #[test]
    fn pooled_pdr_sums_before_dividing() {
        let pdr = pooled_pdr([&report(4, 1), &report(6, 6)]);
        assert!((pdr - 0.7).abs() < 1e-12);
        assert_eq!(pooled_pdr(std::iter::empty()), 0.0);
    }
}
