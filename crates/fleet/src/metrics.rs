//! Fleet-level run metrics.
//!
//! Everything the `fleet_resilience` experiment exports: request
//! accounting per class (with the zero-silent-drop invariant
//! `offered == served + served_degraded + shed + failed` checkable per
//! class), global stream goodput, per-site availability, and the
//! robustness counters (retries, hedges, breaker trips/resets,
//! misrouted energy).

use ins_sim::ledger::ClassCounters;

/// The full metric bundle of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMetrics {
    /// Stream-class accounting.
    pub stream: ClassCounters,
    /// Batch-class accounting.
    pub batch: ClassCounters,
    /// Sequential re-attempts after failed attempts.
    pub retries: u64,
    /// Hedged (duplicated) sends.
    pub hedges: u64,
    /// Hedges where both primary and hedge completed on time.
    pub duplicate_serves: u64,
    /// Energy spent on work that produced no accepted response, Wh.
    pub misrouted_wh: f64,
    /// Fleet-level fault events applied.
    pub fleet_faults: u64,
    /// Per-site fraction of routing ticks the site was routable.
    pub site_availability: Vec<f64>,
    /// Total breaker trips across sites.
    pub breaker_trips: u64,
    /// Total breaker resets (full Half-open → Closed recoveries).
    pub breaker_resets: u64,
}

impl FleetMetrics {
    /// Mean per-site availability; 1.0 for an empty fleet.
    #[must_use]
    pub fn mean_availability(&self) -> f64 {
        if self.site_availability.is_empty() {
            1.0
        } else {
            self.site_availability.iter().sum::<f64>() / self.site_availability.len() as f64
        }
    }

    /// Worst per-site availability; 1.0 for an empty fleet.
    #[must_use]
    pub fn min_availability(&self) -> f64 {
        self.site_availability
            .iter()
            .fold(1.0_f64, |acc, &a| acc.min(a))
    }

    /// The zero-silent-drop contract over both classes.
    #[must_use]
    pub fn all_requests_resolved(&self) -> bool {
        self.stream.resolved() == self.stream.offered && self.batch.resolved() == self.batch.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_aggregates() {
        let m = FleetMetrics {
            stream: ClassCounters::default(),
            batch: ClassCounters::default(),
            retries: 0,
            hedges: 0,
            duplicate_serves: 0,
            misrouted_wh: 0.0,
            fleet_faults: 0,
            site_availability: vec![1.0, 0.5],
            breaker_trips: 0,
            breaker_resets: 0,
        };
        assert!((m.mean_availability() - 0.75).abs() < 1e-12);
        assert!((m.min_availability() - 0.5).abs() < 1e-12);
        assert!(m.all_requests_resolved());
    }
}
