//! Request accounting shared by the fleet router and the service's
//! admission control.
//!
//! Every offered request resolves to exactly one fate — served in full,
//! served degraded, shed by policy, or failed — so once nothing is in
//! flight `offered == served + served_degraded + shed + failed`. Nothing
//! is ever dropped silently.

/// Request accounting for one traffic class (stream or batch).
///
/// The fleet benchmark digests `FleetMetrics`' `Debug` form, which
/// prints this type's name and field order: renaming either moves it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClassCounters {
    /// Requests offered.
    pub offered: u64,
    /// Requests served in full.
    pub served: u64,
    /// Requests served at reduced quality: partially under scarce
    /// capacity (fleet), or while safe mode ran (service).
    pub served_degraded: u64,
    /// Requests dropped by policy (always counted, never silent).
    pub shed: u64,
    /// Requests that could not be served: every routing attempt failed
    /// (fleet), or backpressure refused them (service).
    pub failed: u64,
    /// GB offered.
    pub offered_gb: f64,
    /// GB served (full and degraded).
    pub served_gb: f64,
}

impl ClassCounters {
    /// Requests that resolved to *some* fate. The zero-silent-drop
    /// contract is `resolved() == offered` once nothing is in flight.
    #[must_use]
    pub fn resolved(&self) -> u64 {
        self.served + self.served_degraded + self.shed + self.failed
    }

    /// Served fraction of offered volume, in `[0, 1]`; 1.0 when nothing
    /// was offered.
    #[must_use]
    pub fn goodput_fraction(&self) -> f64 {
        if self.offered_gb <= 0.0 {
            1.0
        } else {
            self.served_gb / self.offered_gb
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_sums_all_outcomes() {
        let c = ClassCounters {
            offered: 10,
            served: 5,
            served_degraded: 2,
            shed: 1,
            failed: 2,
            offered_gb: 1.0,
            served_gb: 0.68,
        };
        assert_eq!(c.resolved(), 10);
        assert!((c.goodput_fraction() - 0.68).abs() < 1e-12);
    }

    #[test]
    fn empty_class_has_unit_goodput() {
        let c = ClassCounters::default();
        assert!((c.goodput_fraction() - 1.0).abs() < 1e-12);
    }
}
