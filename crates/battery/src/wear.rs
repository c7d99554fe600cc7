//! Ampere-hour throughput wear accounting.
//!
//! §2.2 (citing extensive VRLA cycle-life testing \[56\]) notes that "the
//! aggregated electric charges (Ah) that flow through the e-Buffer is
//! almost constant for a given battery unit before it wears out". The
//! spatial power manager therefore balances *discharge throughput* across
//! units (Eq. 1) and the paper reports "expected e-Buffer service life" as
//! one of its headline metrics (Fig. 19). This module implements that
//! bookkeeping.

use ins_sim::units::AmpHours;

/// Lifetime wear ledger of one battery unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WearLedger {
    discharge_throughput: AmpHours,
    charge_throughput: AmpHours,
    deep_cycles: u64,
}

impl WearLedger {
    /// Creates a fresh ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records discharged charge (the paper's `AhT[i]` usage statistic).
    pub fn record_discharge(&mut self, amount: AmpHours) {
        debug_assert!(amount.value() >= 0.0);
        self.discharge_throughput += amount;
    }

    /// Records accepted charging charge.
    pub fn record_charge(&mut self, amount: AmpHours) {
        debug_assert!(amount.value() >= 0.0);
        self.charge_throughput += amount;
    }

    /// Records one completed discharge→charge cycle.
    pub fn record_cycle(&mut self) {
        self.deep_cycles += 1;
    }

    /// Total ampere-hours discharged over the unit's life so far.
    #[must_use]
    #[inline]
    pub fn discharge_throughput(&self) -> AmpHours {
        self.discharge_throughput
    }

    /// Total ampere-hours accepted while charging.
    #[must_use]
    pub fn charge_throughput(&self) -> AmpHours {
        self.charge_throughput
    }

    /// Completed discharge→charge cycles.
    #[must_use]
    pub fn deep_cycles(&self) -> u64 {
        self.deep_cycles
    }

    /// Fraction of the lifetime discharge budget consumed, in `[0, 1]`.
    #[must_use]
    pub fn wear_fraction(&self, lifetime_budget: AmpHours) -> f64 {
        if lifetime_budget.value() <= 0.0 {
            return 1.0;
        }
        (self.discharge_throughput / lifetime_budget).clamp(0.0, 1.0)
    }

    /// `true` once the throughput budget is exhausted.
    #[must_use]
    pub fn is_worn_out(&self, lifetime_budget: AmpHours) -> bool {
        self.discharge_throughput >= lifetime_budget
    }
}

/// Expected remaining service life, in days, of a unit that has consumed
/// `used` of its `budget` over `elapsed_days`, capped by the calendar
/// (float) life `float_life_days`.
///
/// Extrapolates the observed average daily throughput forward: this is the
/// "expected service life" metric of Fig. 19. A unit with no recorded
/// usage is limited only by its float life.
#[must_use]
pub fn expected_service_life_days(
    budget: AmpHours,
    used: AmpHours,
    elapsed_days: f64,
    float_life_days: f64,
) -> f64 {
    let remaining_float = (float_life_days - elapsed_days).max(0.0);
    if used.value() <= 0.0 || elapsed_days <= 0.0 {
        return remaining_float;
    }
    let daily = used.value() / elapsed_days;
    let remaining_budget = (budget.value() - used.value()).max(0.0);
    (remaining_budget / daily).min(remaining_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut w = WearLedger::new();
        w.record_discharge(AmpHours::new(10.0));
        w.record_discharge(AmpHours::new(5.0));
        w.record_charge(AmpHours::new(12.0));
        w.record_cycle();
        assert_eq!(w.discharge_throughput(), AmpHours::new(15.0));
        assert_eq!(w.charge_throughput(), AmpHours::new(12.0));
        assert_eq!(w.deep_cycles(), 1);
    }

    #[test]
    fn wear_fraction_and_wearout() {
        let mut w = WearLedger::new();
        let budget = AmpHours::new(100.0);
        w.record_discharge(AmpHours::new(25.0));
        assert!((w.wear_fraction(budget) - 0.25).abs() < 1e-12);
        assert!(!w.is_worn_out(budget));
        w.record_discharge(AmpHours::new(80.0));
        assert_eq!(w.wear_fraction(budget), 1.0);
        assert!(w.is_worn_out(budget));
    }

    #[test]
    fn zero_budget_is_always_worn() {
        let w = WearLedger::new();
        assert_eq!(w.wear_fraction(AmpHours::ZERO), 1.0);
    }

    #[test]
    fn service_life_extrapolates_daily_usage() {
        // 10 Ah/day against a 1000 Ah budget with 100 Ah used → 90 days.
        let d =
            expected_service_life_days(AmpHours::new(1000.0), AmpHours::new(100.0), 10.0, 10_000.0);
        assert!((d - 90.0).abs() < 1e-9);
    }

    #[test]
    fn service_life_capped_by_float_life() {
        let d =
            expected_service_life_days(AmpHours::new(1_000_000.0), AmpHours::new(1.0), 10.0, 100.0);
        assert_eq!(d, 90.0);
    }

    #[test]
    fn unused_unit_limited_by_float_life() {
        let d = expected_service_life_days(AmpHours::new(1000.0), AmpHours::ZERO, 0.0, 1825.0);
        assert_eq!(d, 1825.0);
    }

    #[test]
    fn gentler_usage_lives_longer() {
        let heavy =
            expected_service_life_days(AmpHours::new(8750.0), AmpHours::new(70.0), 1.0, 1825.0);
        let gentle =
            expected_service_life_days(AmpHours::new(8750.0), AmpHours::new(35.0), 1.0, 1825.0);
        assert!(gentle > heavy);
    }
}
