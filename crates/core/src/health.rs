//! e-Buffer health monitoring and quarantine.
//!
//! The PLC cannot see *inside* a battery cabinet: the only evidence of a
//! failed unit is what the sense lines report. [`HealthMonitor`] watches
//! the two observable signatures of trouble —
//!
//! * **voltage divergence** — a terminal voltage that has collapsed far
//!   below the pack's nominal level while the unit still *claims* a
//!   healthy state of charge (the signature of an open-circuit failure:
//!   coulomb counting keeps reporting the last known charge, but the
//!   terminals read nothing),
//! * **stale telemetry** — a sense line that has stopped reporting, so
//!   the controller is flying on old data and must not trust the unit,
//!
//! and converts repeated sightings into a sticky **quarantine**. The
//! strike counter gives transient glitches (one noisy sample, a brief
//! telemetry gap) a chance to clear, while persistent faults cross the
//! threshold within a handful of control periods. Quarantined units are
//! excluded from SPM selection until either field service clears them
//! ([`HealthMonitor::clear`]) or their telemetry reads healthy for a full
//! probation streak — which an open-circuit unit, forever reading 0 V,
//! can never achieve.
//!
//! The design intent, per the robustness issue: a fault changes
//! *performance*, never *correctness* — the monitor only ever shrinks
//! the set of units the controller will schedule.

use ins_battery::BatteryId;
use ins_sim::time::SimDuration;
use ins_sim::units::{Soc, Volts};

use crate::spm::UnitView;

/// A terminal voltage below this fraction of the nominal pack voltage
/// counts as collapsed.
const COLLAPSE_FRACTION: f64 = 0.5;

/// Voltage collapse is only *suspicious* while the unit still claims at
/// least this state of charge (a genuinely empty unit sags too).
const MIN_PLAUSIBLE_SOC: Soc = Soc::saturating(0.15);

/// Telemetry older than this is stale: the unit cannot be trusted.
const STALE_LIMIT: SimDuration = SimDuration::from_minutes(5);

/// Consecutive-ish suspicious observations before quarantine (strikes
/// decay one per healthy observation, so brief glitches recover).
pub const QUARANTINE_STRIKES: u32 = 3;

/// Healthy observations in a row that release a quarantined unit back
/// into service (probation): about half an hour at the 1-minute control
/// period.
const RELEASE_STREAK: u32 = 30;

/// The monitor's verdict on one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitCondition {
    /// No current evidence of trouble.
    Healthy,
    /// Recent suspicious observations, not yet enough to quarantine.
    Suspect {
        /// Accumulated strikes (1 to just below the quarantine limit).
        strikes: u32,
    },
    /// Enough strikes accumulated: excluded from scheduling.
    Quarantined,
}

#[derive(Debug, Clone, Copy, Default)]
struct UnitRecord {
    strikes: u32,
    healthy_streak: u32,
    quarantined: bool,
}

/// Tracks per-unit evidence across control periods.
///
/// # Examples
///
/// ```
/// use ins_battery::BatteryId;
/// use ins_core::health::{HealthMonitor, UnitCondition, QUARANTINE_STRIKES};
/// use ins_core::spm::UnitView;
/// use ins_sim::time::SimDuration;
/// use ins_sim::units::{AmpHours, Soc, Volts};
///
/// let mut monitor = HealthMonitor::default();
/// let failed = UnitView {
///     id: BatteryId(0),
///     soc: Soc::new(0.8),             // claims charge…
///     available_fraction: 0.8,
///     discharge_throughput: AmpHours::ZERO,
///     at_cutoff: true,
///     terminal_voltage: Volts::ZERO,  // …but the terminals read nothing
///     telemetry_age: SimDuration::ZERO,
/// };
/// for _ in 0..QUARANTINE_STRIKES {
///     monitor.assess(&[failed], Volts::new(24.0));
/// }
/// assert_eq!(monitor.condition(BatteryId(0)), UnitCondition::Quarantined);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    records: Vec<UnitRecord>,
}

impl HealthMonitor {
    /// Folds one control period's unit views into the evidence and
    /// returns the ids quarantined *by this call* (for event logging).
    pub fn assess(&mut self, units: &[UnitView], pack_voltage: Volts) -> Vec<BatteryId> {
        if self.records.len() < units.len() {
            self.records.resize(units.len(), UnitRecord::default());
        }
        let mut newly_quarantined = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            let record = &mut self.records[i];
            let collapsed =
                unit.terminal_voltage.value() < pack_voltage.value() * COLLAPSE_FRACTION;
            let divergent = collapsed && unit.soc >= MIN_PLAUSIBLE_SOC;
            let stale = unit.telemetry_age > STALE_LIMIT;
            if divergent || stale {
                record.healthy_streak = 0;
                record.strikes = record.strikes.saturating_add(1);
                if !record.quarantined && record.strikes >= QUARANTINE_STRIKES {
                    record.quarantined = true;
                    newly_quarantined.push(unit.id);
                }
            } else {
                record.strikes = record.strikes.saturating_sub(1);
                record.healthy_streak = record.healthy_streak.saturating_add(1);
                if record.quarantined && record.healthy_streak >= RELEASE_STREAK {
                    record.quarantined = false;
                    record.strikes = 0;
                }
            }
        }
        newly_quarantined
    }

    /// The current verdict on `id` (unknown units read healthy).
    #[must_use]
    pub fn condition(&self, id: BatteryId) -> UnitCondition {
        match self.records.get(id.0) {
            Some(r) if r.quarantined => UnitCondition::Quarantined,
            Some(r) if r.strikes > 0 => UnitCondition::Suspect { strikes: r.strikes },
            _ => UnitCondition::Healthy,
        }
    }

    /// `true` when `id` is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, id: BatteryId) -> bool {
        matches!(self.condition(id), UnitCondition::Quarantined)
    }

    /// All quarantined unit ids, ascending.
    #[must_use]
    pub fn quarantined(&self) -> Vec<BatteryId> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.quarantined)
            .map(|(i, _)| BatteryId(i))
            .collect()
    }

    /// Number of units *not* quarantined among the `total` tracked so far.
    #[must_use]
    pub fn usable_count(&self, total: usize) -> usize {
        total.saturating_sub(self.quarantined().len())
    }

    /// Field service: forgets all evidence against `id`.
    pub fn clear(&mut self, id: BatteryId) {
        if let Some(r) = self.records.get_mut(id.0) {
            *r = UnitRecord::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_sim::units::{AmpHours, Soc, Volts};

    fn healthy(id: usize) -> UnitView {
        UnitView {
            id: BatteryId(id),
            soc: Soc::new(0.7),
            available_fraction: 0.7,
            discharge_throughput: AmpHours::ZERO,
            at_cutoff: false,
            terminal_voltage: Volts::new(24.8),
            telemetry_age: SimDuration::ZERO,
        }
    }

    fn open_circuit(id: usize) -> UnitView {
        UnitView {
            terminal_voltage: Volts::ZERO,
            at_cutoff: true,
            ..healthy(id)
        }
    }

    const PACK: Volts = Volts::new(24.0);

    #[test]
    fn healthy_units_stay_healthy() {
        let mut m = HealthMonitor::default();
        for _ in 0..100 {
            assert!(m.assess(&[healthy(0), healthy(1)], PACK).is_empty());
        }
        assert_eq!(m.condition(BatteryId(0)), UnitCondition::Healthy);
        assert_eq!(m.quarantined(), Vec::new());
        assert_eq!(m.usable_count(2), 2);
    }

    #[test]
    fn voltage_divergence_quarantines_after_strikes() {
        let mut m = HealthMonitor::default();
        let views = [healthy(0), open_circuit(1)];
        assert!(m.assess(&views, PACK).is_empty());
        assert_eq!(
            m.condition(BatteryId(1)),
            UnitCondition::Suspect { strikes: 1 }
        );
        assert!(m.assess(&views, PACK).is_empty());
        let newly = m.assess(&views, PACK);
        assert_eq!(newly, vec![BatteryId(1)]);
        assert!(m.is_quarantined(BatteryId(1)));
        assert!(!m.is_quarantined(BatteryId(0)));
        assert_eq!(m.usable_count(2), 1);
        // Quarantine is reported once, then held without re-announcing.
        assert!(m.assess(&views, PACK).is_empty());
        assert!(m.is_quarantined(BatteryId(1)));
    }

    #[test]
    fn empty_unit_sagging_is_not_divergence() {
        // A genuinely depleted unit reads low volts AND low soc: the
        // protection cutoff handles it; health must not quarantine it.
        let mut depleted = healthy(0);
        depleted.soc = Soc::new(0.05);
        depleted.available_fraction = 0.01;
        depleted.terminal_voltage = Volts::new(10.0);
        depleted.at_cutoff = true;
        let mut m = HealthMonitor::default();
        for _ in 0..10 {
            m.assess(&[depleted], PACK);
        }
        assert_eq!(m.condition(BatteryId(0)), UnitCondition::Healthy);
    }

    #[test]
    fn stale_telemetry_strikes_and_recovers() {
        let mut m = HealthMonitor::default();
        let mut stale = healthy(0);
        stale.telemetry_age = SimDuration::from_minutes(10);
        m.assess(&[stale], PACK);
        m.assess(&[stale], PACK);
        assert_eq!(
            m.condition(BatteryId(0)),
            UnitCondition::Suspect { strikes: 2 }
        );
        // Telemetry resumes before the third strike: evidence decays.
        m.assess(&[healthy(0)], PACK);
        m.assess(&[healthy(0)], PACK);
        assert_eq!(m.condition(BatteryId(0)), UnitCondition::Healthy);
    }

    #[test]
    fn probation_releases_a_recovered_unit() {
        let mut m = HealthMonitor::default();
        let mut stale = healthy(0);
        stale.telemetry_age = SimDuration::from_minutes(30);
        for _ in 0..QUARANTINE_STRIKES {
            m.assess(&[stale], PACK);
        }
        assert!(m.is_quarantined(BatteryId(0)));
        // A long healthy streak (telemetry came back) releases it…
        for _ in 0..RELEASE_STREAK {
            m.assess(&[healthy(0)], PACK);
        }
        assert!(!m.is_quarantined(BatteryId(0)));
    }

    #[test]
    fn open_circuit_unit_never_earns_release() {
        let mut m = HealthMonitor::default();
        let views = [open_circuit(0)];
        for _ in 0..200 {
            m.assess(&views, PACK);
        }
        // Terminals read 0 V forever: the probation streak never starts.
        assert!(m.is_quarantined(BatteryId(0)));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut m = HealthMonitor::default();
        for _ in 0..5 {
            m.assess(&[open_circuit(0)], PACK);
        }
        assert!(m.is_quarantined(BatteryId(0)));
        m.clear(BatteryId(0));
        assert_eq!(m.condition(BatteryId(0)), UnitCondition::Healthy);
    }

    #[test]
    fn unknown_ids_read_healthy() {
        let m = HealthMonitor::default();
        assert_eq!(m.condition(BatteryId(99)), UnitCondition::Healthy);
        assert!(!m.is_quarantined(BatteryId(99)));
    }
}
