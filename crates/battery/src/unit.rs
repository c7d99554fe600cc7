//! A complete battery unit: kinetics + voltage + charging + wear.
//!
//! [`BatteryUnit`] is the object the power-management layer manipulates —
//! one "battery cabinet" in the paper's terminology, individually switchable
//! through the relay network.

use ins_sim::units::{AmpHours, Amps, Hours, Ohms, Soc, Volts, WattHours, Watts};

use crate::charge::{acceptance_limit, split_applied_current};
use crate::kibam::KibamState;
use crate::params::BatteryParams;
use crate::voltage;
use crate::wear::{expected_service_life_days, WearLedger};

/// Identifier of a battery unit within the e-Buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BatteryId(pub usize);

impl core::fmt::Display for BatteryId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "battery#{}", self.0)
    }
}

/// Direction of the last non-trivial current flow, used to detect
/// discharge→charge cycle boundaries for wear accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowDirection {
    Idle,
    Charging,
    Discharging,
}

/// Electrical health of a battery unit.
///
/// Parameter-level degradation (capacity fade, elevated resistance) keeps
/// the unit `Healthy` — it still sources and sinks current, just worse.
/// `FailedOpen` is the terminal state: the internal connection is broken,
/// no current flows in either direction, and the terminals read dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitHealth {
    /// Operating (possibly with degraded parameters).
    Healthy,
    /// Open-circuit failure: electrically absent until replaced.
    FailedOpen,
}

/// Result of one discharge step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DischargeOutcome {
    /// Charge actually delivered through the terminals.
    pub delivered: AmpHours,
    /// Terminal voltage under load at the end of the step.
    pub voltage: Volts,
    /// `true` if the available well emptied during the step.
    pub exhausted: bool,
}

/// Result of one charge step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeOutcome {
    /// Current that actually entered the cells.
    pub accepted: Amps,
    /// Current lost to gassing.
    pub gassed: Amps,
    /// Terminal voltage while charging at the end of the step.
    pub voltage: Volts,
}

/// One independently switchable battery unit.
///
/// # Examples
///
/// ```
/// use ins_battery::{BatteryParams, BatteryUnit, BatteryId};
/// use ins_sim::units::{Amps, Hours};
///
/// let mut b = BatteryUnit::new(BatteryId(0), BatteryParams::cabinet_24v());
/// let out = b.discharge(Amps::new(15.0), Hours::new(0.5));
/// assert!(out.delivered.value() > 7.0);
/// assert!(b.soc() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryUnit {
    id: BatteryId,
    params: BatteryParams,
    kibam: KibamState,
    wear: WearLedger,
    direction: FlowDirection,
    time_in_service: Hours,
    health: UnitHealth,
}

impl BatteryUnit {
    /// Creates a fully charged unit.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`BatteryParams::validate`].
    #[must_use]
    pub fn new(id: BatteryId, params: BatteryParams) -> Self {
        Self::with_soc(id, params, Soc::FULL)
    }

    /// Creates a unit at the given rested state of charge.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`BatteryParams::validate`].
    #[must_use]
    pub fn with_soc(id: BatteryId, params: BatteryParams, soc: Soc) -> Self {
        params
            .validate()
            .unwrap_or_else(|e| panic!("invalid battery parameters: {e}"));
        Self {
            id,
            params,
            kibam: KibamState::with_soc(
                params.capacity,
                params.kibam_c,
                params.kibam_k_per_hour,
                soc,
            ),
            wear: WearLedger::new(),
            direction: FlowDirection::Idle,
            time_in_service: Hours::ZERO,
            health: UnitHealth::Healthy,
        }
    }

    /// The unit's identifier.
    #[must_use]
    #[inline]
    pub fn id(&self) -> BatteryId {
        self.id
    }

    /// The unit's parameter set.
    #[must_use]
    #[inline]
    pub fn params(&self) -> &BatteryParams {
        &self.params
    }

    /// Electrical health of the unit.
    #[must_use]
    pub fn health(&self) -> UnitHealth {
        self.health
    }

    /// `true` when the unit has failed open-circuit.
    #[must_use]
    #[inline]
    pub fn is_failed(&self) -> bool {
        self.health == UnitHealth::FailedOpen
    }

    /// Injects an open-circuit failure: the unit stops sourcing and
    /// sinking current and its terminals read dead until replacement.
    pub fn fail_open_circuit(&mut self) {
        self.health = UnitHealth::FailedOpen;
        self.direction = FlowDirection::Idle;
    }

    /// Injects sudden capacity fade: usable capacity drops to `fraction`
    /// of its current value (see [`KibamState::scale_capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn apply_capacity_fade(&mut self, fraction: f64) {
        self.kibam.scale_capacity(fraction);
    }

    /// Injects elevated internal resistance: both charge and discharge
    /// resistance multiply by `factor`. Terminal voltage sags harder under
    /// load, so cutoff arrives earlier and charging gets less efficient.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn degrade_resistance(&mut self, factor: f64) {
        assert!(factor >= 1.0, "resistance degradation factor must be >= 1");
        self.params.r_discharge = Ohms::new(self.params.r_discharge.value() * factor);
        self.params.r_charge = Ohms::new(self.params.r_charge.value() * factor);
    }

    /// Total state of charge.
    #[must_use]
    #[inline]
    pub fn soc(&self) -> Soc {
        self.kibam.soc()
    }

    /// Fill level of the KiBaM available well.
    #[must_use]
    #[inline]
    pub fn available_fraction(&self) -> Soc {
        self.kibam.available_fraction()
    }

    /// Stored charge across both wells.
    #[must_use]
    #[inline]
    pub fn stored_charge(&self) -> AmpHours {
        self.kibam.stored_charge()
    }

    /// Stored energy at nominal voltage — the "energy availability" unit
    /// used by Fig. 18. A failed-open unit reports zero: its charge is
    /// physically present but unreachable.
    #[must_use]
    #[inline]
    pub fn stored_energy(&self) -> WattHours {
        if self.is_failed() {
            return WattHours::ZERO;
        }
        self.kibam.stored_charge() * self.params.nominal_voltage
    }

    /// Open-circuit (rest) terminal voltage. Dead (zero) when failed open:
    /// this is the observable a health monitor keys on.
    #[must_use]
    #[inline]
    pub fn open_circuit_voltage(&self) -> Volts {
        if self.is_failed() {
            return Volts::ZERO;
        }
        voltage::open_circuit(&self.params, self.kibam.available_fraction().value())
    }

    /// Terminal voltage under a signed current (positive = discharge).
    /// Dead (zero) when failed open.
    #[must_use]
    #[inline]
    pub fn terminal_voltage(&self, current: Amps) -> Volts {
        if self.is_failed() {
            return Volts::ZERO;
        }
        voltage::terminal(
            &self.params,
            self.kibam.available_fraction().value(),
            current,
        )
    }

    /// `true` when the unit cannot sustain `current` without dropping to
    /// the protection cutoff voltage. Always `true` once failed open.
    #[must_use]
    #[inline]
    pub fn at_cutoff(&self, current: Amps) -> bool {
        if self.is_failed() {
            return true;
        }
        voltage::at_cutoff(
            &self.params,
            self.kibam.available_fraction().value(),
            current,
        )
    }

    /// `true` when the available well is exhausted.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.kibam.is_exhausted()
    }

    /// Lifetime wear ledger.
    #[must_use]
    pub fn wear(&self) -> &WearLedger {
        &self.wear
    }

    /// Total lifetime discharge throughput (the paper's `AhT[i]`).
    #[must_use]
    #[inline]
    pub fn discharge_throughput(&self) -> AmpHours {
        self.wear.discharge_throughput()
    }

    /// Fraction of the lifetime throughput budget consumed.
    #[must_use]
    pub fn wear_fraction(&self) -> f64 {
        self.wear.wear_fraction(self.params.lifetime_throughput)
    }

    /// Hours this unit has existed in the simulation (any mode).
    #[must_use]
    pub fn time_in_service(&self) -> Hours {
        self.time_in_service
    }

    /// Expected remaining service life in days given usage so far.
    #[must_use]
    pub fn expected_service_life_days(&self) -> f64 {
        expected_service_life_days(
            self.params.lifetime_throughput,
            self.wear.discharge_throughput(),
            self.time_in_service.value() / 24.0,
            self.params.float_life_days,
        )
    }

    /// Discharges at `current` for `dt`, updating kinetics and wear.
    ///
    /// The delivered charge may be less than `current × dt` if the
    /// available well empties mid-step.
    ///
    /// # Panics
    ///
    /// Panics if `current` is negative — use [`BatteryUnit::charge`].
    pub fn discharge(&mut self, current: Amps, dt: Hours) -> DischargeOutcome {
        assert!(
            current.value() >= 0.0,
            "discharge current must be non-negative"
        );
        self.time_in_service += dt;
        if self.is_failed() {
            // Open circuit: no current flows; internal kinetics still relax.
            self.kibam.step(Amps::ZERO, dt);
            return DischargeOutcome {
                delivered: AmpHours::ZERO,
                voltage: Volts::ZERO,
                exhausted: false,
            };
        }
        if current.value() > 0.0 {
            self.direction = FlowDirection::Discharging;
        }
        let delivered = self.kibam.step(current, dt);
        self.wear.record_discharge(delivered);
        DischargeOutcome {
            delivered,
            voltage: self.terminal_voltage(current),
            exhausted: self.kibam.is_exhausted(),
        }
    }

    /// Applies a charging current for `dt`, honouring the acceptance
    /// envelope and deducting gassing losses.
    ///
    /// Crossing from discharging to charging records one cycle in the wear
    /// ledger.
    ///
    /// # Panics
    ///
    /// Panics if `applied` is negative — use [`BatteryUnit::discharge`].
    pub fn charge(&mut self, applied: Amps, dt: Hours) -> ChargeOutcome {
        assert!(
            applied.value() >= 0.0,
            "charge current must be non-negative"
        );
        self.time_in_service += dt;
        if self.is_failed() {
            self.kibam.step(Amps::ZERO, dt);
            return ChargeOutcome {
                accepted: Amps::ZERO,
                gassed: Amps::ZERO,
                voltage: Volts::ZERO,
            };
        }
        if applied.value() > 0.0 {
            if self.direction == FlowDirection::Discharging {
                self.wear.record_cycle();
            }
            self.direction = FlowDirection::Charging;
        }
        let split = split_applied_current(&self.params, self.kibam.soc(), applied);
        let moved = self.kibam.step(-split.accepted, dt);
        let stored = AmpHours::new(-moved.value().min(0.0));
        self.wear.record_charge(stored);
        // Report the current that actually landed in the wells, which may
        // be below the envelope figure if the wells filled mid-step.
        let accepted = if dt.value() > 0.0 {
            stored / dt
        } else {
            Amps::ZERO
        };
        ChargeOutcome {
            accepted,
            gassed: split.gassed,
            voltage: self.terminal_voltage(-accepted),
        }
    }

    /// Rests the unit for `dt` (no terminal current; recovery continues).
    #[inline]
    pub fn rest(&mut self, dt: Hours) {
        self.time_in_service += dt;
        self.direction = FlowDirection::Idle;
        self.kibam.step(Amps::ZERO, dt);
    }

    /// Maximum charging current the unit will currently accept.
    /// Zero once failed open.
    #[must_use]
    #[inline]
    pub fn acceptance_limit(&self) -> Amps {
        if self.is_failed() {
            return Amps::ZERO;
        }
        acceptance_limit(&self.params, self.kibam.soc())
    }

    /// Maximum power a charger should currently offer this unit: the
    /// acceptance-limit current at the charging terminal voltage. This is
    /// the per-unit `PPC` in the paper's `N = PG / PPC` batch sizing.
    #[must_use]
    pub fn peak_charge_power(&self) -> Watts {
        let i = self.acceptance_limit();
        self.terminal_voltage(-i) * i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_at(soc: f64) -> BatteryUnit {
        BatteryUnit::with_soc(BatteryId(1), BatteryParams::cabinet_24v(), Soc::new(soc))
    }

    #[test]
    fn new_unit_is_full_and_healthy() {
        let b = BatteryUnit::new(BatteryId(3), BatteryParams::cabinet_24v());
        assert_eq!(b.id(), BatteryId(3));
        assert!((b.soc().value() - 1.0).abs() < 1e-12);
        assert_eq!(b.wear_fraction(), 0.0);
        assert!(!b.is_exhausted());
        assert_eq!(b.id().to_string(), "battery#3");
        assert!((b.stored_energy().value() - 35.0 * 24.0).abs() < 1e-6);
    }

    #[test]
    fn discharge_tracks_wear_and_voltage() {
        let mut b = unit_at(1.0);
        let out = b.discharge(Amps::new(20.0), Hours::new(0.25));
        assert!((out.delivered.value() - 5.0).abs() < 1e-6);
        assert!((b.discharge_throughput().value() - 5.0).abs() < 1e-6);
        assert!(out.voltage < b.open_circuit_voltage());
        assert!(!out.exhausted);
    }

    #[test]
    fn charge_after_discharge_counts_a_cycle() {
        let mut b = unit_at(0.9);
        b.discharge(Amps::new(10.0), Hours::new(0.5));
        assert_eq!(b.wear().deep_cycles(), 0);
        b.charge(Amps::new(5.0), Hours::new(0.5));
        assert_eq!(b.wear().deep_cycles(), 1);
        // Continuing to charge does not double-count.
        b.charge(Amps::new(5.0), Hours::new(0.5));
        assert_eq!(b.wear().deep_cycles(), 1);
    }

    #[test]
    fn charge_raises_soc_but_respects_envelope() {
        let mut b = unit_at(0.5);
        let out = b.charge(Amps::new(100.0), Hours::new(0.1));
        // Applied far above CC limit: accepted clamps to 8.75 A.
        assert!((out.accepted.value() - 8.75).abs() < 1e-9);
        assert!(b.soc() > 0.5);
    }

    #[test]
    fn near_full_trickle_is_mostly_gassed() {
        let mut b = unit_at(0.95);
        let out = b.charge(Amps::new(3.0), Hours::new(0.01));
        assert!(out.gassed.value() > out.accepted.value());
    }

    #[test]
    fn rest_recovers_available_fraction() {
        let mut b = unit_at(1.0);
        while !b.is_exhausted() {
            b.discharge(Amps::new(35.0), Hours::new(1.0 / 120.0));
        }
        let low = b.available_fraction();
        b.rest(Hours::new(1.0));
        assert!(b.available_fraction() > low);
    }

    #[test]
    fn service_life_shrinks_with_usage() {
        let mut gentle = unit_at(1.0);
        let mut heavy = unit_at(1.0);
        for _ in 0..24 {
            gentle.discharge(Amps::new(2.0), Hours::new(1.0));
            heavy.discharge(Amps::new(8.0), Hours::new(1.0));
            gentle.charge(Amps::new(2.0), Hours::new(1.0));
            heavy.charge(Amps::new(8.0), Hours::new(1.0));
        }
        assert!(heavy.expected_service_life_days() < gentle.expected_service_life_days());
        assert!(heavy.wear_fraction() > gentle.wear_fraction());
    }

    #[test]
    fn peak_charge_power_scales_with_acceptance() {
        let empty = unit_at(0.2);
        let full = unit_at(0.97);
        assert!(empty.peak_charge_power() > full.peak_charge_power());
        // ~8.75 A × ~25 V ≈ 220 W for the 24 V cabinet in bulk phase.
        assert!(empty.peak_charge_power().value() > 180.0);
        assert!(empty.peak_charge_power().value() < 260.0);
    }

    #[test]
    fn open_circuit_failure_makes_unit_electrically_absent() {
        let mut b = unit_at(0.8);
        assert_eq!(b.health(), UnitHealth::Healthy);
        b.fail_open_circuit();
        assert!(b.is_failed());

        let out = b.discharge(Amps::new(20.0), Hours::new(0.5));
        assert_eq!(out.delivered, AmpHours::ZERO);
        assert_eq!(out.voltage, Volts::ZERO);
        let out = b.charge(Amps::new(5.0), Hours::new(0.5));
        assert_eq!(out.accepted, Amps::ZERO);
        assert_eq!(out.gassed, Amps::ZERO);

        assert_eq!(b.terminal_voltage(Amps::new(10.0)), Volts::ZERO);
        assert_eq!(b.open_circuit_voltage(), Volts::ZERO);
        assert!(b.at_cutoff(Amps::new(1.0)));
        assert_eq!(b.acceptance_limit(), Amps::ZERO);
        assert_eq!(b.peak_charge_power(), Watts::ZERO);
        assert_eq!(b.stored_energy(), WattHours::ZERO);
        // Internal state survives (for post-mortem inspection).
        assert!(b.soc() > 0.7);
    }

    #[test]
    fn capacity_fade_shrinks_deliverable_charge() {
        let mut faded = unit_at(1.0);
        let healthy = unit_at(1.0);
        faded.apply_capacity_fade(0.5);
        assert!(faded.stored_energy().value() < 0.6 * healthy.stored_energy().value());
        assert!((faded.soc().value() - 1.0).abs() < 1e-9, "full stays full");
    }

    #[test]
    fn resistance_degradation_sags_voltage_harder() {
        let mut degraded = unit_at(0.6);
        let healthy = unit_at(0.6);
        degraded.degrade_resistance(3.0);
        let i = Amps::new(20.0);
        assert!(degraded.terminal_voltage(i) < healthy.terminal_voltage(i));
        // Open-circuit voltage is unaffected — only loaded behaviour is.
        assert_eq!(
            degraded.open_circuit_voltage(),
            healthy.open_circuit_voltage()
        );
    }

    #[test]
    #[should_panic(expected = "resistance degradation factor must be >= 1")]
    fn resistance_degradation_rejects_improvement() {
        unit_at(0.5).degrade_resistance(0.5);
    }

    #[test]
    #[should_panic(expected = "discharge current must be non-negative")]
    fn discharge_rejects_negative_current() {
        unit_at(0.5).discharge(Amps::new(-1.0), Hours::new(0.1));
    }

    #[test]
    #[should_panic(expected = "charge current must be non-negative")]
    fn charge_rejects_negative_current() {
        unit_at(0.5).charge(Amps::new(-1.0), Hours::new(0.1));
    }

    #[test]
    fn cutoff_reached_when_drained_under_load() {
        let mut b = unit_at(0.35);
        let heavy = Amps::new(45.0);
        let mut steps = 0;
        while !b.at_cutoff(heavy) && steps < 100_000 {
            b.discharge(heavy, Hours::new(1.0 / 360.0));
            steps += 1;
        }
        assert!(b.at_cutoff(heavy), "heavy load must eventually hit cutoff");
    }
}
