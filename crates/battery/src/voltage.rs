//! Terminal voltage model.
//!
//! Terminal voltage is the quantity the prototype's CR Magnetics voltage
//! transducers report and the only state the PLC can observe directly, so
//! the controller crates treat it as the primary health signal. We model it
//! as a linear open-circuit voltage over the *available-well* fill level
//! (not total SoC) plus an ohmic drop, which reproduces the sag-and-recover
//! traces of Fig. 4-b and Fig. 14.

use ins_sim::units::{Amps, Volts};

use crate::params::BatteryParams;

/// Open-circuit voltage at the given available-well fill level
/// (`available_fraction` from the KiBaM state, in `[0, 1]`).
///
/// Using the available well rather than total SoC makes OCV dip under
/// sustained load and creep back during recovery, matching observed
/// lead-acid behaviour.
#[must_use]
#[inline]
pub fn open_circuit(params: &BatteryParams, available_fraction: f64) -> Volts {
    let x = available_fraction.clamp(0.0, 1.0);
    // Steep collapse as the available well empties: negligible above ~15 %
    // fill, up to `ocv_knee` deep at 0 %. This is what drives a drained
    // unit across the protection cutoff.
    let collapse = params.ocv_knee * (1.0 - x).powi(16);
    params.ocv_empty + (params.ocv_full - params.ocv_empty) * x - collapse
}

/// Terminal voltage under a signed current
/// (positive = discharge, negative = charge).
///
/// Discharge subtracts the IR drop across [`BatteryParams::r_discharge`];
/// charge adds the drop across [`BatteryParams::r_charge`], clamped at the
/// constant-voltage limit the charger enforces.
#[must_use]
#[inline]
pub fn terminal(params: &BatteryParams, available_fraction: f64, current: Amps) -> Volts {
    let ocv = open_circuit(params, available_fraction);
    if current.value() >= 0.0 {
        ocv - current * params.r_discharge
    } else {
        (ocv + current.abs() * params.r_charge).min(params.cv_limit)
    }
}

/// `true` when the terminal voltage under the given load has fallen to the
/// protection cutoff — the condition that forces a unit offline (§2.3).
#[must_use]
#[inline]
pub fn at_cutoff(params: &BatteryParams, available_fraction: f64, current: Amps) -> bool {
    terminal(params, available_fraction, current) <= params.cutoff_voltage
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ocv_interpolates_linearly_away_from_the_knee() {
        let p = BatteryParams::ub1280();
        assert_eq!(open_circuit(&p, 1.0), p.ocv_full);
        let mid = open_circuit(&p, 0.5);
        assert!((mid.value() - 12.4).abs() < 1e-3);
        // At 0 % the knee pulls the curve a full `ocv_knee` down.
        let empty = open_circuit(&p, 0.0);
        assert!((empty.value() - (p.ocv_empty - p.ocv_knee).value()).abs() < 1e-9);
    }

    #[test]
    fn ocv_knee_collapses_only_near_empty() {
        let p = BatteryParams::ub1280();
        let at_30 = open_circuit(&p, 0.3).value();
        let linear_at_30 = p.ocv_empty.value() + 0.3 * (p.ocv_full - p.ocv_empty).value();
        assert!(
            (at_30 - linear_at_30).abs() < 0.01,
            "knee must be invisible at 30 %"
        );
        let at_2 = open_circuit(&p, 0.02).value();
        let linear_at_2 = p.ocv_empty.value() + 0.02 * (p.ocv_full - p.ocv_empty).value();
        assert!(linear_at_2 - at_2 > 1.0, "knee must bite hard at 2 %");
    }

    #[test]
    fn ocv_clamps_out_of_range_inputs() {
        let p = BatteryParams::ub1280();
        assert_eq!(open_circuit(&p, -0.5), open_circuit(&p, 0.0));
        assert_eq!(open_circuit(&p, 1.5), p.ocv_full);
    }

    #[test]
    fn discharge_sags_charge_rises() {
        let p = BatteryParams::ub1280();
        let rest = terminal(&p, 0.8, Amps::ZERO);
        let loaded = terminal(&p, 0.8, Amps::new(20.0));
        let charging = terminal(&p, 0.8, Amps::new(-8.75));
        assert!(loaded < rest);
        assert!(charging > rest);
        assert!((rest.value() - loaded.value() - 20.0 * 0.011).abs() < 1e-9);
    }

    #[test]
    fn charge_voltage_clamped_at_cv_limit() {
        let p = BatteryParams::ub1280();
        let v = terminal(&p, 1.0, Amps::new(-200.0));
        assert_eq!(v, p.cv_limit);
    }

    #[test]
    fn cutoff_triggers_under_heavy_load_on_empty_well() {
        let p = BatteryParams::ub1280();
        assert!(!at_cutoff(&p, 0.9, Amps::new(20.0)));
        // Near-empty available well plus a heavy load dips below 10.8 V.
        assert!(at_cutoff(&p, 0.0, Amps::new(105.0)));
    }
}
