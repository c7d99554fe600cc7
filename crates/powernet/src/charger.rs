//! The solar charge controller.
//!
//! Distributes a solar power budget across the battery units currently on
//! the charge bus. Each unit is fed through its own charger channel (a
//! [`Converter`] with fixed overhead), so the *number* of simultaneously
//! charged units directly affects how much of the budget reaches cells —
//! the efficiency the spatial power manager optimizes.

use ins_battery::BatteryUnit;
use ins_sim::units::{Hours, Watts};

use crate::converter::Converter;

/// Result of one charging step across the charge bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeStep {
    /// Power drawn from the solar bus (inputs of all active channels).
    pub drawn: Watts,
    /// Power that actually landed in battery cells.
    pub stored: Watts,
}

impl ChargeStep {
    /// An idle step (no units, nothing drawn).
    #[must_use]
    pub fn idle() -> Self {
        Self {
            drawn: Watts::ZERO,
            stored: Watts::ZERO,
        }
    }

    /// End-to-end charging efficiency of this step (stored / drawn).
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.drawn.value() <= 0.0 {
            0.0
        } else {
            self.stored / self.drawn
        }
    }
}

/// The charge controller: one converter channel per battery unit.
///
/// # Examples
///
/// ```
/// use ins_powernet::charger::ChargeController;
/// use ins_battery::{BatteryUnit, BatteryId, BatteryParams};
/// use ins_sim::units::{Hours, Soc, Watts};
///
/// let ctrl = ChargeController::prototype();
/// let mut unit = BatteryUnit::with_soc(BatteryId(0), BatteryParams::cabinet_24v(), Soc::new(0.4));
/// let step = ctrl.charge(&mut [&mut unit], Watts::new(250.0), Hours::new(0.5));
/// assert!(step.stored.value() > 0.0);
/// assert!(unit.soc() > 0.4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeController {
    channel: Converter,
}

impl ChargeController {
    /// Creates a controller whose channels all use the given converter.
    #[must_use]
    pub fn new(channel: Converter) -> Self {
        Self { channel }
    }

    /// The prototype's controller (standard charger channels).
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(Converter::charger_channel())
    }

    /// The per-channel converter.
    #[must_use]
    pub fn channel(&self) -> &Converter {
        &self.channel
    }

    /// Charges `units` from a shared solar `budget` for `dt`.
    ///
    /// The budget is divided evenly across channels; power a unit cannot
    /// accept (acceptance envelope) is left unused rather than shifted,
    /// matching a fixed-allocation multi-channel charger. Pass the units
    /// the spatial manager selected — fewer units means less per-channel
    /// overhead and faster net charging.
    pub fn charge(&self, units: &mut [&mut BatteryUnit], budget: Watts, dt: Hours) -> ChargeStep {
        if units.is_empty() || budget.value() <= 0.0 {
            // Without a budget the units are left unstepped, like the
            // load bus's members when no current flows (a known defect:
            // they should rest).
            return ChargeStep::idle();
        }
        let per_channel_input = budget / units.len() as f64;
        let mut drawn = Watts::ZERO;
        let mut stored = Watts::ZERO;
        for unit in units.iter_mut() {
            let channel_out = self.channel.output(per_channel_input);
            // Convert channel power to current at the unit's charging
            // voltage, capped by what the unit will accept.
            let v = unit.terminal_voltage(-unit.acceptance_limit());
            let applied = (channel_out / v).min(unit.acceptance_limit());
            let outcome = unit.charge(applied, dt);
            // The channel only draws what it delivers (plus overhead).
            let used_output =
                outcome.accepted.max(ins_sim::units::Amps::ZERO) * v + outcome.gassed * v;
            drawn += self.channel.input_for(used_output).min(per_channel_input);
            stored += outcome.accepted * v;
        }
        ChargeStep { drawn, stored }
    }
}

impl Default for ChargeController {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_battery::{BatteryId, BatteryParams};
    use ins_sim::units::Soc;

    fn unit_at(id: usize, soc: f64) -> BatteryUnit {
        BatteryUnit::with_soc(BatteryId(id), BatteryParams::cabinet_24v(), Soc::new(soc))
    }

    fn time_to_soc(
        ctrl: &ChargeController,
        units: &mut [BatteryUnit],
        budget: Watts,
        target: f64,
        sequential: bool,
    ) -> f64 {
        let dt = Hours::new(1.0 / 60.0);
        let mut hours = 0.0;
        while units.iter().any(|u| u.soc() < target) && hours < 100.0 {
            if sequential {
                // Concentrate the whole budget on the lowest-SoC unit
                // still below target.
                let idx = units
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| u.soc() < target)
                    .min_by(|a, b| a.1.soc().total_cmp(&b.1.soc()))
                    .map(|(i, _)| i)
                    .unwrap();
                ctrl.charge(&mut [&mut units[idx]], budget, dt);
            } else {
                let mut refs: Vec<&mut BatteryUnit> = units.iter_mut().collect();
                ctrl.charge(&mut refs, budget, dt);
            }
            hours += dt.value();
        }
        hours
    }

    #[test]
    fn charging_raises_soc_and_draws_power() {
        let ctrl = ChargeController::prototype();
        let mut u = unit_at(0, 0.5);
        let step = ctrl.charge(&mut [&mut u], Watts::new(250.0), Hours::new(0.25));
        assert!(u.soc() > 0.5);
        assert!(step.drawn.value() > 0.0);
        assert!(step.stored.value() > 0.0);
        assert!(step.stored < step.drawn, "losses must appear");
        assert!(step.efficiency() > 0.5 && step.efficiency() < 1.0);
    }

    #[test]
    fn idle_cases() {
        let ctrl = ChargeController::prototype();
        let step = ctrl.charge(&mut [], Watts::new(100.0), Hours::new(0.1));
        assert_eq!(step, ChargeStep::idle());
        let mut u = unit_at(0, 0.5);
        let step = ctrl.charge(&mut [&mut u], Watts::ZERO, Hours::new(0.1));
        assert_eq!(step.drawn, Watts::ZERO);
        assert_eq!(step.efficiency(), 0.0);
    }

    #[test]
    fn sequential_charging_beats_batch_under_tight_budget() {
        // The Fig. 4-a result: with a ~90 W budget, charging three
        // cabinets one-by-one completes in roughly half the time of
        // charging all three simultaneously.
        let ctrl = ChargeController::prototype();
        let budget = Watts::new(90.0);

        let mut seq_units = vec![unit_at(0, 0.3), unit_at(1, 0.3), unit_at(2, 0.3)];
        let t_seq = time_to_soc(&ctrl, &mut seq_units, budget, 0.9, true);

        let mut batch_units = vec![unit_at(0, 0.3), unit_at(1, 0.3), unit_at(2, 0.3)];
        let t_batch = time_to_soc(&ctrl, &mut batch_units, budget, 0.9, false);

        assert!(
            t_seq < 0.65 * t_batch,
            "sequential {t_seq:.1} h should be ≲ 60 % of batch {t_batch:.1} h"
        );
    }

    #[test]
    fn ample_budget_makes_batch_competitive() {
        // With plenty of power the CC limit binds and batch charging is no
        // longer penalized — the adaptivity of SPM's N = PG/PPC rule.
        let ctrl = ChargeController::prototype();
        let budget = Watts::new(900.0);

        let mut seq_units = vec![unit_at(0, 0.3), unit_at(1, 0.3), unit_at(2, 0.3)];
        let t_seq = time_to_soc(&ctrl, &mut seq_units, budget, 0.9, true);

        let mut batch_units = vec![unit_at(0, 0.3), unit_at(1, 0.3), unit_at(2, 0.3)];
        let t_batch = time_to_soc(&ctrl, &mut batch_units, budget, 0.9, false);

        assert!(
            t_batch < t_seq,
            "with ample power batch {t_batch:.1} h should beat sequential {t_seq:.1} h"
        );
    }

    #[test]
    fn drawn_power_never_exceeds_budget() {
        let ctrl = ChargeController::prototype();
        let mut a = unit_at(0, 0.2);
        let mut b = unit_at(1, 0.95);
        let budget = Watts::new(150.0);
        let step = ctrl.charge(&mut [&mut a, &mut b], budget, Hours::new(0.05));
        assert!(step.drawn <= budget + Watts::new(1e-9));
    }
}
