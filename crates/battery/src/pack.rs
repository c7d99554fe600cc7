//! Multi-unit e-Buffer aggregation.
//!
//! Working with a set of [`BatteryUnit`]s as the paper's "energy buffer":
//! splitting a common discharge current across the online subset the way
//! parallel strings share load (stronger units carry more).

use ins_sim::units::Amps;

use crate::unit::BatteryUnit;

/// Splits a total discharge current across units the way parallel strings
/// would: proportionally to each unit's conductance-weighted voltage
/// headroom above the common bus.
///
/// The split is computed once over `units` and then asked for each
/// unit's share with [`DischargeSplit::share`], so splitting allocates
/// nothing and the caller may discharge each unit right after reading
/// its share. Units with no headroom receive zero. The shares of
/// `units` sum to `total` unless every unit is exhausted, in which case
/// they sum to less.
#[must_use]
pub fn split_discharge_current<'a>(
    units: impl IntoIterator<Item = &'a BatteryUnit>,
    total: Amps,
) -> DischargeSplit {
    let weight_sum = if total.value() <= 0.0 {
        0.0
    } else {
        units.into_iter().map(split_weight).sum()
    };
    DischargeSplit { total, weight_sum }
}

/// A total discharge current divided across a set of units; see
/// [`split_discharge_current`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DischargeSplit {
    total: Amps,
    weight_sum: f64,
}

impl DischargeSplit {
    /// The share of the total that `unit` carries. Only meaningful for a
    /// unit the split was computed over, read before that unit's state
    /// changes.
    #[must_use]
    pub fn share(&self, unit: &BatteryUnit) -> Amps {
        if self.weight_sum <= 0.0 {
            return Amps::ZERO;
        }
        self.total * (split_weight(unit) / self.weight_sum)
    }
}

/// Open-circuit voltage headroom over the weakest acceptable bus voltage
/// divided by internal resistance: the linear-circuit solution up to a
/// common offset, with negative shares clamped.
fn split_weight(u: &BatteryUnit) -> f64 {
    let headroom = (u.open_circuit_voltage() - u.params().cutoff_voltage)
        .value()
        .max(0.0);
    if u.is_exhausted() {
        0.0
    } else {
        headroom / u.params().r_discharge.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BatteryParams;
    use crate::unit::BatteryId;
    use ins_sim::units::{Hours, Soc};

    fn unit_at(id: usize, soc: f64) -> BatteryUnit {
        BatteryUnit::with_soc(BatteryId(id), BatteryParams::cabinet_24v(), Soc::new(soc))
    }

    fn shares(units: &[&BatteryUnit], total: f64) -> Vec<Amps> {
        let split = split_discharge_current(units.iter().copied(), Amps::new(total));
        units.iter().map(|u| split.share(u)).collect()
    }

    #[test]
    fn split_sums_to_total() {
        let a = unit_at(0, 0.9);
        let b = unit_at(1, 0.5);
        let total: f64 = shares(&[&a, &b], 30.0).iter().map(|s| s.value()).sum();
        assert!((total - 30.0).abs() < 1e-9);
    }

    #[test]
    fn stronger_unit_carries_more() {
        let strong = unit_at(0, 0.95);
        let weak = unit_at(1, 0.30);
        let shares = shares(&[&strong, &weak], 30.0);
        assert!(shares[0] > shares[1]);
        assert!(shares[1].value() > 0.0);
    }

    #[test]
    fn exhausted_unit_carries_nothing() {
        let mut dead = unit_at(0, 1.0);
        while !dead.is_exhausted() {
            dead.discharge(Amps::new(40.0), Hours::new(1.0 / 60.0));
        }
        let alive = unit_at(1, 0.8);
        let shares = shares(&[&dead, &alive], 20.0);
        assert_eq!(shares[0], Amps::ZERO);
        assert!((shares[1].value() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn split_handles_degenerate_inputs() {
        assert!(shares(&[], 10.0).is_empty());
        let a = unit_at(0, 0.9);
        assert_eq!(shares(&[&a], 0.0), vec![Amps::ZERO]);
    }
}
