//! Load-bus power accounting.
//!
//! Settles each simulation step's server demand against the two available
//! sources — direct solar and battery discharge — through the server-facing
//! PDU chain, reporting exactly where every watt went. This is the
//! "power panel" of the prototype's Fig. 6 schematic.

use ins_battery::pack::split_discharge_current;
use ins_battery::BatteryUnit;
use ins_sim::units::{Hours, Watts};

use crate::converter::Converter;

/// How one step's load demand was met.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadSettlement {
    /// Demand presented by the server rack (at the rack inlet).
    pub demand: Watts,
    /// Demand actually served at the rack inlet.
    pub served: Watts,
    /// Solar power consumed (at the bus, before PDU losses).
    pub solar_used: Watts,
    /// Battery power consumed (at the bus, before PDU losses).
    pub battery_used: Watts,
    /// Unserved demand (shortfall that forces load shedding upstream).
    pub shortfall: Watts,
}

impl LoadSettlement {
    /// The settlement of a step with no positive demand: nothing served,
    /// drawn or short. [`LoadBus::settle`] returns it without touching a
    /// unit.
    #[must_use]
    pub fn idle(demand: Watts) -> Self {
        Self {
            demand,
            served: Watts::ZERO,
            solar_used: Watts::ZERO,
            battery_used: Watts::ZERO,
            shortfall: Watts::ZERO,
        }
    }

    /// `true` when the full demand was served.
    #[must_use]
    pub fn fully_served(&self) -> bool {
        self.shortfall.value() <= 1e-6
    }
}

/// The load bus: solar-first power settlement with battery makeup.
///
/// # Examples
///
/// ```
/// use ins_powernet::bus::LoadBus;
/// use ins_battery::{BatteryUnit, BatteryId, BatteryParams};
/// use ins_sim::units::{Hours, Watts};
///
/// let bus = LoadBus::prototype();
/// let mut unit = BatteryUnit::new(BatteryId(0), BatteryParams::cabinet_24v());
/// let s = bus.settle(
///     Watts::new(400.0),           // rack demand
///     Watts::new(300.0),           // solar available
///     &mut [&mut unit],            // discharging units
///     Hours::new(0.1),
/// );
/// assert!(s.fully_served());
/// assert!(s.battery_used.value() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBus {
    pdu: Converter,
}

impl LoadBus {
    /// Creates a bus with the given PDU conversion chain.
    #[must_use]
    pub fn new(pdu: Converter) -> Self {
        Self { pdu }
    }

    /// The prototype's PDU chain.
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(Converter::server_pdu())
    }

    /// The PDU converter.
    #[must_use]
    pub fn pdu(&self) -> &Converter {
        &self.pdu
    }

    /// Serves `demand` (at the rack inlet) from `solar` first, then from
    /// the discharging battery `units`, for `dt`.
    ///
    /// Battery discharge is split across units like parallel strings
    /// (stronger units carry more). If the sources cannot cover the
    /// demand, the remainder is reported as [`LoadSettlement::shortfall`]
    /// — the caller (temporal power manager) must shed load in response.
    pub fn settle(
        &self,
        demand: Watts,
        solar: Watts,
        units: &mut [&mut BatteryUnit],
        dt: Hours,
    ) -> LoadSettlement {
        let demand = demand.max(Watts::ZERO);
        if demand.value() <= 0.0 {
            // The member units are left unstepped, as they are below
            // whenever solar covers the demand: their wells do not relax
            // and their service time stops for the step. That is a known
            // defect; a unit on a bus that moves nothing should rest.
            return LoadSettlement::idle(demand);
        }
        // Bus-side power needed to push `demand` through the PDU.
        let bus_needed = self.pdu.input_for(demand);
        let solar_used = bus_needed.min(solar.max(Watts::ZERO));
        let battery_needed = bus_needed - solar_used;

        let mut battery_used = Watts::ZERO;
        if battery_needed.value() > 1e-9 && !units.is_empty() {
            // Convert the needed power into a total current at the mean
            // pack voltage, split it, then let each unit deliver what its
            // kinetics allow.
            let mean_v: f64 = units
                .iter()
                .map(|u| u.open_circuit_voltage().value())
                .sum::<f64>()
                / units.len() as f64;
            // First-order current estimate, then one sag-aware refinement:
            // at current I the pack delivers I·(V − I·R∥), so asking for
            // `needed` at the open-circuit voltage always under-delivers.
            // A 2 % regulation margin covers the remaining error; any
            // excess delivery is capped at the PDU and dissipated.
            let r_parallel: f64 = units.len() as f64
                / units
                    .iter()
                    .map(|u| 1.0 / u.params().r_discharge.value())
                    .sum::<f64>()
                / units.len() as f64;
            let i0 = battery_needed.value() / mean_v.max(1.0);
            let v_sag = (mean_v - i0 * r_parallel).max(1.0);
            let total_current = ins_sim::units::Amps::new(battery_needed.value() / v_sag * 1.02);
            // Each unit reads its share just before it discharges, while
            // its state is still the one the split was computed over.
            let split = split_discharge_current(units.iter().map(|u| &**u), total_current);
            for unit in units.iter_mut() {
                let out = unit.discharge(split.share(unit), dt);
                let delivered_w = if dt.value() > 0.0 {
                    // Typed all the way: Ah / h = A, then A × V = W.
                    out.delivered / dt * out.voltage
                } else {
                    Watts::ZERO
                };
                battery_used += delivered_w;
            }
        }

        let bus_supplied = solar_used + battery_used;
        let served = self.pdu.output(bus_supplied).min(demand);
        LoadSettlement {
            demand,
            served,
            solar_used,
            battery_used,
            shortfall: (demand - served).max(Watts::ZERO),
        }
    }
}

impl Default for LoadBus {
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

    #[test]
    fn solar_alone_covers_light_demand() {
        let bus = LoadBus::prototype();
        let mut u = unit_at(0, 0.9);
        let before = u.stored_charge();
        let s = bus.settle(
            Watts::new(300.0),
            Watts::new(1000.0),
            &mut [&mut u],
            Hours::new(0.1),
        );
        assert!(s.fully_served());
        assert_eq!(s.battery_used, Watts::ZERO);
        assert!(s.solar_used.value() > 300.0, "PDU losses must appear");
        assert_eq!(u.stored_charge(), before, "battery untouched");
    }

    #[test]
    fn battery_makes_up_solar_deficit() {
        let bus = LoadBus::prototype();
        let mut u = unit_at(0, 0.9);
        let s = bus.settle(
            Watts::new(450.0),
            Watts::new(200.0),
            &mut [&mut u],
            Hours::new(0.1),
        );
        assert!(s.fully_served(), "shortfall {:?}", s.shortfall);
        assert!(s.battery_used.value() > 0.0);
        assert!(u.soc() < 0.9);
    }

    #[test]
    fn no_sources_is_pure_shortfall() {
        let bus = LoadBus::prototype();
        let s = bus.settle(Watts::new(450.0), Watts::ZERO, &mut [], Hours::new(0.1));
        assert!(!s.fully_served());
        assert_eq!(s.served, Watts::ZERO);
        assert!((s.shortfall.value() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_touches_nothing() {
        let bus = LoadBus::prototype();
        let mut u = unit_at(0, 0.5);
        let s = bus.settle(
            Watts::ZERO,
            Watts::new(500.0),
            &mut [&mut u],
            Hours::new(0.1),
        );
        assert_eq!(s.solar_used, Watts::ZERO);
        assert_eq!(s.battery_used, Watts::ZERO);
        assert!(s.fully_served());
    }

    #[test]
    fn drained_batteries_cause_shortfall() {
        let bus = LoadBus::prototype();
        let mut u = unit_at(0, 1.0);
        // Exhaust the available well first.
        while !u.is_exhausted() {
            u.discharge(ins_sim::units::Amps::new(40.0), Hours::new(1.0 / 60.0));
        }
        let s = bus.settle(
            Watts::new(1400.0),
            Watts::ZERO,
            &mut [&mut u],
            Hours::new(0.05),
        );
        assert!(!s.fully_served());
        assert!(s.shortfall.value() > 0.0);
    }

    #[test]
    fn heavy_demand_splits_across_units() {
        let bus = LoadBus::prototype();
        let mut a = unit_at(0, 0.9);
        let mut b = unit_at(1, 0.9);
        let s = bus.settle(
            Watts::new(1400.0),
            Watts::ZERO,
            &mut [&mut a, &mut b],
            Hours::new(0.1),
        );
        assert!(s.fully_served());
        assert!(a.soc() < 0.9 && b.soc() < 0.9, "both units contributed");
    }
}
