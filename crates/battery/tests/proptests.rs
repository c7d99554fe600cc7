//! Property tests for the battery model.

use proptest::prelude::*;

use ins_battery::charge::{acceptance_limit, gassing_current, split_applied_current};
use ins_battery::kibam::KibamState;
use ins_battery::pack::split_discharge_current;
use ins_battery::voltage::{open_circuit, terminal};
use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_sim::units::{AmpHours, Amps, Hours, Soc};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KiBaM conserves charge exactly: stored + moved == initial stored.
    #[test]
    fn kibam_charge_conservation(
        soc in 0.0f64..=1.0,
        currents in proptest::collection::vec(-20.0f64..40.0, 1..50)
    ) {
        let mut k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(soc));
        let initial = k.stored_charge().value();
        let mut net_out = 0.0;
        for i in currents {
            net_out += k.step(Amps::new(i), Hours::new(0.05)).value();
        }
        let fin = k.stored_charge().value();
        prop_assert!((initial - net_out - fin).abs() < 1e-6,
            "initial {initial} − out {net_out} ≠ final {fin}");
    }

    /// Wells never leave their physical bounds.
    #[test]
    fn kibam_wells_bounded(
        soc in 0.0f64..=1.0,
        currents in proptest::collection::vec(-60.0f64..80.0, 1..80)
    ) {
        let mut k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(soc));
        for i in currents {
            k.step(Amps::new(i), Hours::new(0.1));
            prop_assert!(k.available_charge().value() >= -1e-9);
            prop_assert!(k.available_charge().value() <= 0.62 * 35.0 + 1e-9);
            prop_assert!(k.bound_charge().value() >= -1e-9);
            prop_assert!(k.bound_charge().value() <= 0.38 * 35.0 + 1e-9);
            prop_assert!((0.0..=1.0).contains(&k.soc().value()));
        }
    }

    /// Terminal voltage is monotone: more discharge current ⇒ lower volts,
    /// and a fuller well ⇒ higher volts.
    #[test]
    fn voltage_monotonicity(
        x in 0.0f64..=1.0,
        i1 in 0.0f64..50.0,
        delta in 0.1f64..30.0
    ) {
        let p = BatteryParams::cabinet_24v();
        let v1 = terminal(&p, x, Amps::new(i1));
        let v2 = terminal(&p, x, Amps::new(i1 + delta));
        prop_assert!(v2 < v1, "more current must sag more");
        if x < 0.95 {
            let higher = (x + 0.05).min(1.0);
            prop_assert!(open_circuit(&p, higher) >= open_circuit(&p, x));
        }
    }

    /// The acceptance envelope and gassing current are continuous-ish and
    /// bounded by their parameters.
    #[test]
    fn charge_curves_bounded(soc in 0.0f64..=1.0) {
        let p = BatteryParams::ub1280();
        let acc = acceptance_limit(&p, Soc::new(soc));
        prop_assert!(acc.value() > 0.0);
        prop_assert!(acc <= p.cc_limit());
        let gas = gassing_current(&p, Soc::new(soc));
        prop_assert!(gas.value() >= 0.0);
        prop_assert!(gas <= p.gassing_max);
    }

    /// The charge split is a partition: accepted + gassed ≤ applied.
    #[test]
    fn charge_split_partitions(soc in 0.0f64..=1.0, applied in 0.0f64..60.0) {
        let p = BatteryParams::ub1280();
        let s = split_applied_current(&p, Soc::new(soc), Amps::new(applied));
        prop_assert!(s.accepted.value() >= 0.0);
        prop_assert!(s.gassed.value() >= 0.0);
        prop_assert!(s.accepted.value() + s.gassed.value() <= applied + 1e-9);
    }

    /// Parallel discharge shares sum to the requested total whenever any
    /// unit can serve, and no share is negative.
    #[test]
    fn discharge_split_sums(
        socs in proptest::collection::vec(0.05f64..=1.0, 1..5),
        total in 0.0f64..80.0
    ) {
        let units: Vec<BatteryUnit> = socs
            .iter()
            .enumerate()
            .map(|(i, &s)| BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(s)))
            .collect();
        let split = split_discharge_current(&units, Amps::new(total));
        let shares: Vec<Amps> = units.iter().map(|u| split.share(u)).collect();
        prop_assert_eq!(shares.len(), units.len());
        prop_assert!(shares.iter().all(|s| s.value() >= -1e-12));
        if total > 0.0 {
            let sum: f64 = shares.iter().map(|s| s.value()).sum();
            prop_assert!((sum - total).abs() < 1e-6, "shares sum {sum} ≠ {total}");
        }
    }

    /// A discharge/charge round trip always loses energy (second law):
    /// the charge required to refill exceeds the charge delivered when
    /// gassing is active near full.
    #[test]
    fn no_free_charge_near_full(hours in 1u64..6) {
        let mut unit = BatteryUnit::with_soc(BatteryId(0), BatteryParams::cabinet_24v(), Soc::new(0.92));
        let before = unit.stored_charge().value();
        // Trickle-charge near full: gassing burns some of everything fed.
        let fed = 2.0 * hours as f64; // 2 A × hours
        unit.charge(Amps::new(2.0), Hours::new(hours as f64));
        let gained = unit.stored_charge().value() - before;
        prop_assert!(gained <= fed + 1e-9, "gained {gained} Ah from {fed} Ah fed");
    }
}
