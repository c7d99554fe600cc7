//! Behavioural integration tests of the control stack.

use ins_battery::BatteryId;
use ins_cluster::dvfs::DutyCycle;
use ins_core::config::InsureConfig;
use ins_core::controller::{
    BaselineController, ControlAction, InsureController, NoOptController, PowerController,
    SystemObservation,
};
use ins_core::spm::UnitView;
use ins_core::tpm::LoadKnob;
use ins_powernet::matrix::Attachment;
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};
use proptest::prelude::*;

fn observation(seed: u64) -> SystemObservation {
    // A parameterized observation for fuzzing; fields derived from `seed`.
    let f = |k: u64| ((seed.wrapping_mul(k) % 1000) as f64) / 1000.0;
    SystemObservation {
        now: SimTime::from_secs(seed % 86_400),
        elapsed_days: f(3) * 100.0,
        solar_power: Watts::new(f(5) * 1600.0),
        units: (0..3)
            .map(|i| UnitView {
                id: BatteryId(i),
                soc: Soc::new(f(7 + i as u64)),
                available_fraction: f(11 + i as u64),
                discharge_throughput: AmpHours::new(f(13 + i as u64) * 100.0),
                at_cutoff: f(17 + i as u64) > 0.9,
                terminal_voltage: Volts::new(f(41 + i as u64) * 28.0),
                telemetry_age: SimDuration::from_secs(seed % 600),
            })
            .collect(),
        attachments: vec![
            match seed % 3 {
                0 => Attachment::Isolated,
                1 => Attachment::ChargeBus,
                _ => Attachment::DischargeBus,
            };
            3
        ],
        discharge_current: Amps::new(f(19) * 80.0),
        active_vms: (seed % 9) as u32,
        target_vms: (seed % 9) as u32,
        total_vm_slots: 8,
        duty: DutyCycle::new(f(23)),
        rack_demand: Watts::new(f(29) * 1800.0),
        rack_demand_target: Watts::new(f(31) * 1800.0),
        rack_demand_full: Watts::new(1800.0),
        pack_voltage: Volts::new(24.0),
        pending_gb: f(37) * 500.0,
        knob: if seed.is_multiple_of(2) {
            LoadKnob::DutyCycle
        } else {
            LoadKnob::VmCount
        },
        brownouts: 0,
    }
}

/// Every controller must produce structurally valid actions for any
/// observation: known unit ids, VM targets within slots, no unit assigned
/// twice.
fn check_action_validity(action: &ControlAction, obs: &SystemObservation) {
    if let Some(vms) = action.target_vms {
        assert!(vms <= obs.total_vm_slots, "target {vms} beyond slots");
    }
    let mut seen = Vec::new();
    for (id, _) in &action.attachments {
        assert!(id.0 < obs.units.len(), "unknown unit {id}");
        assert!(!seen.contains(id), "unit {id} assigned twice");
        seen.push(*id);
    }
    if let Some(duty) = action.duty {
        assert!((0.0..=1.0).contains(&duty.fraction()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn controllers_emit_valid_actions(seed in 0u64..100_000) {
        let obs = observation(seed);
        let mut insure = InsureController::default();
        check_action_validity(&insure.control(&obs), &obs);
        let mut baseline = BaselineController::new();
        check_action_validity(&baseline.control(&obs), &obs);
        let mut noopt = NoOptController::new();
        check_action_validity(&noopt.control(&obs), &obs);
    }

    #[test]
    fn controllers_are_deterministic(seed in 0u64..10_000) {
        let obs = observation(seed);
        let a = InsureController::default().control(&obs);
        let b = InsureController::default().control(&obs);
        prop_assert_eq!(a, b);
    }

    /// InSURE never assigns a cutoff-tripped unit to the discharge bus.
    #[test]
    fn insure_never_discharges_tripped_units(seed in 0u64..50_000) {
        let obs = observation(seed);
        let mut c = InsureController::default();
        let action = c.control(&obs);
        for (id, attachment) in &action.attachments {
            if *attachment == Attachment::DischargeBus {
                let unit = &obs.units[id.0];
                prop_assert!(!unit.at_cutoff, "tripped {} sent to discharge", id);
            }
        }
    }
}

#[test]
fn insure_config_accessor_round_trips() {
    let mut config = InsureConfig::prototype();
    config.discharge_current_cap = Amps::new(8.75);
    let c = InsureController::new(config);
    assert_eq!(c.config().discharge_current_cap, Amps::new(8.75));
}

#[test]
fn controllers_have_distinct_names() {
    let names = [
        InsureController::default().name(),
        BaselineController::new().name(),
        NoOptController::new().name(),
    ];
    let mut unique = names.to_vec();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), 3);
}
