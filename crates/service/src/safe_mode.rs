//! The built-in fallback policy the supervisor swaps in when the
//! primary engine crashes, stalls or is quarantined.
//!
//! Safe mode optimizes for nothing except staying alive: it keeps the
//! plant inside the Fig. 8 mode diagram, discharges only comfortably
//! charged units (a *tightened* discharge set compared to the InSURE
//! TPM's current cap), never scales the load up, and sheds load at the
//! first sign of deficit. It is deliberately simple enough to audit —
//! the whole point is that it cannot itself misbehave.

use ins_core::controller::{ControlAction, PowerController, SnapshotController, SystemObservation};
use ins_core::engine::{classify, StateClass};
use ins_core::mode::{transition, BufferMode, TransitionCause};
use ins_core::tpm::LoadKnob;
use ins_powernet::matrix::Attachment;

/// State of charge below which safe mode refuses to discharge a unit.
const DISCHARGE_FLOOR_SOC: f64 = 0.5;
/// State of charge below which a unit is pulled offline to rest (unless
/// solar is up, in which case it charges).
const PROTECT_SOC: f64 = 0.35;
/// Charge target: above this a unit floats on standby.
const CHARGE_TARGET_SOC: f64 = 0.9;
/// Solar power above which the charging bus is considered energized.
const SOLAR_UP_W: f64 = 1.0;

/// The conservative fallback policy. Deterministic and allocation-light;
/// safe to construct infallibly (no configuration to validate), and
/// plain data, so it forks like any stock controller.
#[derive(Debug, Clone, Default)]
pub struct SafeModePolicy {
    /// Tracked operating mode per unit, advanced only along Fig. 8
    /// edges (at most one edge per control period).
    modes: Vec<BufferMode>,
}

impl SafeModePolicy {
    /// Creates the policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The tracked mode of each unit (empty before the first decision).
    #[must_use]
    pub fn modes(&self) -> &[BufferMode] {
        &self.modes
    }

    /// Re-synchronizes the tracked modes with the attachments the plant
    /// actually reached (a relay fault or a takeover mid-run means the
    /// tracked picture can be stale).
    fn sync(&mut self, obs: &SystemObservation) {
        self.modes.resize(obs.units.len(), BufferMode::Standby);
        for ((mode, attachment), unit) in
            self.modes.iter_mut().zip(&obs.attachments).zip(&obs.units)
        {
            *mode = match attachment {
                Attachment::ChargeBus => BufferMode::Charging,
                Attachment::DischargeBus => BufferMode::Discharging,
                // Isolated covers both Offline and Standby. Fig. 7
                // defines Standby as *charged and ready*, so only a
                // unit above the discharge floor maps there; a depleted
                // isolated unit is Offline, from which the
                // PowerAvailable edge can legally reach Charging.
                Attachment::Isolated => {
                    if unit.soc.value() >= DISCHARGE_FLOOR_SOC && !unit.at_cutoff {
                        BufferMode::Standby
                    } else {
                        BufferMode::Offline
                    }
                }
            };
        }
    }

    /// The mode safe mode wants unit `i` in, given the classified state.
    fn desired(state: StateClass, soc: f64, at_cutoff: bool, solar_up: bool) -> BufferMode {
        if at_cutoff {
            return BufferMode::Offline;
        }
        if soc < PROTECT_SOC {
            return if solar_up {
                BufferMode::Charging
            } else {
                BufferMode::Offline
            };
        }
        match state {
            StateClass::Outage | StateClass::Critical => BufferMode::Offline,
            StateClass::Deficit => {
                if soc >= DISCHARGE_FLOOR_SOC {
                    BufferMode::Discharging
                } else if solar_up {
                    BufferMode::Charging
                } else {
                    BufferMode::Standby
                }
            }
            StateClass::Balanced | StateClass::Surplus => {
                if soc < CHARGE_TARGET_SOC && solar_up {
                    BufferMode::Charging
                } else {
                    BufferMode::Standby
                }
            }
        }
    }

    /// Takes at most one legal Fig. 8 edge from `current` toward
    /// `desired`. Illegal requests keep the current mode — safe mode
    /// never forces a transition the diagram does not contain.
    fn step_toward(current: BufferMode, desired: BufferMode, solar_up: bool) -> BufferMode {
        use BufferMode as M;
        use TransitionCause as C;
        if current == desired {
            return current;
        }
        let cause = match (current, desired) {
            (M::Offline, _) if solar_up => C::PowerAvailable,
            (M::Charging, _) => C::CapacityGoalsMet,
            (M::Standby, M::Discharging) => C::BudgetInadequate,
            (M::Discharging, M::Offline) => C::SocBelowThreshold,
            (M::Discharging, _) => C::SurplusGreen,
            _ => return current,
        };
        transition(current, cause).unwrap_or(current)
    }
}

impl PowerController for SafeModePolicy {
    fn name(&self) -> &'static str {
        "safe-mode"
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        Some(Box::new(self.clone()))
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let state = classify(obs);
        let solar_up = obs.solar_power.value() > SOLAR_UP_W;
        self.sync(obs);

        let mut attachments = Vec::with_capacity(obs.units.len());
        for (i, unit) in obs.units.iter().enumerate() {
            let desired = Self::desired(state, unit.soc.value(), unit.at_cutoff, solar_up);
            let current = self.modes.get(i).copied().unwrap_or(BufferMode::Standby);
            let next = Self::step_toward(current, desired, solar_up);
            if let Some(slot) = self.modes.get_mut(i) {
                *slot = next;
            }
            let attachment = match next {
                BufferMode::Charging => Attachment::ChargeBus,
                BufferMode::Discharging => Attachment::DischargeBus,
                BufferMode::Offline | BufferMode::Standby => Attachment::Isolated,
            };
            attachments.push((unit.id, attachment));
        }

        // Shed-first load control: never scale up, halve under deficit,
        // wind down entirely in critical territory.
        let emergency = matches!(state, StateClass::Outage | StateClass::Critical);
        let (target_vms, duty) = match obs.knob {
            LoadKnob::VmCount => {
                let vms = match state {
                    StateClass::Outage | StateClass::Critical => 0,
                    StateClass::Deficit => (obs.target_vms / 2).max(1),
                    StateClass::Balanced | StateClass::Surplus => obs.target_vms,
                };
                (Some(vms.min(obs.total_vm_slots)), None)
            }
            LoadKnob::DutyCycle => {
                let duty = match state {
                    StateClass::Deficit => Some(obs.duty.lowered()),
                    _ => None,
                };
                (None, duty)
            }
        };

        ControlAction {
            attachments,
            target_vms: if emergency { None } else { target_vms },
            duty,
            emergency_shutdown: emergency,
        }
    }
}

impl SnapshotController for SafeModePolicy {
    fn clone_snapshot(&self) -> Box<dyn SnapshotController> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_battery::BatteryId;
    use ins_cluster::dvfs::DutyCycle;
    use ins_sim::time::{SimDuration, SimTime};
    use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};

    use ins_core::spm::UnitView;

    fn obs(solar_w: f64, demand_w: f64, socs: &[f64]) -> SystemObservation {
        SystemObservation {
            now: SimTime::from_hms(12, 0, 0),
            elapsed_days: 0.5,
            solar_power: Watts::new(solar_w),
            units: socs
                .iter()
                .enumerate()
                .map(|(i, soc)| UnitView {
                    id: BatteryId(i),
                    soc: Soc::new(*soc),
                    available_fraction: *soc,
                    discharge_throughput: AmpHours::new(5.0),
                    at_cutoff: false,
                    terminal_voltage: Volts::new(25.0),
                    telemetry_age: SimDuration::ZERO,
                })
                .collect(),
            attachments: vec![Attachment::Isolated; socs.len()],
            discharge_current: Amps::ZERO,
            active_vms: 4,
            target_vms: 4,
            total_vm_slots: 8,
            duty: DutyCycle::FULL,
            rack_demand: Watts::new(demand_w),
            rack_demand_target: Watts::new(demand_w),
            rack_demand_full: Watts::new(1800.0),
            pack_voltage: Volts::new(24.0),
            pending_gb: 100.0,
            knob: LoadKnob::VmCount,
            brownouts: 0,
        }
    }

    #[test]
    fn deficit_discharges_only_comfortable_units_and_sheds_load() {
        let mut p = SafeModePolicy::new();
        let o = obs(100.0, 900.0, &[0.8, 0.4, 0.2]);
        assert_eq!(classify(&o), StateClass::Deficit);
        let a = p.control(&o);
        // Unit 0 (0.8) discharges, unit 1 (0.4) is below the tightened
        // floor, unit 2 (0.2) charges (solar is up).
        assert_eq!(a.attachments[0].1, Attachment::DischargeBus);
        assert_ne!(a.attachments[1].1, Attachment::DischargeBus);
        assert_eq!(a.attachments[2].1, Attachment::ChargeBus);
        assert_eq!(a.target_vms, Some(2), "halved from 4");
        assert!(!a.emergency_shutdown);
    }

    #[test]
    fn surplus_charges_depleted_units_floats_the_rest_and_never_scales_up() {
        let mut p = SafeModePolicy::new();
        let o = obs(1500.0, 400.0, &[0.3, 0.6, 0.95]);
        assert_eq!(classify(&o), StateClass::Surplus);
        let a = p.control(&o);
        // The depleted unit reaches the charge bus through the
        // Offline → Charging edge; the charged-and-ready units stay on
        // standby float charge (Fig. 8 has no Standby → Charging edge).
        assert_eq!(a.attachments[0].1, Attachment::ChargeBus);
        assert_eq!(
            a.attachments[1].1,
            Attachment::Isolated,
            "floats on standby"
        );
        assert_eq!(
            a.attachments[2].1,
            Attachment::Isolated,
            "charged unit floats"
        );
        assert_eq!(a.target_vms, Some(4), "hold, never raise");
    }

    #[test]
    fn critical_state_orders_emergency_shutdown() {
        let mut p = SafeModePolicy::new();
        let mut o = obs(50.0, 900.0, &[0.2]);
        o.discharge_current = Amps::new(10.0);
        assert_eq!(classify(&o), StateClass::Critical);
        assert!(p.control(&o).emergency_shutdown);
    }

    #[test]
    fn transitions_stay_on_fig8_edges() {
        let mut p = SafeModePolicy::new();
        // Start everything isolated; a deficit pulls a full unit through
        // Standby → Discharging in one legal step.
        let o = obs(100.0, 900.0, &[0.9]);
        let a = p.control(&o);
        assert_eq!(p.modes()[0], BufferMode::Discharging);
        assert_eq!(a.attachments[0].1, Attachment::DischargeBus);
        // A later surplus returns it Discharging → Charging (edge 7).
        let o2 = obs(1500.0, 300.0, &[0.6]);
        let mut o2 = o2;
        o2.attachments = vec![Attachment::DischargeBus];
        let a2 = p.control(&o2);
        assert_eq!(p.modes()[0], BufferMode::Charging);
        assert_eq!(a2.attachments[0].1, Attachment::ChargeBus);
    }

    #[test]
    fn duty_knob_lowers_under_deficit_only() {
        let mut p = SafeModePolicy::new();
        let mut o = obs(100.0, 900.0, &[0.8]);
        o.knob = LoadKnob::DutyCycle;
        let a = p.control(&o);
        assert_eq!(a.duty, Some(DutyCycle::FULL.lowered()));
        assert_eq!(a.target_vms, None);
        let mut o = obs(900.0, 900.0, &[0.8]);
        o.knob = LoadKnob::DutyCycle;
        assert_eq!(p.control(&o).duty, None);
    }

    #[test]
    fn forks_decide_like_the_original() {
        let mut p = SafeModePolicy::new();
        let o = obs(100.0, 900.0, &[0.9, 0.3]);
        let _ = p.control(&o);
        let Some(mut fork) = p.fork_controller() else {
            panic!("safe mode must fork")
        };
        assert_eq!(fork.control(&o), p.control(&o));
    }
}
