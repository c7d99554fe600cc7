//! Staged black-start after an emergency shutdown or blackout.
//!
//! The paper's TPM ends at "checkpoint VM state and shut servers down"
//! (Fig. 11); this module governs what happens next. Restarting the
//! whole rack at once would slam a boot-surge onto a buffer that just
//! proved too weak to carry the steady-state load, so the
//! [`RecoveryCoordinator`] brings servers back in *power-budget-gated
//! stages*: it waits for the energy system to show recovery (SoC or
//! solar), then admits one stage of VMs at a time, holding between
//! stages so each boot surge lands and settles before the next, and it
//! never admits more demand than the observed solar-plus-buffer budget
//! covers.
//!
//! The coordinator is deliberately one-sided: it only ever *lowers* a
//! controller's VM target (an admission cap), so it can cost capacity
//! during recovery but can never add demand the policy didn't ask for —
//! the same "performance, never correctness" stance as degraded mode.

use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::{Amps, Watts};

use crate::controller::{booted_demand, SystemObservation};

/// Where the coordinator is in the outage/recovery lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPhase {
    /// Normal operation: no admission cap.
    #[default]
    Normal,
    /// An outage is in progress: nothing is admitted.
    Down,
    /// The energy system released the restart: VMs are being admitted in
    /// budget-gated stages.
    BlackStart,
}

/// VMs admitted per stage: one physical machine on the prototype's
/// ProLiants.
const STAGE_VMS: u32 = 2;

/// Hold between stages, letting a boot surge land in the measured demand
/// before the next stage is considered.
const STAGE_HOLD: SimDuration = SimDuration::from_minutes(5);

/// Mean SoC at which a restart is released after an outage.
const RELEASE_SOC: f64 = 0.35;

/// Alternatively, release when solar alone covers the first stage times
/// this margin (a sunny morning should not wait on the pack).
const SOLAR_MARGIN: f64 = 1.2;

/// SoC below which a unit contributes nothing to the restart budget.
const BUDGET_FLOOR_SOC: f64 = 0.25;

/// Sequences the restart after an emergency shutdown or blackout.
///
/// Drive it with [`RecoveryCoordinator::on_outage`] when the TPM orders
/// an emergency shutdown (or a brownout is observed) and
/// [`RecoveryCoordinator::observe`] once per control period; read
/// [`RecoveryCoordinator::admission_cap`] as a final clamp on the VM
/// target. Stage demand uses the stock policies' worst-case power per
/// booted machine.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecoveryCoordinator {
    phase: RecoveryPhase,
    down_since: Option<SimTime>,
    last_stage_at: Option<SimTime>,
    admitted: u32,
    seen_brownouts: usize,
    outages: u64,
}

impl RecoveryCoordinator {
    /// Current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> RecoveryPhase {
        self.phase
    }

    /// Outages sequenced so far (emergency shutdowns plus brownouts).
    #[must_use]
    pub fn outages(&self) -> u64 {
        self.outages
    }

    /// VMs currently admitted by the black-start ramp.
    #[must_use]
    pub fn admitted_vms(&self) -> u32 {
        self.admitted
    }

    /// An outage begins: drop to [`RecoveryPhase::Down`] and reset the
    /// admission ramp.
    pub fn on_outage(&mut self, now: SimTime) {
        // A brownout landing mid-black-start restarts the ramp but is
        // still one continuous outage episode.
        if self.phase == RecoveryPhase::Normal {
            self.outages += 1;
            self.down_since = Some(now);
        }
        self.phase = RecoveryPhase::Down;
        self.last_stage_at = None;
        self.admitted = 0;
    }

    /// The power budget a restart may lean on: observed solar plus the
    /// sustained discharge the healthy share of the buffer can carry,
    /// each usable unit at the TPM's per-unit current cap `unit_cap`.
    fn budget(obs: &SystemObservation, unit_cap: Amps) -> Watts {
        let usable = obs
            .units
            .iter()
            .filter(|u| !u.at_cutoff && u.soc.value() > BUDGET_FLOOR_SOC)
            .count();
        let buffer = usable as f64 * obs.pack_voltage.value() * unit_cap.value();
        obs.solar_power + Watts::new(buffer)
    }

    /// `true` when the energy system has recovered enough to release the
    /// restart: mean SoC above the release level, or solar alone covering
    /// the first stage with margin.
    fn released(obs: &SystemObservation) -> bool {
        let mean_soc = if obs.units.is_empty() {
            0.0
        } else {
            obs.units.iter().map(|u| u.soc.value()).sum::<f64>() / obs.units.len() as f64
        };
        mean_soc >= RELEASE_SOC
            || obs.solar_power.value() >= booted_demand(STAGE_VMS).value() * SOLAR_MARGIN
    }

    /// Advances the lifecycle one control period. Detects brownouts from
    /// the observation's cumulative counter, releases the restart when the
    /// energy system recovers, and admits the next stage when its budget
    /// clears. `unit_cap` is the TPM's per-unit discharge current cap,
    /// the sustained current the budget credits to each usable unit.
    pub fn observe(&mut self, obs: &SystemObservation, unit_cap: Amps) {
        if obs.brownouts > self.seen_brownouts {
            self.seen_brownouts = obs.brownouts;
            self.on_outage(obs.now);
        }
        match self.phase {
            RecoveryPhase::Normal => {}
            RecoveryPhase::Down => {
                if Self::released(obs) {
                    self.phase = RecoveryPhase::BlackStart;
                    self.last_stage_at = None;
                }
            }
            RecoveryPhase::BlackStart => {
                let due = self
                    .last_stage_at
                    .is_none_or(|t| obs.now.since(t) >= STAGE_HOLD);
                if due {
                    let next = (self.admitted + STAGE_VMS).min(obs.total_vm_slots);
                    if Self::budget(obs, unit_cap) >= booted_demand(next) {
                        self.admitted = next;
                        self.last_stage_at = Some(obs.now);
                    }
                }
                if self.admitted >= obs.total_vm_slots {
                    // Ramp complete: the cap no longer binds.
                    self.phase = RecoveryPhase::Normal;
                    self.down_since = None;
                }
            }
        }
    }

    /// The admission cap in force, if any: a ceiling the controller's VM
    /// target must be clamped to. `None` in normal operation.
    #[must_use]
    pub fn admission_cap(&self) -> Option<u32> {
        match self.phase {
            RecoveryPhase::Normal => None,
            RecoveryPhase::Down => Some(0),
            RecoveryPhase::BlackStart => Some(self.admitted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InsureConfig;
    use crate::spm::UnitView;
    use crate::tpm::LoadKnob;
    use ins_battery::BatteryId;
    use ins_cluster::dvfs::DutyCycle;
    use ins_powernet::matrix::Attachment;
    use ins_sim::units::{AmpHours, Amps, Soc, Volts};

    /// The controller's per-unit discharge cap, which the budget credits.
    fn cap() -> Amps {
        InsureConfig::prototype().discharge_current_cap
    }

    fn unit(id: usize, soc: f64) -> UnitView {
        UnitView {
            id: BatteryId(id),
            soc: Soc::new(soc),
            available_fraction: soc,
            discharge_throughput: AmpHours::new(1.0),
            at_cutoff: false,
            terminal_voltage: Volts::new(24.0),
            telemetry_age: SimDuration::ZERO,
        }
    }

    fn obs(now: SimTime, solar: f64, soc: f64) -> SystemObservation {
        SystemObservation {
            now,
            elapsed_days: 0.5,
            solar_power: Watts::new(solar),
            units: vec![unit(0, soc), unit(1, soc), unit(2, soc)],
            attachments: vec![Attachment::Isolated; 3],
            discharge_current: Amps::ZERO,
            active_vms: 0,
            target_vms: 0,
            total_vm_slots: 8,
            duty: DutyCycle::FULL,
            rack_demand: Watts::ZERO,
            rack_demand_target: Watts::ZERO,
            rack_demand_full: Watts::new(1800.0),
            pack_voltage: Volts::new(24.0),
            pending_gb: 100.0,
            knob: LoadKnob::DutyCycle,
            brownouts: 0,
        }
    }

    #[test]
    fn outage_caps_admission_at_zero() {
        let mut r = RecoveryCoordinator::default();
        assert_eq!(r.admission_cap(), None);
        r.on_outage(SimTime::from_hms(10, 0, 0));
        assert_eq!(r.phase(), RecoveryPhase::Down);
        assert_eq!(r.admission_cap(), Some(0));
        assert_eq!(r.outages(), 1);
        // A depleted, dark system stays down.
        r.observe(&obs(SimTime::from_hms(10, 1, 0), 0.0, 0.1), cap());
        assert_eq!(r.phase(), RecoveryPhase::Down);
    }

    #[test]
    fn recovered_soc_releases_a_staged_ramp() {
        let mut r = RecoveryCoordinator::default();
        r.on_outage(SimTime::from_hms(10, 0, 0));
        let mut now = SimTime::from_hms(10, 30, 0);
        // SoC back above release (some morning sun keeps the late stages
        // inside the budget): black-start begins and admits stage 1.
        r.observe(&obs(now, 200.0, 0.5), cap());
        assert_eq!(r.phase(), RecoveryPhase::BlackStart);
        r.observe(&obs(now, 200.0, 0.5), cap());
        assert_eq!(r.admission_cap(), Some(2), "first stage admitted");
        // Immediately after: the hold blocks the next stage.
        now += SimDuration::from_minutes(1);
        r.observe(&obs(now, 200.0, 0.5), cap());
        assert_eq!(r.admission_cap(), Some(2));
        // Stages admit one PM per hold until the ramp completes.
        let mut caps = Vec::new();
        for _ in 0..4 {
            now += SimDuration::from_minutes(5);
            r.observe(&obs(now, 200.0, 0.5), cap());
            caps.push(r.admission_cap());
        }
        assert_eq!(caps, vec![Some(4), Some(6), None, None]);
        assert_eq!(r.phase(), RecoveryPhase::Normal);
    }

    #[test]
    fn strong_solar_releases_even_with_a_flat_pack() {
        let mut r = RecoveryCoordinator::default();
        r.on_outage(SimTime::from_hms(9, 0, 0));
        // Pack flat (below budget floor) but the sun is out: 360 W × 1.2
        // for the first stage needs 432 W.
        let mut o = obs(SimTime::from_hms(9, 30, 0), 500.0, 0.1);
        r.observe(&o, cap());
        assert_eq!(r.phase(), RecoveryPhase::BlackStart);
        r.observe(&o, cap());
        assert_eq!(r.admission_cap(), Some(2));
        // But the *budget* gate holds the second stage: 4 VMs need 720 W
        // and the flat pack contributes nothing.
        o.now += SimDuration::from_minutes(5);
        r.observe(&o, cap());
        assert_eq!(r.admission_cap(), Some(2), "budget gate holds stage 2");
        // More sun clears it.
        o.solar_power = Watts::new(800.0);
        o.now += SimDuration::from_minutes(5);
        r.observe(&o, cap());
        assert_eq!(r.admission_cap(), Some(4));
    }

    #[test]
    fn brownout_counter_triggers_an_outage() {
        let mut r = RecoveryCoordinator::default();
        let mut o = obs(SimTime::from_hms(13, 0, 0), 1200.0, 0.6);
        r.observe(&o, cap());
        assert_eq!(r.phase(), RecoveryPhase::Normal);
        o.brownouts = 1;
        o.now += SimDuration::from_minutes(1);
        r.observe(&o, cap());
        // The outage registers, and with a healthy pack the release is
        // immediate — but admission still ramps from zero.
        assert_eq!(r.outages(), 1);
        assert_ne!(r.admission_cap(), None);
        assert!(r.admitted_vms() <= 2);
    }

    #[test]
    fn repeated_outage_mid_ramp_is_one_episode() {
        let mut r = RecoveryCoordinator::default();
        r.on_outage(SimTime::from_hms(10, 0, 0));
        r.observe(&obs(SimTime::from_hms(10, 30, 0), 0.0, 0.5), cap());
        assert_eq!(r.phase(), RecoveryPhase::BlackStart);
        r.on_outage(SimTime::from_hms(10, 31, 0));
        assert_eq!(r.outages(), 1, "relapse is not a new episode");
        assert_eq!(r.admission_cap(), Some(0), "ramp restarts from zero");
    }
}
