//! Power controllers: InSURE and the two comparison policies.
//!
//! A [`PowerController`] sees a [`SystemObservation`] once per control
//! period and returns a [`ControlAction`] (battery attachments, VM target,
//! duty cycle). Three policies are provided:
//!
//! * [`InsureController`] — the paper's contribution: SPM screening and
//!   adaptive batch charging plus TPM discharge capping (§3.3–3.4),
//! * [`BaselineController`] — "a baseline in-situ design that adopts the
//!   power management approach of today's grid-connected green data
//!   centers" (§6.4): renewable tracking and peak shaving over a unified,
//!   non-reconfigurable buffer,
//! * [`NoOptController`] — Table 6's "Non-Opt" log: a fixed daily server
//!   schedule that uses the buffer aggressively with few control actions.

use ins_battery::BatteryId;
use ins_cluster::dvfs::DutyCycle;
use ins_powernet::matrix::Attachment;
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};

use crate::config::{ConfigError, InsureConfig};
use crate::health::HealthMonitor;
use crate::recovery::RecoveryCoordinator;
use crate::spm::{
    charge_batch_size, discharge_threshold, screen, select_for_charging, select_for_discharge,
    UnitView,
};
use crate::tpm::{decide, LoadKnob, TpmAction, TpmInput};

/// Everything a controller may observe in one control period.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemObservation {
    /// Current simulated instant.
    pub now: SimTime,
    /// Days since deployment start (for Eq. 1's `T`).
    pub elapsed_days: f64,
    /// Solar power currently harvested.
    pub solar_power: Watts,
    /// Per-unit battery state.
    pub units: Vec<UnitView>,
    /// Per-unit current attachment (indexed like `units`).
    pub attachments: Vec<Attachment>,
    /// Total discharge current measured over the last period.
    pub discharge_current: Amps,
    /// VMs currently serving.
    pub active_vms: u32,
    /// VM target currently requested.
    pub target_vms: u32,
    /// Total VM slots in the rack.
    pub total_vm_slots: u32,
    /// Present duty cycle.
    pub duty: DutyCycle,
    /// Rack power demand at the present settings.
    pub rack_demand: Watts,
    /// Worst-case rack power demand once the current VM target finishes
    /// booting (used to size the discharge group ahead of demand steps).
    pub rack_demand_target: Watts,
    /// Rack power demand if everything ran flat out (for tracking).
    pub rack_demand_full: Watts,
    /// Nominal pack voltage (for converting power to current).
    pub pack_voltage: Volts,
    /// Data waiting to be processed, GB.
    pub pending_gb: f64,
    /// The knob this workload exposes to the TPM.
    pub knob: LoadKnob,
    /// Cumulative brownout count since deployment start (lets a
    /// controller notice an outage it did not order itself).
    pub brownouts: usize,
}

/// A controller's orders for the coming period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ControlAction {
    /// Desired attachment per unit (omitted units keep their attachment).
    pub attachments: Vec<(BatteryId, Attachment)>,
    /// New VM target, if changed.
    pub target_vms: Option<u32>,
    /// New duty cycle, if changed.
    pub duty: Option<DutyCycle>,
    /// Checkpoint everything and power the cluster down now.
    pub emergency_shutdown: bool,
}

/// A power-management policy.
pub trait PowerController {
    /// Short display name used in experiment output.
    fn name(&self) -> &'static str;

    /// Produces the orders for the next control period.
    fn control(&mut self, obs: &SystemObservation) -> ControlAction;

    /// The controller's snapshot handle, when it supports copy-on-write
    /// forking (see [`SnapshotController`]).
    ///
    /// The default declines: controllers wrapping non-clonable state
    /// (the service's supervisor bridge, external processes) simply
    /// cannot be forked, and [`crate::system::InSituSystem::snapshot`]
    /// reports that as an error instead of guessing.
    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        None
    }
}

/// A [`PowerController`] that can be duplicated for copy-on-write sweep
/// forking.
///
/// Implementations must produce an exact state copy: a forked cell is
/// only byte-identical to its from-scratch run if the cloned controller
/// resumes from precisely the prefix's internal state. Plain-data
/// controllers get this for free from `#[derive(Clone)]`; `Send + Sync`
/// is required so one frozen snapshot can seed forks on many sweep
/// workers at once.
pub trait SnapshotController: PowerController + Send + Sync {
    /// Duplicates the controller, state and all.
    fn clone_snapshot(&self) -> Box<dyn SnapshotController>;
}

/// Worst-case power of one booted physical machine (a ProLiant hosting
/// two VMs at the workloads' utilization): every stock policy and the
/// black-start ramp size demand by it.
pub(crate) const MACHINE_WATTS: Watts = Watts::new(360.0);

/// Worst-case demand of `vms` VMs once booted, two to a machine.
pub(crate) fn booted_demand(vms: u32) -> Watts {
    Watts::new(f64::from(vms.div_ceil(2)) * MACHINE_WATTS.value())
}

// ---------------------------------------------------------------------
// InSURE
// ---------------------------------------------------------------------

/// Coarse-grained SPM screening interval (Fig. 9's interval `T`).
pub(crate) const SCREENING_INTERVAL: SimDuration = SimDuration::from_hours(1);

/// State of charge at which a charging unit is considered charged and
/// brought online ("pre-determined capacity (90 %)", §3.2).
pub const CHARGE_TARGET_SOC: Soc = Soc::saturating(0.90);

/// State of charge below which a discharging unit is pulled offline and
/// servers are checkpointed (Fig. 11's `SOCσ`).
pub(crate) const SOC_LOW_THRESHOLD: Soc = Soc::saturating(0.30);

/// Peak charging power per unit (`PPC` in Fig. 10's `N = PG/PPC`).
pub const PEAK_CHARGE_POWER: Watts = Watts::new(230.0);

/// Fraction of the discharging units' current headroom kept in reserve
/// before the TPM raises capacity again (hysteresis guard).
const RAISE_HEADROOM: f64 = 0.25;

/// The paper's joint spatio-temporal power manager.
#[derive(Debug, Clone)]
pub struct InsureController {
    config: InsureConfig,
    eligible: Vec<BatteryId>,
    last_screening: Option<SimTime>,
    unused_budget: AmpHours,
    /// Raises are blocked until this instant after an emergency shutdown
    /// or capping action, so the cluster cannot thrash through expensive
    /// on/off cycles.
    raise_blocked_until: Option<SimTime>,
    /// Exponentially smoothed solar surplus (W): VM additions commit a
    /// ~10-minute boot, so they key off the sustained surplus, not one
    /// bright control period between clouds.
    smoothed_surplus: f64,
    /// Detects failed/suspect units from observable signals and
    /// quarantines them out of SPM selection.
    health: HealthMonitor,
    /// Sequences the staged black-start after an emergency shutdown or
    /// brownout; its admission cap only ever lowers the VM target.
    recovery: RecoveryCoordinator,
    /// Per-period working lists, refilled on every control call: the
    /// eligible units out of quarantine, the dischargers picked from
    /// them, those left for charging and the chargers picked from those,
    /// plus the SPM selections' candidate ranking.
    survivors: Vec<BatteryId>,
    dischargers: Vec<BatteryId>,
    charge_eligible: Vec<BatteryId>,
    chargers: Vec<BatteryId>,
    ranked: Vec<usize>,
}

impl InsureController {
    /// Creates the controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`InsureConfig::validate`]. Use
    /// [`InsureController::try_new`] to handle invalid configurations
    /// gracefully.
    #[must_use]
    pub fn new(config: InsureConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid InSURE config: {e}"))
    }

    /// Creates the controller, rejecting invalid configurations.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn try_new(config: InsureConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(Self::with_valid(config))
    }

    /// The controller at [`InsureConfig::prototype`], which always
    /// validates (`config::tests::prototype_validates`), so this
    /// constructor cannot fail.
    #[must_use]
    pub fn prototype() -> Self {
        // Named by type: ins-lint's call graph does not resolve `Self::`
        // calls, and L011 must see this edge from the service's engine
        // registry.
        InsureController::with_valid(InsureConfig::prototype())
    }

    /// The controller around a `config` that passes
    /// [`InsureConfig::validate`].
    fn with_valid(config: InsureConfig) -> Self {
        Self {
            config,
            eligible: Vec::new(),
            last_screening: None,
            unused_budget: AmpHours::ZERO,
            raise_blocked_until: None,
            smoothed_surplus: 0.0,
            health: HealthMonitor::default(),
            recovery: RecoveryCoordinator::default(),
            survivors: Vec::new(),
            dischargers: Vec::new(),
            charge_eligible: Vec::new(),
            chargers: Vec::new(),
            ranked: Vec::new(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &InsureConfig {
        &self.config
    }

    /// The controller's health monitor (quarantine state).
    #[must_use]
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// The controller's black-start coordinator (recovery state).
    #[must_use]
    pub fn recovery(&self) -> &RecoveryCoordinator {
        &self.recovery
    }

    fn maybe_screen(&mut self, obs: &SystemObservation) {
        let due = match self.last_screening {
            None => true,
            Some(t) => obs.now.since(t) >= SCREENING_INTERVAL,
        };
        if !due {
            return;
        }
        self.last_screening = Some(obs.now);
        let threshold = discharge_threshold(
            self.unused_budget,
            self.config.lifetime_discharge,
            obs.elapsed_days,
            self.config.desired_lifetime_days,
        );
        // Keep at least two units in play so load and charge can proceed.
        let applied = screen(
            &obs.units,
            threshold,
            self.config.elastic_threshold,
            2,
            &mut self.eligible,
        );
        // Unused budget for the next interval: mean per-unit leftover.
        if !obs.units.is_empty() {
            let leftover: f64 = obs
                .units
                .iter()
                .map(|u| (applied - u.discharge_throughput).value().max(0.0))
                .sum::<f64>()
                / obs.units.len() as f64;
            self.unused_budget = AmpHours::new(leftover);
        }
    }

    /// One control period. With `dark_exit` unset, a dark, idle period
    /// runs the full SPM decision too: that is the oracle the exit is
    /// tested against.
    fn decide_period(&mut self, obs: &SystemObservation, dark_exit: bool) -> ControlAction {
        self.maybe_screen(obs);
        // Health before everything: quarantine gates every selection
        // below, so a failed-open unit drops out of SPM's world the same
        // period its strikes run out.
        self.health.assess(&obs.units, obs.pack_voltage);
        // Recovery lifecycle: notice brownouts we did not order and
        // advance the black-start ramp; its cap is applied at the end.
        self.recovery
            .observe(obs, self.config.discharge_current_cap);
        let total_units = obs.units.len();
        let usable_units = self.health.usable_count(total_units);
        let degraded = usable_units < total_units;
        // Degraded mode: fewer survivors each carry more of the load, so
        // keep extra recovery headroom under the per-unit current cap.
        let discharge_cap = if degraded {
            self.config.discharge_current_cap * 0.85
        } else {
            self.config.discharge_current_cap
        };
        let mut action = ControlAction::default();

        // --- Temporal decision first: it may force a shutdown. ---------
        let (n_discharging, min_discharging_soc, min_discharging_available) = obs
            .units
            .iter()
            .zip(&obs.attachments)
            .filter(|(_, a)| **a == Attachment::DischargeBus)
            .fold((0usize, Soc::FULL, 1.0), |(n, soc, available), (u, _)| {
                (
                    n + 1,
                    soc.min(u.soc),
                    f64::min(available, u.available_fraction),
                )
            });
        let tpm_input = TpmInput {
            discharge_current: obs.discharge_current,
            current_threshold: discharge_cap * n_discharging.max(1) as f64,
            min_discharging_soc,
            min_discharging_available,
            soc_threshold: SOC_LOW_THRESHOLD,
            available_threshold: 0.15,
            knob: obs.knob,
            raise_headroom: RAISE_HEADROOM,
            discharging: n_discharging > 0 && obs.discharge_current.value() > 0.0,
        };
        let mut allow_raise = false;
        match decide(&tpm_input) {
            TpmAction::EmergencyShutdown => {
                action.emergency_shutdown = true;
                action.target_vms = Some(0);
                self.raise_blocked_until = Some(obs.now + SimDuration::from_minutes(20));
                self.recovery.on_outage();
            }
            TpmAction::CapPower(LoadKnob::DutyCycle) => {
                if obs.duty.at_floor() {
                    // Capping exhausted: drop one PM worth of VMs instead.
                    action.target_vms = Some(obs.target_vms.saturating_sub(2));
                } else {
                    action.duty = Some(obs.duty.lowered());
                }
                self.raise_blocked_until = Some(obs.now + SimDuration::from_minutes(5));
            }
            TpmAction::CapPower(LoadKnob::VmCount) => {
                action.target_vms = Some(obs.target_vms.saturating_sub(1));
                self.raise_blocked_until = Some(obs.now + SimDuration::from_minutes(5));
            }
            TpmAction::Hold { headroom } => {
                allow_raise = headroom && self.raise_blocked_until.is_none_or(|t| obs.now >= t);
            }
        }

        // --- Demand estimate after the temporal decision. --------------
        let target_vms = action.target_vms.unwrap_or(obs.target_vms);
        // Size the supply for the *worst case* of the present draw, the
        // demand of the rack's current VM target, and the demand of the
        // target this action is issuing — so demand steps (including our
        // own raises) never outrun the discharge group. An emergency
        // shutdown still has to power the 5-minute checkpoint wind-down,
        // so the present draw stays in the estimate even then.
        let issued_demand = booted_demand(target_vms);
        let demand = if action.emergency_shutdown {
            obs.rack_demand
        } else {
            obs.rack_demand
                .max(obs.rack_demand_target)
                .max(issued_demand)
        };
        let deficit = (demand - obs.solar_power).max(Watts::ZERO);
        let surplus = (obs.solar_power - demand).max(Watts::ZERO);
        self.smoothed_surplus += 0.2 * (surplus.value() - self.smoothed_surplus);
        let night = NightTerms::of(obs);
        let raise = if allow_raise {
            self.capacity_raise(obs, &night, target_vms, surplus)
        } else {
            None
        };

        // --- Dark, idle exit. -------------------------------------------
        // No deficit to discharge for, no surplus to charge from, no VM
        // target and every unit isolated (at night: 0 W of sun, the rack
        // off): the TPM held, and every order below would be "stay
        // isolated". Only the raise rule can still act; unless it fires,
        // nothing changes.
        let idle = deficit.value() <= 0.0
            && surplus.value() <= 0.0
            && obs.target_vms == 0
            && obs.attachments.iter().all(|a| *a == Attachment::Isolated);
        if dark_exit && idle && raise.is_none() {
            return ControlAction::default();
        }

        // --- Spatial decision: who charges, who discharges. ------------
        let health = &self.health;
        let survivors = &mut self.survivors;
        survivors.clear();
        survivors.extend(
            self.eligible
                .iter()
                .copied()
                .filter(|id| !health.is_quarantined(*id)),
        );
        // Every unit gets exactly one order.
        let mut assigned: Vec<(BatteryId, Attachment)> = Vec::with_capacity(obs.units.len());
        // Discharge selection: cover the deficit under the per-unit cap.
        let needed_current = Amps::new(deficit.value() / obs.pack_voltage.value().max(1.0));
        let dischargers = &mut self.dischargers;
        select_for_discharge(
            &obs.units,
            survivors,
            needed_current,
            discharge_cap,
            SOC_LOW_THRESHOLD,
            &mut self.ranked,
            dischargers,
        );
        for id in dischargers.iter() {
            assigned.push((*id, Attachment::DischargeBus));
        }
        // Charge selection from the remaining eligible survivors.
        let charge_eligible = &mut self.charge_eligible;
        charge_eligible.clear();
        charge_eligible.extend(
            survivors
                .iter()
                .copied()
                .filter(|id| !dischargers.contains(id)),
        );
        let n = charge_batch_size(surplus, PEAK_CHARGE_POWER);
        let chargers = &mut self.chargers;
        select_for_charging(
            &obs.units,
            charge_eligible,
            n,
            CHARGE_TARGET_SOC,
            &mut self.ranked,
            chargers,
        );
        for id in chargers.iter() {
            assigned.push((*id, Attachment::ChargeBus));
        }
        // Charged spare units ride the discharge bus as hot standby while
        // servers run: they carry no current while solar suffices, but
        // give the bus instant ride-through when a cloud crosses between
        // control periods. Everything else floats isolated.
        let serving = target_vms > 0 && !action.emergency_shutdown;
        for u in &obs.units {
            if !assigned.iter().any(|(id, _)| *id == u.id) {
                let hot_standby = serving
                    && survivors.contains(&u.id)
                    && u.soc.value() > SOC_LOW_THRESHOLD.value() + 0.1
                    && !u.at_cutoff;
                let to = if hot_standby {
                    Attachment::DischargeBus
                } else {
                    Attachment::Isolated
                };
                assigned.push((u.id, to));
            }
        }
        action.attachments = assigned;

        // --- Night economy policy (independent of raise headroom). ------
        // Night work runs on stored Ah, the scarcest resource: run a
        // reduced footprint only while there is a backlog to chew through,
        // and wind all the way down at the emergency-handling reserve
        // (§6.3's energy availability).
        if night.night
            && !action.emergency_shutdown
            && action.target_vms.is_none()
            && target_vms > 0
            && (target_vms > night.cap || night.mean_soc < 0.50 || !night.backlog)
        {
            action.target_vms = Some(target_vms - 1);
        }

        // --- Capacity raise when healthy. -------------------------------
        if !action.emergency_shutdown && action.target_vms.is_none() {
            match raise {
                Some(Raise::Duty(duty)) => action.duty = Some(duty),
                Some(Raise::Vms(vms)) => {
                    // Block further raises until this one has had time to
                    // boot and show up in the measured demand.
                    action.target_vms = Some(vms);
                    self.raise_blocked_until = Some(obs.now + SimDuration::from_minutes(6));
                }
                None => {}
            }
        }

        // --- Degraded-mode shedding. ------------------------------------
        // The VM ceiling scales with the fraction of the e-Buffer still
        // in service, so a shrunken buffer is never asked to back a full
        // rack through the night. A fault changes performance, never
        // correctness: this only ever lowers the target.
        if degraded && !action.emergency_shutdown && total_units > 0 {
            let ceiling =
                // ins-lint: allow(L009) -- quotient <= total_vm_slots, which is u32
                ((u64::from(obs.total_vm_slots) * usable_units as u64) / total_units as u64) as u32;
            let intended = action.target_vms.unwrap_or(obs.target_vms);
            if intended > ceiling {
                action.target_vms = Some(ceiling);
            }
        }

        // --- Black-start admission cap. ---------------------------------
        // After an outage the coordinator releases capacity in budget-
        // gated stages; like degraded mode, this only ever lowers the
        // target, so recovery sequencing can never add demand.
        if !action.emergency_shutdown {
            if let Some(cap) = self.recovery.admission_cap() {
                let intended = action.target_vms.unwrap_or(obs.target_vms);
                if intended > cap {
                    action.target_vms = Some(cap);
                }
            }
        }
        action
    }

    /// The capacity-raise rule, for a period in which the TPM allows a
    /// raise: one notch more duty, or one more VM. It reads the period
    /// and the smoothed surplus and changes nothing, so the dark, idle
    /// exit and the full decision share its verdict.
    fn capacity_raise(
        &self,
        obs: &SystemObservation,
        night: &NightTerms,
        target_vms: u32,
        surplus: Watts,
    ) -> Option<Raise> {
        let charged_buffer = obs
            .units
            .iter()
            .filter(|u| u.soc.value() >= CHARGE_TARGET_SOC.value() * 0.8)
            .count();
        // Raising the duty cycle is cheap; adding a VM may power a
        // machine on, so it needs either a solar surplus covering the
        // increment or a solidly charged buffer.
        let vm_increment = Watts::new(250.0);
        let night_ok = !night.night || (night.mean_soc > 0.55 && night.backlog);
        if obs.duty.fraction() < 1.0 {
            (surplus.value() > 0.0 || charged_buffer >= 2).then(|| Raise::Duty(obs.duty.raised()))
        } else if target_vms < night.cap
            && night_ok
            && (self.smoothed_surplus > vm_increment.value() || charged_buffer >= 2)
        {
            // Grow one VM at a time; the rack maps VMs to PMs.
            Some(Raise::Vms(target_vms + 1))
        } else {
            None
        }
    }
}

impl PowerController for InsureController {
    fn name(&self) -> &'static str {
        "InSURE (spatio-temporal)"
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        Some(Box::new(self.clone()))
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        self.decide_period(obs, true)
    }
}

/// What the capacity-raise rule orders.
#[derive(Debug, Clone, Copy)]
enum Raise {
    Duty(DutyCycle),
    Vms(u32),
}

/// The night economy's reading of one observation.
struct NightTerms {
    /// Solar under 5 W.
    night: bool,
    /// The VM ceiling: half the slots at night, all of them by day.
    cap: u32,
    /// Mean state of charge over the units (0 with none).
    mean_soc: f64,
    /// More than 25 GB waiting.
    backlog: bool,
}

impl NightTerms {
    fn of(obs: &SystemObservation) -> Self {
        let night = obs.solar_power.value() < 5.0;
        Self {
            night,
            cap: if night {
                obs.total_vm_slots / 2
            } else {
                obs.total_vm_slots
            },
            mean_soc: if obs.units.is_empty() {
                0.0
            } else {
                obs.units.iter().map(|u| u.soc.value()).sum::<f64>() / obs.units.len() as f64
            },
            backlog: obs.pending_gb > 25.0,
        }
    }
}

impl Default for InsureController {
    fn default() -> Self {
        Self::prototype()
    }
}

// ---------------------------------------------------------------------
// Baseline: grid-green style tracking + peak shaving, unified buffer
// ---------------------------------------------------------------------

/// Protection threshold: the baseline's unified buffer disconnects below
/// this mean SoC.
const PROTECTION_SOC: Soc = Soc::saturating(0.25);

/// SoC at which a locked-out baseline buffer is released back to the
/// load.
const RELEASE_SOC: Soc = Soc::saturating(0.60);

/// The §6.4 baseline: renewable-tracking load control with a unified
/// (all-or-nothing) energy buffer and no discharge capping.
#[derive(Debug, Clone, Default)]
pub struct BaselineController {
    /// `true` while the buffer is locked out charging after a protection
    /// event (it must recharge to [`RELEASE_SOC`] before reuse).
    locked_out: bool,
}

impl BaselineController {
    /// Creates the baseline with prototype numbers (≈ 360 W per active
    /// machine, 25 % protection cutoff, 60 % recharge release).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl PowerController for BaselineController {
    fn name(&self) -> &'static str {
        "baseline (tracking + peak shaving)"
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        Some(Box::new(self.clone()))
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let mut action = ControlAction::default();
        let mean_soc = if obs.units.is_empty() {
            0.0
        } else {
            obs.units.iter().map(|u| u.soc.value()).sum::<f64>() / obs.units.len() as f64
        };
        let any_cutoff = obs.units.iter().any(|u| u.at_cutoff);

        // Unified protection: the whole buffer drops out together.
        if !self.locked_out && (mean_soc < PROTECTION_SOC || any_cutoff) {
            self.locked_out = true;
        }
        if self.locked_out && mean_soc >= RELEASE_SOC {
            self.locked_out = false;
        }

        if self.locked_out {
            // Whole buffer charges; servers may only ride direct solar.
            action.attachments = obs
                .units
                .iter()
                .map(|u| (u.id, Attachment::ChargeBus))
                .collect();
            // Solar-only operation needs a stability margin, or every
            // passing cloud browns the servers out.
            let machines =
                // ins-lint: allow(L009) -- float `as` saturates at u32::MAX; so does the doubling below
                (obs.solar_power.value() / (MACHINE_WATTS.value() * 1.3)).floor() as u32;
            let target = machines.saturating_mul(2).min(obs.total_vm_slots);
            if target == 0 {
                action.emergency_shutdown = true;
            }
            action.target_vms = Some(target);
            return action;
        }

        // Renewable tracking: machine count follows the solar budget, with
        // the unified buffer shaving what's left (no per-unit decisions).
        let buffer_assist = if mean_soc > 0.5 { 1.5 } else { 0.5 };
        let budget = obs.solar_power.value() * (1.0 + buffer_assist * 0.3);
        // ins-lint: allow(L009) -- float `as` saturates at u32::MAX; so does the doubling below
        let machines = (budget / MACHINE_WATTS.value()).floor() as u32;
        let target = machines.saturating_mul(2).min(obs.total_vm_slots);
        action.target_vms = Some(target);

        // The unified buffer backs the load whenever the demand implied
        // by the VM target being set right now (machines booting included)
        // can exceed solar.
        let tracked_demand = Watts::new(f64::from(machines) * MACHINE_WATTS.value());
        let demand_estimate = obs.rack_demand.max(tracked_demand);
        let unified = if demand_estimate > obs.solar_power {
            Attachment::DischargeBus
        } else {
            Attachment::ChargeBus
        };
        action.attachments = obs.units.iter().map(|u| (u.id, unified)).collect();
        action
    }
}

// ---------------------------------------------------------------------
// Non-Opt: fixed schedule, aggressive buffer use (Table 6)
// ---------------------------------------------------------------------

/// Table 6's non-optimized log: the prototype's fixed daily schedule
/// ("the first PM is turned on at 8:30 AM, the fourth at 11:30 AM; from
/// 4:00 PM the first PM is turned off and all PMs are down by 6:30 PM",
/// §5) with the buffer used aggressively and no capping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum DegradationLevel {
    /// Run the full schedule.
    #[default]
    Full,
    /// Buffer sagging: run half the schedule.
    Half,
    /// Buffer nearly flat: shut down until it recovers.
    Dead,
}

/// See module docs; carries a coarse protection state with hysteresis so
/// the operators' one manual rule ("back off when the pack sags") doesn't
/// flap every control period.
#[derive(Debug, Clone, Default)]
pub struct NoOptController {
    degradation: DegradationLevel,
}

impl NoOptController {
    /// Creates the controller.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The fixed VM schedule by time of day.
    #[must_use]
    fn scheduled_vms(hour: f64) -> u32 {
        match hour {
            h if h < 8.5 => 0,
            h if h < 9.5 => 2,
            h if h < 10.5 => 4,
            h if h < 11.5 => 6,
            h if h < 16.0 => 8,
            h if h < 17.0 => 6,
            h if h < 17.75 => 4,
            h if h < 18.5 => 2,
            _ => 0,
        }
    }
}

impl PowerController for NoOptController {
    fn name(&self) -> &'static str {
        "non-optimized (fixed schedule)"
    }

    fn fork_controller(&self) -> Option<Box<dyn SnapshotController>> {
        Some(Box::new(self.clone()))
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let mut action = ControlAction::default();
        let mut target = Self::scheduled_vms(obs.now.time_of_day_hours()).min(obs.total_vm_slots);
        // The operators' only concession to the power system: when the
        // pack sags they halve the schedule, and drop it entirely once it
        // is nearly flat. The trigger watches the *available well* (what
        // actually collapses under load); wide hysteresis bands keep the
        // rule from flapping as the well bounces back at rest.
        let mean_available = if obs.units.is_empty() {
            0.0
        } else {
            obs.units.iter().map(|u| u.available_fraction).sum::<f64>() / obs.units.len() as f64
        };
        self.degradation = match self.degradation {
            DegradationLevel::Full if mean_available < 0.35 => DegradationLevel::Half,
            DegradationLevel::Half if mean_available < 0.15 => DegradationLevel::Dead,
            DegradationLevel::Half if mean_available > 0.75 => DegradationLevel::Full,
            DegradationLevel::Dead if mean_available > 0.60 => DegradationLevel::Half,
            level => level,
        };
        match self.degradation {
            DegradationLevel::Full => {}
            DegradationLevel::Half => target /= 2,
            DegradationLevel::Dead => target = 0,
        }
        action.target_vms = Some(target);
        // Aggressive unified buffer: discharge whenever the demand implied
        // by the schedule target *being set right now* (booting machines
        // included) can exceed solar; charge everything otherwise. Only
        // hard exhaustion stops it.
        let scheduled_demand = booted_demand(target);
        let unified = if obs.rack_demand.max(scheduled_demand) > obs.solar_power {
            Attachment::DischargeBus
        } else {
            Attachment::ChargeBus
        };
        action.attachments = obs
            .units
            .iter()
            .map(|u| {
                let a = if u.at_cutoff {
                    Attachment::ChargeBus
                } else {
                    unified
                };
                (u.id, a)
            })
            .collect();
        action
    }
}

// Every stock policy is plain data, so its snapshot copy is a derived
// clone. Controllers that wrap external machinery (the service's
// supervisor bridge) deliberately do *not* appear here: they keep the
// default `fork_controller() -> None`, which makes
// `InSituSystem::snapshot()` fail loudly instead of forking a handle
// whose far side cannot be duplicated.
impl SnapshotController for InsureController {
    fn clone_snapshot(&self) -> Box<dyn SnapshotController> {
        Box::new(self.clone())
    }
}

impl SnapshotController for BaselineController {
    fn clone_snapshot(&self) -> Box<dyn SnapshotController> {
        Box::new(self.clone())
    }
}

impl SnapshotController for NoOptController {
    fn clone_snapshot(&self) -> Box<dyn SnapshotController> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::QUARANTINE_STRIKES;
    use ins_sim::rng::SimRng;
    use proptest::prelude::*;

    /// The relations the controller relies on among its policy constants.
    /// The SoC threshold order and the screening period are checked next
    /// to the configuration they left, in `config`'s tests.
    #[test]
    fn policy_constants_keep_the_relations_validate_checked() {
        assert!((0.0..1.0).contains(&RAISE_HEADROOM));
        assert!(PEAK_CHARGE_POWER.value() > 0.0);
    }

    fn obs() -> SystemObservation {
        SystemObservation {
            now: SimTime::from_hms(12, 0, 0),
            elapsed_days: 0.5,
            solar_power: Watts::new(1200.0),
            units: vec![
                UnitView {
                    id: BatteryId(0),
                    soc: Soc::new(0.9),
                    available_fraction: 0.9,
                    discharge_throughput: AmpHours::new(5.0),
                    at_cutoff: false,
                    terminal_voltage: Volts::new(25.0),
                    telemetry_age: SimDuration::ZERO,
                },
                UnitView {
                    id: BatteryId(1),
                    soc: Soc::new(0.5),
                    available_fraction: 0.5,
                    discharge_throughput: AmpHours::new(8.0),
                    at_cutoff: false,
                    terminal_voltage: Volts::new(24.2),
                    telemetry_age: SimDuration::ZERO,
                },
                UnitView {
                    id: BatteryId(2),
                    soc: Soc::new(0.3),
                    available_fraction: 0.3,
                    discharge_throughput: AmpHours::new(2.0),
                    at_cutoff: false,
                    terminal_voltage: Volts::new(23.5),
                    telemetry_age: SimDuration::ZERO,
                },
            ],
            attachments: vec![Attachment::Isolated; 3],
            discharge_current: Amps::ZERO,
            active_vms: 4,
            target_vms: 4,
            total_vm_slots: 8,
            duty: DutyCycle::FULL,
            rack_demand: Watts::new(900.0),
            rack_demand_target: Watts::new(900.0),
            rack_demand_full: Watts::new(1800.0),
            pack_voltage: Volts::new(24.0),
            pending_gb: 100.0,
            knob: LoadKnob::DutyCycle,
            brownouts: 0,
        }
    }

    #[test]
    fn insure_charges_surplus_into_lowest_soc_units() {
        let mut c = InsureController::default();
        let action = c.control(&obs());
        // 300 W surplus at 230 W PPC → one charger, the 0.3-SoC unit.
        let chargers: Vec<BatteryId> = action
            .attachments
            .iter()
            .filter(|(_, a)| *a == Attachment::ChargeBus)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(chargers, vec![BatteryId(2)]);
        assert!(!action.emergency_shutdown);
    }

    #[test]
    fn insure_discharges_under_deficit() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.solar_power = Watts::new(100.0);
        let action = c.control(&o);
        let dischargers: Vec<BatteryId> = action
            .attachments
            .iter()
            .filter(|(_, a)| *a == Attachment::DischargeBus)
            .map(|(id, _)| *id)
            .collect();
        assert!(!dischargers.is_empty());
        // Fullest unit first.
        assert_eq!(dischargers[0], BatteryId(0));
        // The 0.3-SoC unit is at the low threshold and must not discharge.
        assert!(!dischargers.contains(&BatteryId(2)));
    }

    #[test]
    fn insure_caps_duty_on_overcurrent() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.solar_power = Watts::new(100.0);
        o.attachments = vec![
            Attachment::DischargeBus,
            Attachment::DischargeBus,
            Attachment::Isolated,
        ];
        o.discharge_current = Amps::new(60.0); // 2 units × 17.5 A cap = 35 A
        let action = c.control(&o);
        assert_eq!(action.duty, Some(DutyCycle::FULL.lowered()));
    }

    #[test]
    fn insure_reduces_vms_for_stream_workloads() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.knob = LoadKnob::VmCount;
        o.solar_power = Watts::new(100.0);
        o.attachments = vec![
            Attachment::DischargeBus,
            Attachment::DischargeBus,
            Attachment::Isolated,
        ];
        o.discharge_current = Amps::new(60.0);
        let action = c.control(&o);
        assert_eq!(action.target_vms, Some(3));
    }

    #[test]
    fn insure_shuts_down_on_low_soc_discharge() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.units[0].soc = Soc::new(0.2);
        o.attachments = vec![
            Attachment::DischargeBus,
            Attachment::Isolated,
            Attachment::Isolated,
        ];
        o.discharge_current = Amps::new(10.0);
        let action = c.control(&o);
        assert!(action.emergency_shutdown);
        assert_eq!(action.target_vms, Some(0));
    }

    #[test]
    fn insure_raises_capacity_with_headroom_and_energy() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.duty = DutyCycle::new(0.5);
        let action = c.control(&o);
        assert_eq!(action.duty, Some(DutyCycle::new(0.5).raised()));
    }

    #[test]
    fn insure_grows_vms_at_full_duty_once_surplus_is_sustained() {
        let mut c = InsureController::default();
        let mut o = obs(); // duty already full, 4 of 8 VMs, 300 W surplus
                           // The smoothed-surplus gate requires the surplus to persist
                           // across several control periods before committing a boot.
        let mut raised = None;
        for minute in 0u64..15 {
            o.now = SimTime::from_hms(12, minute, 0);
            let action = c.control(&o);
            if action.target_vms.is_some() {
                raised = action.target_vms;
                break;
            }
        }
        assert_eq!(raised, Some(5));
    }

    #[test]
    fn insure_does_not_raise_on_one_bright_period() {
        let mut c = InsureController::default();
        let o = obs();
        let action = c.control(&o);
        assert_eq!(
            action.target_vms, None,
            "a single sunny minute must not boot a machine"
        );
    }

    #[test]
    fn insure_quarantines_failed_unit_and_reselects_survivors() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.solar_power = Watts::new(100.0); // deficit: dischargers needed
                                           // Light lifetime usage so screening keeps all three in play and
                                           // quarantine alone decides who survives.
        o.units[0].discharge_throughput = AmpHours::new(0.5);
        o.units[1].discharge_throughput = AmpHours::new(1.0);
        o.units[2].discharge_throughput = AmpHours::new(2.0);
        // Unit 0 fails open: terminals collapse while SoC still claims 90 %.
        o.units[0].terminal_voltage = Volts::ZERO;
        o.units[0].at_cutoff = true;
        let mut last = ControlAction::default();
        for minute in 0..=QUARANTINE_STRIKES {
            o.now = SimTime::from_hms(12, u64::from(minute), 0);
            last = c.control(&o);
        }
        assert!(c.health().is_quarantined(BatteryId(0)));
        // The failed unit is isolated, never on a bus.
        let unit0 = last
            .attachments
            .iter()
            .find(|(id, _)| *id == BatteryId(0))
            .map(|(_, a)| *a);
        assert_eq!(unit0, Some(Attachment::Isolated));
        // SPM re-selected over survivors: unit 1 (next fullest) carries
        // the deficit now.
        let dischargers: Vec<BatteryId> = last
            .attachments
            .iter()
            .filter(|(_, a)| *a == Attachment::DischargeBus)
            .map(|(id, _)| *id)
            .collect();
        assert!(dischargers.contains(&BatteryId(1)));
        assert!(!dischargers.contains(&BatteryId(0)));
    }

    #[test]
    fn insure_degraded_mode_sheds_vms_proportionally() {
        let mut c = InsureController::default();
        let mut o = obs();
        o.target_vms = 8;
        o.active_vms = 8;
        o.units[0].terminal_voltage = Volts::ZERO;
        let mut last = ControlAction::default();
        for minute in 0..=QUARANTINE_STRIKES {
            o.now = SimTime::from_hms(12, u64::from(minute), 0);
            last = c.control(&o);
        }
        // 1 of 3 units quarantined → ceiling = 8 · 2/3 = 5 VMs.
        assert_eq!(last.target_vms, Some(5));
        assert!(!last.emergency_shutdown, "degradation is not a shutdown");
    }

    #[test]
    fn insure_transient_glitch_does_not_quarantine() {
        let mut c = InsureController::default();
        let mut o = obs();
        // One noisy sample, then clean telemetry again.
        o.units[0].terminal_voltage = Volts::ZERO;
        o.now = SimTime::from_hms(12, 0, 0);
        let _ = c.control(&o);
        o.units[0].terminal_voltage = Volts::new(25.0);
        for minute in 1u64..10 {
            o.now = SimTime::from_hms(12, minute, 0);
            let _ = c.control(&o);
        }
        assert!(!c.health().is_quarantined(BatteryId(0)));
    }

    /// A random view of unit `i`: any SoC and fill, a sense voltage that
    /// has sometimes collapsed, and telemetry that is sometimes stale.
    fn random_unit(rng: &mut SimRng, i: usize) -> UnitView {
        let terminal_voltage = if rng.chance(0.2) {
            Volts::new(rng.uniform(0.0, 12.0))
        } else {
            Volts::new(rng.uniform(22.0, 26.0))
        };
        UnitView {
            id: BatteryId(i),
            soc: Soc::new(rng.next_f64()),
            available_fraction: rng.next_f64(),
            discharge_throughput: AmpHours::new(rng.uniform(0.0, 50.0)),
            at_cutoff: terminal_voltage.value() < 21.0,
            terminal_voltage,
            telemetry_age: if rng.chance(0.2) {
                SimDuration::from_secs(rng.uniform(0.0, 900.0) as u64)
            } else {
                SimDuration::ZERO
            },
        }
    }

    /// A dark observation: no solar, no demand, no VM target, a backlog
    /// near the 25 GB night threshold, a duty cycle below or at full, and
    /// now and then a unit left on a bus.
    fn dark(rng: &mut SimRng, now: SimTime, brownouts: usize) -> SystemObservation {
        let mut o = obs();
        o.now = now;
        o.elapsed_days = now.as_hours() / 24.0;
        o.solar_power = Watts::ZERO;
        o.units = (0..3).map(|i| random_unit(rng, i)).collect();
        o.attachments = (0..3)
            .map(|_| match rng.next_index(20) {
                0 => Attachment::ChargeBus,
                1 => Attachment::DischargeBus,
                _ => Attachment::Isolated,
            })
            .collect();
        o.discharge_current = Amps::ZERO;
        o.active_vms = 0;
        o.target_vms = 0;
        o.duty = if rng.chance(0.5) {
            DutyCycle::FULL
        } else {
            DutyCycle::new(rng.uniform(0.4, 0.95))
        };
        o.rack_demand = Watts::ZERO;
        o.rack_demand_target = Watts::ZERO;
        o.pending_gb = rng.uniform(20.0, 30.0);
        o.brownouts = brownouts;
        o
    }

    /// What `action` leaves the plant with: each unit's attachment after
    /// the orders (an omitted unit keeps its own), and the rack orders.
    fn effect(
        o: &SystemObservation,
        action: &ControlAction,
    ) -> (Vec<Attachment>, Option<u32>, Option<DutyCycle>, bool) {
        let mut attachments = o.attachments.clone();
        for (id, to) in &action.attachments {
            attachments[id.0] = *to;
        }
        (
            attachments,
            action.target_vms,
            action.duty,
            action.emergency_shutdown,
        )
    }

    /// Every field a later control call reads; the working lists are
    /// refilled before each use.
    fn carried_state(c: &InsureController) -> String {
        format!(
            "{:?}",
            (
                &c.eligible,
                c.last_screening,
                c.unused_budget,
                c.raise_blocked_until,
                c.smoothed_surplus,
                &c.health,
                &c.recovery,
            )
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The dark, idle exit is exact. Sunny periods build up smoothed
        /// surplus and a raise block; then, through a night of random
        /// dark observations, the controller taking the exit and the one
        /// running the full decision order the same effect on the plant
        /// and keep every field a later call reads equal, and at dawn
        /// they give equal actions.
        #[test]
        fn dark_idle_exit_matches_the_full_decision(seed in 0u64..u64::MAX) {
            let mut rng = SimRng::seed(seed);
            let mut exiting = InsureController::default();
            let mut full = exiting.clone();
            let mut now = SimTime::from_hms(15, 0, 0);
            // Four or more sunny minutes: the smoothed surplus passes
            // 250 W, so a VM raise sets a raise block.
            for _ in 0..4 + rng.next_index(12) {
                let mut o = obs();
                o.now = now;
                o.solar_power = Watts::new(rng.uniform(1000.0, 1600.0));
                o.units = (0..3).map(|i| random_unit(&mut rng, i)).collect();
                o.target_vms = rng.next_index(3) as u32;
                o.rack_demand = Watts::new(rng.uniform(200.0, 500.0));
                o.rack_demand_target = o.rack_demand;
                prop_assert_eq!(exiting.control(&o), full.decide_period(&o, false));
                now += SimDuration::from_minutes(1);
            }
            prop_assert!(full.smoothed_surplus > 0.0 && full.raise_blocked_until.is_some());
            // The first dark call lands inside or after the raise block.
            now += SimDuration::from_minutes(rng.next_index(8) as u64);
            let mut brownouts = 0;
            for _ in 0..rng.next_index(120) + 1 {
                if rng.chance(0.02) {
                    brownouts += 1;
                }
                let o = dark(&mut rng, now, brownouts);
                let (a, b) = (exiting.control(&o), full.decide_period(&o, false));
                prop_assert_eq!(effect(&o, &a), effect(&o, &b), "at {}", now);
                prop_assert_eq!(carried_state(&exiting), carried_state(&full), "at {}", now);
                // Screening (hourly) is due at some calls and not at others.
                now += SimDuration::from_secs(60 * (1 + rng.next_index(15) as u64));
            }
            let mut dawn = dark(&mut rng, now, brownouts);
            dawn.solar_power = Watts::new(rng.uniform(50.0, 400.0));
            prop_assert_eq!(exiting.control(&dawn), full.decide_period(&dawn, false));
        }
    }

    #[test]
    fn baseline_moves_the_whole_buffer_together() {
        let mut c = BaselineController::new();
        let mut o = obs();
        o.solar_power = Watts::new(200.0);
        let action = c.control(&o);
        let first = action.attachments[0].1;
        assert!(action.attachments.iter().all(|(_, a)| *a == first));
        assert_eq!(first, Attachment::DischargeBus);
    }

    #[test]
    fn baseline_tracks_renewable_with_vm_count() {
        let mut c = BaselineController::new();
        let mut o = obs();
        o.solar_power = Watts::new(1400.0);
        let high = c.control(&o).target_vms.unwrap();
        o.solar_power = Watts::new(400.0);
        let low = c.control(&o).target_vms.unwrap();
        assert!(high > low);
    }

    #[test]
    fn baseline_targets_every_slot_on_a_huge_solar_reading() {
        // A replay feed accepts any finite wattage; 1e13 W saturates the
        // machine count, and doubling it into VMs must saturate too.
        let mut c = BaselineController::new();
        let mut o = obs();
        o.solar_power = Watts::new(1e13);
        assert_eq!(c.control(&o).target_vms, Some(o.total_vm_slots));
        // The locked-out (solar-only) path sizes the rack the same way.
        o.units[0].at_cutoff = true;
        let locked_out = c.control(&o);
        assert!(locked_out
            .attachments
            .iter()
            .all(|(_, a)| *a == Attachment::ChargeBus));
        assert_eq!(locked_out.target_vms, Some(o.total_vm_slots));
    }

    #[test]
    fn baseline_locks_out_on_protection_and_recovers() {
        let mut c = BaselineController::new();
        let mut o = obs();
        for u in &mut o.units {
            u.soc = Soc::new(0.2);
        }
        o.solar_power = Watts::new(100.0);
        let action = c.control(&o);
        // Locked out: everything charges, servers can't run on 100 W.
        assert!(action
            .attachments
            .iter()
            .all(|(_, a)| *a == Attachment::ChargeBus));
        assert!(action.emergency_shutdown);
        // Recharged: lockout releases.
        for u in &mut o.units {
            u.soc = Soc::new(0.95);
        }
        o.solar_power = Watts::new(1200.0);
        let action = c.control(&o);
        assert!(!action.emergency_shutdown);
        assert!(action.target_vms.unwrap() > 0);
    }

    #[test]
    fn noopt_follows_the_wall_clock() {
        let mut c = NoOptController::new();
        let mut o = obs();
        o.now = SimTime::from_hms(7, 0, 0);
        assert_eq!(c.control(&o).target_vms, Some(0));
        o.now = SimTime::from_hms(12, 0, 0);
        assert_eq!(c.control(&o).target_vms, Some(8));
        o.now = SimTime::from_hms(19, 0, 0);
        assert_eq!(c.control(&o).target_vms, Some(0));
    }
}
