//! Full-system co-simulation: solar → e-Buffer → servers → workload.
//!
//! [`InSituSystem`] wires every substrate together and advances them in
//! lock-step, playing the role of the prototype's "power and load
//! coordination" node (§4): it observes the system once per control
//! period, asks the installed [`PowerController`] for orders, applies
//! them through the switch matrix and rack, settles the power flow, and
//! keeps the logs the paper mines for its evaluation.

use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_cluster::rack::Rack;
use ins_powernet::bus::LoadBus;
use ins_powernet::charger::{ChargeController, ChargeStep};
use ins_powernet::matrix::{Attachment, SwitchMatrix};
use ins_powernet::relay::RelayFault;
use ins_sim::fault::{FaultClass, FaultKind, FaultSchedule};
use ins_sim::log::EventLog;
use ins_sim::rng::SimRng;
use ins_sim::stats::RunningStats;
use ins_sim::time::{SimClock, SimDuration, SimTime};
use ins_sim::trace::Trace;
use ins_sim::units::{AmpHours, Amps, Soc, Volts, WattHours, Watts};
use ins_solar::SolarTrace;
use ins_workload::batch::{BatchSpec, BatchWorkload};
use ins_workload::checkpoint::{
    CheckpointCounters, CheckpointPolicy, JobCheckpointer, RestartOutcome,
};
use ins_workload::scaling::ScalingModel;
use ins_workload::stream::{StreamSpec, StreamWorkload};

use crate::controller::{ControlAction, PowerController, SnapshotController, SystemObservation};
use crate::spm::UnitView;
use crate::tpm::LoadKnob;

/// The workload driving the cluster.
#[derive(Debug, Clone)]
pub enum WorkloadModel {
    /// Intermittent batch jobs (seismic surveys).
    Batch {
        /// Job queue and completion stats.
        workload: BatchWorkload,
        /// Cluster throughput scaling.
        scaling: ScalingModel,
        /// CPU utilization the workload drives while running.
        utilization: f64,
    },
    /// Continuous data stream (video surveillance).
    Stream {
        /// Backlog and delay stats.
        workload: StreamWorkload,
        /// Cluster throughput scaling.
        scaling: ScalingModel,
        /// CPU utilization the workload drives while running.
        utilization: f64,
    },
}

impl WorkloadModel {
    /// The paper's seismic case study (Table 2 parameters).
    #[must_use]
    pub fn seismic() -> Self {
        WorkloadModel::Batch {
            workload: BatchWorkload::new(BatchSpec::seismic()),
            scaling: ScalingModel::seismic_analysis(),
            utilization: 0.41,
        }
    }

    /// The paper's video-surveillance case study (Table 3 parameters).
    #[must_use]
    pub fn video() -> Self {
        WorkloadModel::Stream {
            workload: StreamWorkload::new(StreamSpec::video_surveillance()),
            scaling: ScalingModel::video_surveillance(),
            utilization: 0.41,
        }
    }

    /// The TPM knob this workload exposes.
    #[must_use]
    pub fn knob(&self) -> LoadKnob {
        match self {
            WorkloadModel::Batch { .. } => LoadKnob::DutyCycle,
            WorkloadModel::Stream { .. } => LoadKnob::VmCount,
        }
    }

    /// CPU utilization while processing.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        match self {
            WorkloadModel::Batch { utilization, .. }
            | WorkloadModel::Stream { utilization, .. } => *utilization,
        }
    }

    /// Cluster capacity at the given VM count and duty, GB/hour.
    #[must_use]
    pub fn capacity_gb_per_hour(&self, vms: u32, duty: f64) -> f64 {
        match self {
            WorkloadModel::Batch { scaling, .. } | WorkloadModel::Stream { scaling, .. } => {
                scaling.gb_per_hour(vms, duty)
            }
        }
    }

    /// Advances the workload by `dt` at `gb_per_hour` capacity.
    pub fn step(&mut self, now: SimTime, dt: SimDuration, gb_per_hour: f64) {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.step(now, dt, gb_per_hour),
            WorkloadModel::Stream { workload, .. } => workload.step(dt, gb_per_hour),
        }
    }

    /// Re-queues `gb` of crash-lost work for replay: a front-of-queue
    /// replay job for batch, extra backlog for streams.
    pub fn requeue_gb(&mut self, now: SimTime, gb: f64) {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.requeue_gb(now, gb),
            WorkloadModel::Stream { workload, .. } => workload.requeue_gb(gb),
        }
    }

    /// Caps a stream's post-outage drain rate at `factor ×` the arrival
    /// rate (no effect on batch workloads).
    pub fn set_max_catchup_factor(&mut self, factor: f64) {
        if let WorkloadModel::Stream { workload, .. } = self {
            workload.set_max_catchup_factor(factor);
        }
    }

    /// Data processed so far, GB.
    #[must_use]
    pub fn processed_gb(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.processed_gb(),
            WorkloadModel::Stream { workload, .. } => workload.processed_gb(),
        }
    }

    /// Data waiting, GB.
    #[must_use]
    pub fn pending_gb(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.pending_gb(),
            WorkloadModel::Stream { workload, .. } => workload.backlog_gb(),
        }
    }

    /// Mean service latency in minutes (job turnaround for batch, queue
    /// delay for streams).
    #[must_use]
    pub fn mean_latency_minutes(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.mean_turnaround_minutes(),
            WorkloadModel::Stream { workload, .. } => workload.mean_delay_minutes(),
        }
    }
}

/// Notable events recorded during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemEvent {
    /// The controller ordered an emergency checkpoint + shutdown.
    EmergencyShutdown,
    /// The power sources could not cover the demand: servers browned out
    /// and were forcibly checkpointed.
    BrownOut,
    /// A battery unit tripped its protection cutoff while discharging.
    CutoffTrip(BatteryId),
    /// An injected fault of the given class struck the system.
    FaultInjected(FaultClass),
    /// A job checkpoint write completed and became durable.
    CheckpointWritten,
    /// A crash tore an in-flight checkpoint write (the artifact is
    /// discarded; recovery falls back to the previous durable state).
    CheckpointTorn,
    /// The durable checkpoint was invalidated (corruption or an
    /// unwritable checkpoint path); recovery falls back to the baseline.
    CheckpointLost,
    /// Recovery restored job state from a durable checkpoint.
    CheckpointRestored,
    /// An outage episode ended: the rack serves again and any pending
    /// restore completed (or the job was quarantined).
    Recovered,
}

/// Sense/reference current used when reading a unit's terminal voltage
/// and protection-cutoff state (≈ one rack's share of the pack).
const SENSE_CURRENT: Amps = Amps::new(10.0);

/// An active stale-telemetry window on one unit: the controller sees the
/// frozen snapshot (with a growing age) until the window expires.
#[derive(Debug, Clone, Copy)]
struct StaleWindow {
    since: SimTime,
    until: SimTime,
    frozen: UnitView,
}

/// The assembled in-situ system: the plant, the controller that runs it,
/// and the step loop's reused buffers.
pub struct InSituSystem {
    plant: Plant,
    controller: Box<dyn PowerController>,
    /// The step loop's reused buffers (not simulation state).
    scratch: StepScratch,
}

/// Everything an [`InSituSystem`] simulates and records apart from its
/// controller and step scratch. A [`SystemSnapshot`] holds one clone of
/// it, so a field added here forks verbatim by default;
/// [`InSituSystem::fork_from`] names the few it re-derives instead.
#[derive(Clone)]
struct Plant {
    clock: SimClock,
    solar: SolarTrace,
    units: Vec<BatteryUnit>,
    matrix: SwitchMatrix,
    charger: ChargeController,
    bus: LoadBus,
    rack: Rack,
    workload: WorkloadModel,
    control_period: SimDuration,
    started: SimTime,
    last_control: Option<SimTime>,
    last_discharge_current: Amps,

    // Fault-injection state.
    faults: FaultSchedule,
    sensor_rng: SimRng,
    /// Active sensor-noise window: `(sigma, until)`.
    sensor_noise: Option<(f64, SimTime)>,
    charger_dropout_until: Option<SimTime>,
    stale_windows: Vec<Option<StaleWindow>>,
    /// Checkpoint-path faults pending repair: `(server index, until)`.
    checkpoint_faults: Vec<(usize, SimTime)>,
    /// Restart storm in progress: restore attempts fail until this
    /// instant.
    restart_storm_until: Option<SimTime>,

    // Checkpoint/recovery state (None = checkpointing disabled).
    checkpointer: Option<JobCheckpointer>,
    /// Periodic-write pacing: last instant a write was attempted.
    last_checkpoint_attempt: Option<SimTime>,
    /// Job state must be restored before the workload may progress.
    needs_recovery: bool,
    /// When the current outage episode began (MTTR measurement).
    outage_started: Option<SimTime>,
    /// Completed outage episodes, for MTTR.
    recovery_durations: Vec<SimDuration>,
    /// Crash-lost work replayed or abandoned so far, GB.
    lost_work_gb: f64,
    /// Unrecoverable losses: durable-checkpoint corruption and poison-job
    /// quarantines.
    data_loss_events: u64,
    /// Cumulative brownouts (exposed to the controller observation).
    brownouts: usize,

    // Measurement state.
    trace_solar: Trace,
    trace_load: Trace,
    trace_stored: Trace,
    trace_pack_voltage: Trace,
    events: EventLog<SystemEvent>,
    solar_harvested: WattHours,
    solar_used_load: WattHours,
    solar_used_charge: WattHours,
    battery_delivered: WattHours,
    served_time: SimDuration,
    demand_time: SimDuration,
}

/// The sensor-noise stream a run under `faults` draws from: keyed by the
/// schedule's seed, so a `(seed, schedule)` pair fixes a faulty run.
fn sensor_rng(faults: &FaultSchedule) -> SimRng {
    SimRng::seed(faults.seed()).fork("sensor-noise")
}

impl core::fmt::Debug for InSituSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InSituSystem")
            .field("now", &self.plant.clock.now())
            .field("controller", &self.controller.name())
            .field("units", &self.plant.units.len())
            .finish_non_exhaustive()
    }
}

/// Why a system could not be snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The installed controller declined
    /// [`PowerController::fork_controller`]: it wraps state that cannot
    /// be duplicated (the service's supervisor bridge, an external
    /// process), so a forked copy could not be byte-identical. Carries
    /// the controller's display name.
    ControllerNotForkable(&'static str),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ControllerNotForkable(name) => {
                write!(f, "controller '{name}' does not support snapshot forking")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A copy-on-write snapshot of an [`InSituSystem`] mid-run: the forked
/// controller plus one clone of the plant state.
///
/// The state sits behind an [`Arc`], so handing a snapshot to every
/// worker of a sweep pool shares one frozen copy; each
/// [`InSituSystem::fork_from`] call then pays only for the clone it
/// actually needs. The snapshot embeds the job-checkpoint store (the
/// PR 3 [`ins_workload::checkpoint::CheckpointStore`], whose round-trip
/// guarantee the recovery tests pin) verbatim, so forked cells restore
/// from exactly the durable artifacts the prefix wrote.
///
/// Obtained from [`InSituSystem::snapshot`]; consumed (any number of
/// times, from any thread) by [`InSituSystem::fork_from`].
///
/// [`Arc`]: std::sync::Arc
#[derive(Clone)]
pub struct SystemSnapshot {
    controller: std::sync::Arc<dyn SnapshotController>,
    plant: std::sync::Arc<Plant>,
}

impl core::fmt::Debug for SystemSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SystemSnapshot")
            .field("now", &self.plant.clock.now())
            .field("controller", &self.controller.name())
            .field("units", &self.plant.units.len())
            .finish_non_exhaustive()
    }
}

impl SystemSnapshot {
    /// The instant the snapshot was taken (the forked run's first step
    /// starts here).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.plant.clock.now()
    }

    /// The fault schedule the snapshotted run carried. Forks that keep
    /// the same schedule (e.g. fleet sites, whose faults arrive at the
    /// fleet level) pass a clone of this to [`InSituSystem::fork_from`].
    #[must_use]
    pub fn faults(&self) -> &FaultSchedule {
        &self.plant.faults
    }
}

impl InSituSystem {
    /// Starts building a system.
    #[must_use]
    pub fn builder(solar: SolarTrace, controller: Box<dyn PowerController>) -> SystemBuilder {
        SystemBuilder::new(solar, controller)
    }

    /// Freezes the system's complete state into a shareable
    /// copy-on-write [`SystemSnapshot`]: the forked controller plus one
    /// clone of the plant state.
    ///
    /// The incremental sweep engine simulates a grid's shared prefix
    /// once, snapshots it here, and forks every cell from the snapshot
    /// via [`InSituSystem::fork_from`]. The snapshot is a deep copy —
    /// mutating this system afterwards never disturbs it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ControllerNotForkable`] when the installed
    /// controller declines [`PowerController::fork_controller`] (the
    /// service's supervisor bridge): its state cannot be duplicated, so a
    /// fork could not be byte-identical to a from-scratch run.
    pub fn snapshot(&self) -> Result<SystemSnapshot, SnapshotError> {
        let controller = self
            .controller
            .fork_controller()
            .ok_or(SnapshotError::ControllerNotForkable(self.controller.name()))?;
        Ok(SystemSnapshot {
            controller: controller.into(),
            plant: std::sync::Arc::new(self.plant.clone()),
        })
    }

    /// Reconstructs a running system from a snapshot, installing `faults`
    /// as the cell's schedule.
    ///
    /// This is the fork half of the incremental sweep contract: when the
    /// snapshot was taken before the cell's first fault arrival (the
    /// planner's `fork_at` guarantees it) and no sensor-noise window was
    /// active, the forked system's trajectory is **byte-identical** to
    /// running the same configuration from scratch under `faults`.
    ///
    /// The plant state is cloned verbatim except for two fields, which
    /// are re-derived the way [`SystemBuilder::build`] would have done
    /// for this cell:
    ///
    /// * the sensor-noise RNG restarts from `faults.seed()` — the stream
    ///   is untouched during a fault-free prefix, so the fork sees the
    ///   exact stream the scratch run would draw from;
    /// * events already delivered by the prefix's steps (`at <= now - dt`)
    ///   are marked spent via [`FaultSchedule::expire_delivered`], so a
    ///   mis-planned schedule can never re-fire a pre-fork fault late —
    ///   it is dropped, and the equivalence oracle (`--no-incremental`)
    ///   flags the divergence instead of compounding it.
    ///
    /// The controller is a fresh clone of the snapshot's fork, and the
    /// step scratch starts empty; its first step refills it exactly as
    /// the source would.
    #[must_use]
    pub fn fork_from(snapshot: &SystemSnapshot, faults: FaultSchedule) -> InSituSystem {
        let mut plant = Plant::clone(&snapshot.plant);
        let mut faults = faults;
        let now = plant.clock.now();
        if now > plant.started {
            // The prefix's last step started at `now - dt` and drained
            // everything due then; those events are spent, not pending.
            faults.expire_delivered(now - plant.clock.dt());
        }
        plant.sensor_rng = sensor_rng(&faults);
        plant.faults = faults;
        InSituSystem {
            plant,
            controller: snapshot.controller.clone_snapshot(),
            scratch: StepScratch::default(),
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.plant.clock.now()
    }

    /// The battery units.
    #[must_use]
    pub fn units(&self) -> &[BatteryUnit] {
        &self.plant.units
    }

    /// The switch matrix.
    #[must_use]
    pub fn matrix(&self) -> &SwitchMatrix {
        &self.plant.matrix
    }

    /// The server rack.
    #[must_use]
    pub fn rack(&self) -> &Rack {
        &self.plant.rack
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &WorkloadModel {
        &self.plant.workload
    }

    /// The installed controller's name.
    #[must_use]
    pub fn controller_name(&self) -> &'static str {
        self.controller.name()
    }

    /// Recorded events.
    #[must_use]
    pub fn events(&self) -> &EventLog<SystemEvent> {
        &self.plant.events
    }

    /// Solar power trace as replayed (one sample per step).
    #[must_use]
    pub fn trace_solar(&self) -> &Trace {
        &self.plant.trace_solar
    }

    /// Load (rack draw) trace.
    #[must_use]
    pub fn trace_load(&self) -> &Trace {
        &self.plant.trace_load
    }

    /// Total e-Buffer stored energy trace (Wh).
    #[must_use]
    pub fn trace_stored(&self) -> &Trace {
        &self.plant.trace_stored
    }

    /// Mean cabinet open-circuit voltage trace.
    #[must_use]
    pub fn trace_pack_voltage(&self) -> &Trace {
        &self.plant.trace_pack_voltage
    }

    /// Pooled statistics of the pack-voltage trace (Table 6's σ source).
    #[must_use]
    pub fn voltage_stats(&self) -> &RunningStats {
        self.plant.trace_pack_voltage.stats()
    }

    /// Total solar energy harvested so far.
    #[must_use]
    pub fn solar_harvested(&self) -> WattHours {
        self.plant.solar_harvested
    }

    /// Solar energy consumed directly by the load / by charging.
    #[must_use]
    pub fn solar_used(&self) -> (WattHours, WattHours) {
        (self.plant.solar_used_load, self.plant.solar_used_charge)
    }

    /// Energy delivered by the e-Buffer to the load.
    #[must_use]
    pub fn battery_delivered(&self) -> WattHours {
        self.plant.battery_delivered
    }

    /// Fraction of demand-time during which demand was fully served.
    #[must_use]
    pub fn service_availability(&self) -> f64 {
        if self.plant.demand_time.is_zero() {
            return 1.0;
        }
        self.plant.served_time.as_secs() as f64 / self.plant.demand_time.as_secs() as f64
    }

    /// Hours simulated so far.
    #[must_use]
    pub fn elapsed_hours(&self) -> f64 {
        (self.plant.clock.now() - self.plant.started)
            .as_hours()
            .value()
    }

    /// The job checkpointer, when checkpointing is enabled.
    #[must_use]
    pub fn checkpointer(&self) -> Option<&JobCheckpointer> {
        self.plant.checkpointer.as_ref()
    }

    /// Lifetime checkpoint counters (all zero when checkpointing is
    /// disabled).
    #[must_use]
    pub fn checkpoint_counters(&self) -> CheckpointCounters {
        self.plant
            .checkpointer
            .as_ref()
            .map(|c| c.store.counters())
            .unwrap_or_default()
    }

    /// `true` while job state awaits a restore after an outage.
    #[must_use]
    pub fn needs_recovery(&self) -> bool {
        self.plant.needs_recovery
    }

    /// Crash-lost work replayed or abandoned so far, GB.
    #[must_use]
    pub fn lost_work_gb(&self) -> f64 {
        self.plant.lost_work_gb
    }

    /// Throughput that produced durable value: processed GB minus the
    /// replayed/abandoned volume, so each GB counts once. Plain
    /// throughput counts replayed work twice.
    #[must_use]
    pub fn goodput_gb(&self) -> f64 {
        (self.plant.workload.processed_gb() - self.plant.lost_work_gb).max(0.0)
    }

    /// Unrecoverable data-loss events (durable-checkpoint corruption,
    /// poison-job quarantines).
    #[must_use]
    pub fn data_loss_events(&self) -> u64 {
        self.plant.data_loss_events
    }

    /// Completed outage episodes (shutdown/brownout → serving again with
    /// job state restored), for MTTR.
    #[must_use]
    pub fn recovery_durations(&self) -> &[SimDuration] {
        &self.plant.recovery_durations
    }

    /// Brownouts recorded so far.
    #[must_use]
    pub fn brownout_count(&self) -> usize {
        self.plant.brownouts
    }

    /// What the sense lines read for unit `i` right now.
    fn fresh_view(&self, i: usize) -> UnitView {
        let u = &self.plant.units[i];
        // One voltage read serves both fields: `BatteryUnit::at_cutoff`
        // is this comparison, and a failed-open unit reads 0 V, under
        // any positive cutoff.
        let terminal_voltage = u.terminal_voltage(SENSE_CURRENT);
        UnitView {
            id: u.id(),
            soc: u.soc(),
            available_fraction: u.available_fraction().value(),
            discharge_throughput: u.discharge_throughput(),
            at_cutoff: terminal_voltage <= u.params().cutoff_voltage,
            terminal_voltage,
            telemetry_age: SimDuration::ZERO,
        }
    }

    /// Re-reads every unit's attachment from the switch matrix when a
    /// relay contact may have moved since the last read. Between
    /// reconfigurations this is one comparison.
    fn refresh_attachments(&mut self) {
        let generation = self.plant.matrix.generation();
        let scratch = &mut self.scratch;
        if scratch.generation == Some(generation) {
            return;
        }
        let matrix = &self.plant.matrix;
        scratch.attachments.clear();
        scratch.attachments.extend(self.plant.units.iter().map(|u| {
            // Best effort: an untracked unit (impossible today, cheap to
            // tolerate) reads as isolated rather than panicking.
            matrix.attachment(u.id()).unwrap_or(Attachment::Isolated)
        }));
        scratch.generation = Some(generation);
    }

    /// Builds the controller-visible observation in the reused per-unit
    /// buffers, which the caller puts back after the control call. Units
    /// under an active stale-telemetry window report their frozen
    /// snapshot with a growing age instead of live data.
    fn observe(&mut self, solar: Watts) -> SystemObservation {
        self.refresh_attachments();
        let now = self.plant.clock.now();
        let mut views = std::mem::take(&mut self.scratch.views);
        views.clear();
        views.extend(
            (0..self.plant.units.len()).map(|i| match self.plant.stale_windows[i] {
                Some(w) if now < w.until => {
                    let mut frozen = w.frozen;
                    frozen.telemetry_age = now.since(w.since);
                    frozen
                }
                _ => self.fresh_view(i),
            }),
        );
        let mut attachments = std::mem::take(&mut self.scratch.view_attachments);
        attachments.clear();
        attachments.extend_from_slice(&self.scratch.attachments);
        let util = self.plant.workload.utilization();
        SystemObservation {
            now: self.plant.clock.now(),
            elapsed_days: self.elapsed_hours() / 24.0,
            solar_power: solar,
            units: views,
            attachments,
            discharge_current: self.plant.last_discharge_current,
            active_vms: self.plant.rack.active_vms(),
            target_vms: self.plant.rack.target_vms(),
            total_vm_slots: self.plant.rack.total_vm_slots(),
            duty: self.plant.rack.duty(),
            rack_demand: self.plant.rack.power_demand(util),
            rack_demand_target: {
                let profile = self.plant.rack.servers()[0].profile();
                let machines = self
                    .plant
                    .rack
                    .target_vms()
                    .div_ceil(profile.vm_slots.max(1));
                profile.power_at(util, self.plant.rack.duty().fraction()) * f64::from(machines)
            },
            rack_demand_full: Watts::new(
                self.plant.rack.servers().len() as f64
                    * self.plant.rack.servers()[0].profile().peak_power.value(),
            ),
            pack_voltage: Volts::new(
                self.plant
                    .units
                    .first()
                    .map_or(24.0, |u| u.params().nominal_voltage.value()),
            ),
            pending_gb: self.plant.workload.pending_gb(),
            knob: self.plant.workload.knob(),
            brownouts: self.plant.brownouts,
        }
    }

    fn apply(&mut self, action: ControlAction) {
        if action.emergency_shutdown {
            let now = self.plant.clock.now();
            self.plant.rack.shutdown_all();
            self.plant.events.push(now, SystemEvent::EmergencyShutdown);
            if self.plant.outage_started.is_none() {
                self.plant.outage_started = Some(now);
            }
            // Emergency checkpoint: the orderly wind-down gives the write
            // time to land. A broken checkpoint path on any serving
            // machine means the save cannot happen — the job will fall
            // back to its last durable state on restart.
            let path_broken = self.checkpoint_path_broken();
            if let Some(c) = &mut self.plant.checkpointer {
                let progress = self.plant.workload.processed_gb();
                if !path_broken {
                    c.store.begin_write(now, c.policy.write_duration, progress);
                }
                self.plant.needs_recovery = true;
            }
        }
        for (id, attachment) in action.attachments {
            // Best effort on two axes: an unknown id is skipped rather
            // than panicking, and a faulted relay yields whatever
            // attachment the hardware could actually reach.
            let _ = self.plant.matrix.attach(id, attachment);
        }
        if let Some(vms) = action.target_vms {
            if !action.emergency_shutdown {
                self.plant.rack.set_target_vms(vms);
            }
        }
        if let Some(duty) = action.duty {
            self.plant.rack.set_duty(duty);
        }
    }

    /// Strikes the system with one fault, immediately.
    ///
    /// Scheduled faults route through here too; the public entry point
    /// exists so tests and chaos harnesses can inject without a schedule.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let now = self.plant.clock.now();
        self.apply_fault(now, kind);
    }

    /// Forcibly collapses the site's power delivery — the fleet tier's
    /// `SiteBlackout` entry point. Identical to an instantaneous supply
    /// brownout: every server crash-stops with no orderly checkpoint
    /// window, an in-flight checkpoint write is torn, and recovery
    /// (checkpoint restore plus cold boot) must complete before the rack
    /// serves again.
    pub fn force_outage(&mut self) {
        let now = self.plant.clock.now();
        self.plant.rack.force_shutdown_all();
        self.plant.events.push(now, SystemEvent::BrownOut);
        self.plant.brownouts += 1;
        if self.plant.outage_started.is_none() {
            self.plant.outage_started = Some(now);
        }
        if let Some(c) = &mut self.plant.checkpointer {
            // A write caught mid-flight is torn and discarded; the
            // durable checkpoint (if any) survives the crash.
            if c.store.crash() {
                self.plant.events.push(now, SystemEvent::CheckpointTorn);
            }
            self.plant.needs_recovery = true;
        }
    }

    /// The installed fault schedule.
    #[must_use]
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.plant.faults
    }

    fn apply_fault(&mut self, now: SimTime, kind: FaultKind) {
        // Fleet-level faults (site blackouts, WAN partitions, routing
        // flaps, slow sites) are applied by the fleet layer; a single
        // site has nothing to do with them and must not log them either.
        if kind.is_fleet_level() {
            return;
        }
        self.plant
            .events
            .push(now, SystemEvent::FaultInjected(kind.class()));
        match kind {
            FaultKind::BatteryOpenCircuit { unit } => {
                if let Some(u) = self.plant.units.get_mut(unit) {
                    u.fail_open_circuit();
                }
            }
            FaultKind::BatteryCapacityFade { unit, fraction } => {
                if let Some(u) = self.plant.units.get_mut(unit) {
                    u.apply_capacity_fade(fraction);
                }
            }
            FaultKind::BatteryHighResistance { unit, factor } => {
                if let Some(u) = self.plant.units.get_mut(unit) {
                    u.degrade_resistance(factor);
                }
            }
            FaultKind::RelayStuckOpen { unit, role } => {
                let _ = self.plant.matrix.inject_relay_fault(
                    BatteryId(unit),
                    role,
                    RelayFault::StuckOpen,
                );
            }
            FaultKind::RelayStuckClosed { unit, role } => {
                let _ = self.plant.matrix.inject_relay_fault(
                    BatteryId(unit),
                    role,
                    RelayFault::StuckClosed,
                );
            }
            FaultKind::ChargerDropout { duration } => {
                self.plant.charger_dropout_until = Some(now + duration);
            }
            FaultKind::SensorNoise { sigma, duration } => {
                self.plant.sensor_noise = Some((sigma, now + duration));
            }
            FaultKind::StaleTelemetry { unit, duration } => {
                if unit < self.plant.units.len() {
                    let frozen = self.fresh_view(unit);
                    self.plant.stale_windows[unit] = Some(StaleWindow {
                        since: now,
                        until: now + duration,
                        frozen,
                    });
                }
            }
            FaultKind::ServerCrash { server } => {
                let _ = self.plant.rack.crash_server(server);
            }
            FaultKind::CheckpointWriteFailure { server, duration } => {
                if self.plant.rack.set_checkpoint_broken(server, true) {
                    self.plant.checkpoint_faults.push((server, now + duration));
                }
            }
            FaultKind::CheckpointCorruption { server } => {
                // Silent bit-rot in the durable artifact. The server index
                // scopes the fault to a real machine; the job-level store
                // is shared, so any valid index corrupts it.
                if server < self.plant.rack.servers().len() {
                    if let Some(c) = &mut self.plant.checkpointer {
                        if c.store.corrupt_durable() {
                            self.plant.events.push(now, SystemEvent::CheckpointLost);
                            self.plant.data_loss_events += 1;
                        }
                    }
                }
            }
            FaultKind::TornWrite { server } => {
                // A storage-path interruption mid-write, without the host
                // crashing: the in-flight artifact is torn and discarded.
                if server < self.plant.rack.servers().len() {
                    if let Some(c) = &mut self.plant.checkpointer {
                        if c.store.crash() {
                            self.plant.events.push(now, SystemEvent::CheckpointTorn);
                        }
                    }
                }
            }
            FaultKind::RestartStorm { duration } => {
                let until = now + duration;
                // Overlapping storms extend, never shorten, the window.
                self.plant.restart_storm_until = Some(match self.plant.restart_storm_until {
                    Some(t) if t > until => t,
                    _ => until,
                });
            }
            FaultKind::SiteBlackout { .. }
            | FaultKind::WanPartition { .. }
            | FaultKind::RoutingFlap { .. }
            | FaultKind::SlowSite { .. } => {
                // Unreachable: filtered by the is_fleet_level guard above.
            }
        }
    }

    /// Retires expired fault windows (checkpoint repairs, telemetry
    /// recovery); the time comparisons in `observe`/`step` do the rest.
    fn expire_fault_windows(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.plant.checkpoint_faults.len() {
            if now >= self.plant.checkpoint_faults[i].1 {
                let (server, _) = self.plant.checkpoint_faults.swap_remove(i);
                let _ = self.plant.rack.set_checkpoint_broken(server, false);
            } else {
                i += 1;
            }
        }
        for window in &mut self.plant.stale_windows {
            if window.is_some_and(|w| now >= w.until) {
                *window = None;
            }
        }
        if self.plant.restart_storm_until.is_some_and(|t| now >= t) {
            self.plant.restart_storm_until = None;
        }
    }

    /// Completes in-flight checkpoint writes and starts periodic ones.
    fn advance_checkpoints(&mut self, now: SimTime) {
        let (completed, interval, write_duration) = match &mut self.plant.checkpointer {
            Some(c) => (
                c.store.step(now),
                c.policy.interval,
                c.policy.write_duration,
            ),
            None => return,
        };
        if completed {
            self.plant.events.push(now, SystemEvent::CheckpointWritten);
        }
        if self.plant.needs_recovery || !self.plant.rack.any_serving() {
            return;
        }
        let due = self
            .plant
            .last_checkpoint_attempt
            .is_none_or(|t| now.since(t) >= interval);
        if !due {
            return;
        }
        // The attempt is paced regardless of outcome, so a broken
        // checkpoint path is retried next interval, not every step.
        self.plant.last_checkpoint_attempt = Some(now);
        if self.checkpoint_path_broken() {
            return;
        }
        let progress = self.plant.workload.processed_gb();
        if let Some(c) = &mut self.plant.checkpointer {
            c.store.begin_write(now, write_duration, progress);
        }
    }

    /// Whether a serving machine's checkpoint path is broken, so no
    /// checkpoint write can land.
    fn checkpoint_path_broken(&self) -> bool {
        self.plant
            .rack
            .servers()
            .iter()
            .any(|s| s.checkpoint_broken() && s.is_on())
    }

    /// Attempts the pending job-state restore once the rack serves again.
    /// Restores can only ever read the *durable* checkpoint — a torn
    /// write was discarded at crash time and is unreachable here.
    fn attempt_restore(&mut self, now: SimTime) {
        if !self.plant.needs_recovery || !self.plant.rack.any_serving() {
            return;
        }
        let Some(c) = &self.plant.checkpointer else {
            self.plant.needs_recovery = false;
            return;
        };
        if !c.backoff.ready(now) {
            return;
        }
        let policy = c.policy;
        let had_durable = c.store.durable().is_some();
        let processed = self.plant.workload.processed_gb();
        let storm = self.plant.restart_storm_until.is_some_and(|t| now < t);
        if storm {
            // The restore attempt fails: back off exponentially, and
            // quarantine the job as poison after too many consecutive
            // failures.
            let outcome = match &mut self.plant.checkpointer {
                Some(c) => c.backoff.record_failure(now),
                None => return,
            };
            if outcome == RestartOutcome::Exhausted {
                // Poison job: the replay is abandoned. Durable progress is
                // kept; the un-checkpointed remainder is lost for good.
                if let Some(c) = &mut self.plant.checkpointer {
                    let durable = c.store.restore();
                    self.plant.lost_work_gb += (processed - durable).max(0.0);
                    c.backoff = policy.restart_backoff();
                }
                self.plant.data_loss_events += 1;
                self.plant.needs_recovery = false;
            }
            return;
        }
        // Restore succeeds: reinstate the durable progress and replay the
        // work done since that snapshot.
        if let Some(c) = &mut self.plant.checkpointer {
            let restored = c.store.restore();
            let lost = (processed - restored).max(0.0);
            self.plant.lost_work_gb += lost;
            c.backoff.record_success();
            if lost > 0.0 {
                self.plant.workload.requeue_gb(now, lost);
            }
        }
        if had_durable {
            self.plant.events.push(now, SystemEvent::CheckpointRestored);
        }
        self.plant.needs_recovery = false;
    }

    /// The solar reading the *controller* sees: the true harvest,
    /// perturbed while a sensor-noise fault window is active. The power
    /// settlement always uses the true value — noise corrupts decisions,
    /// not physics.
    fn observed_solar(&mut self, actual: Watts, now: SimTime) -> Watts {
        match self.plant.sensor_noise {
            Some((sigma, until)) if now < until => {
                let factor = 1.0 + self.plant.sensor_rng.normal(0.0, sigma);
                Watts::new((actual.value() * factor).max(0.0))
            }
            _ => actual,
        }
    }

    /// Advances the system one clock step.
    pub fn step(&mut self) {
        let now = self.plant.clock.now();
        let dt = self.plant.clock.dt();
        let dt_h = dt.as_hours();
        let solar = self.plant.solar.power_at(now);

        // Scheduled faults due this step strike the hardware first, and
        // expired windows (repairs) retire.
        while let Some(event) = self.plant.faults.pop_due(now) {
            self.apply_fault(now, event.kind);
        }
        self.expire_fault_windows(now);
        self.advance_checkpoints(now);

        // Controller at its period boundary.
        let control_due = match self.plant.last_control {
            None => true,
            Some(t) => now.since(t) >= self.plant.control_period,
        };
        if control_due {
            self.plant.last_control = Some(now);
            let observed = self.observed_solar(solar, now);
            let obs = self.observe(observed);
            let action = self.controller.control(&obs);
            // Keep the observation's buffers for the next one.
            self.scratch.views = obs.units;
            self.scratch.view_attachments = obs.attachments;
            self.apply(action);
        }

        // Bus memberships change only when a relay contact moves (a
        // controller reconfiguration or a relay fault); otherwise the
        // attachment array is already current.
        self.refresh_attachments();

        // Power settlement: load first (solar then discharging units).
        // An in-flight checkpoint write draws its storage-path power from
        // the same budget as the servers.
        let util = self.plant.workload.utilization();
        let checkpoint_power = match &self.plant.checkpointer {
            Some(c) if c.store.writing() => c.policy.write_power,
            _ => Watts::ZERO,
        };
        let demand = self.plant.rack.power_demand(util) + checkpoint_power;
        let scratch = &mut self.scratch;
        let settlement = scratch.members.lend(
            on_bus(
                &mut self.plant.units,
                &scratch.attachments,
                Attachment::DischargeBus,
            ),
            |members| self.plant.bus.settle(demand, solar, members, dt_h),
        );
        let pack_v = self
            .plant
            .units
            .first()
            .map_or(24.0, |u| u.params().nominal_voltage.value());
        self.plant.last_discharge_current = Amps::new(settlement.battery_used.value() / pack_v);

        // Brown-out: a materially unservable demand (beyond what the PSU
        // ride-through tolerates) forces an immediate checkpoint. Small
        // transient mismatches only degrade that step's progress.
        let shortfall_frac = if demand.value() > 1.0 {
            settlement.shortfall / demand
        } else {
            0.0
        };
        let browned_out = shortfall_frac > 0.05;
        if browned_out {
            // The supply actually collapsed: machines crash off instantly
            // (no orderly checkpoint window) and must cold-boot later.
            self.force_outage();
        }
        // Cutoff trips while discharging.
        for (unit, attachment) in self.plant.units.iter().zip(&self.scratch.attachments) {
            if *attachment == Attachment::DischargeBus && unit.at_cutoff(Amps::new(10.0)) {
                self.plant
                    .events
                    .push(now, SystemEvent::CutoffTrip(unit.id()));
            }
        }

        // Charging from what solar remains. A charger dropout disconnects
        // the PV input for its window: nothing charges, and charge-bus
        // units simply rest through it.
        let solar_left = (solar - settlement.solar_used).max(Watts::ZERO);
        let charger_down = self.plant.charger_dropout_until.is_some_and(|t| now < t);
        let charge_step = if charger_down {
            ChargeStep::idle()
        } else {
            let scratch = &mut self.scratch;
            scratch.members.lend(
                on_bus(
                    &mut self.plant.units,
                    &scratch.attachments,
                    Attachment::ChargeBus,
                ),
                |members| self.plant.charger.charge(members, solar_left, dt_h),
            )
        };

        // Isolated units rest (recovery effect continues).
        for (u, attachment) in self.plant.units.iter_mut().zip(&self.scratch.attachments) {
            let attached = match attachment {
                Attachment::DischargeBus => true,
                Attachment::ChargeBus => !charger_down,
                Attachment::Isolated => false,
            };
            if !attached {
                u.rest(dt_h);
            }
        }

        // Rack advances; workload progresses when the demand was served.
        let draw = self.plant.rack.step(dt, util);
        // Recovery: restore job state once machines serve again, then
        // close the outage episode (MTTR measures shutdown → restored).
        self.attempt_restore(now);
        if self.plant.outage_started.is_some()
            && self.plant.rack.any_serving()
            && !self.plant.needs_recovery
        {
            if let Some(start) = self.plant.outage_started.take() {
                self.plant.recovery_durations.push(now.since(start));
                self.plant.events.push(now, SystemEvent::Recovered);
            }
        }
        let capacity = if browned_out || self.plant.needs_recovery {
            0.0
        } else {
            // Tolerated transient shortfalls degrade progress linearly.
            self.plant.workload.capacity_gb_per_hour(
                self.plant.rack.active_vms(),
                self.plant.rack.duty().fraction(),
            ) * (1.0 - shortfall_frac / 0.05).clamp(0.0, 1.0)
        };
        self.plant.workload.step(now, dt, capacity);

        // Accounting.
        self.plant.solar_harvested += solar * dt_h;
        self.plant.solar_used_load += settlement.solar_used * dt_h;
        self.plant.solar_used_charge += charge_step.drawn * dt_h;
        self.plant.battery_delivered += settlement.battery_used * dt_h;
        if demand.value() > 1.0 {
            self.plant.demand_time += dt;
            if !browned_out {
                self.plant.served_time += dt;
            }
        }
        self.plant.trace_solar.record(now, solar.value());
        self.plant.trace_load.record(now, draw.value());
        let stored: WattHours = self
            .plant
            .units
            .iter()
            .map(BatteryUnit::stored_energy)
            .sum();
        self.plant.trace_stored.record(now, stored.value());
        let mean_v = self
            .plant
            .units
            .iter()
            .map(|u| u.open_circuit_voltage().value())
            .sum::<f64>()
            / self.plant.units.len().max(1) as f64;
        self.plant.trace_pack_voltage.record(now, mean_v);

        self.plant.clock.tick();
    }

    /// Runs until the given instant.
    pub fn run_until(&mut self, end: SimTime) {
        while self.plant.clock.now() < end {
            self.step();
        }
    }

    /// Total e-Buffer discharge throughput so far.
    #[must_use]
    pub fn total_discharge_throughput(&self) -> AmpHours {
        self.plant
            .units
            .iter()
            .map(BatteryUnit::discharge_throughput)
            .sum()
    }

    /// Offers `gb` of externally ingested work to the workload (service
    /// mode's admission path). Batch work goes through
    /// [`WorkloadModel::requeue_gb`], which puts it at the *front* of the
    /// job queue as one job: the newest offer is served first and every
    /// older offer waits behind the ones that came after it, so a plant
    /// that falls behind keeps a growing queue of old offers. Stream work
    /// adds backlog. Offering is unconditional — admission control
    /// (shedding, backpressure) happens *before* this call.
    pub fn offer_work(&mut self, gb: f64) {
        if gb > 0.0 {
            let now = self.plant.clock.now();
            self.plant.workload.requeue_gb(now, gb);
        }
    }

    /// Graceful-drain flush: synchronously writes a final durable
    /// checkpoint capturing current progress, superseding any in-flight
    /// write (a drain waits for the artifact — nothing tears). Returns
    /// `false` when checkpointing is disabled.
    pub fn flush_checkpoint(&mut self) -> bool {
        let now = self.plant.clock.now();
        let progress = self.plant.workload.processed_gb();
        match &mut self.plant.checkpointer {
            Some(c) => {
                c.flush(now, progress);
                self.plant.events.push(now, SystemEvent::CheckpointWritten);
                true
            }
            None => false,
        }
    }
}

/// The step loop's working set: buffers it refills instead of
/// allocating. None of it is simulation state, so
/// [`InSituSystem::snapshot`] leaves it behind and a fork starts with an
/// empty one, which its first step refills exactly as the source would.
#[derive(Default)]
struct StepScratch {
    /// Each unit's bus attachment, indexed like the units, as of switch
    /// matrix generation `generation` (`None` = never read).
    attachments: Vec<Attachment>,
    generation: Option<u64>,
    /// The controller observation's per-unit buffers, lent out for each
    /// control call and taken back afterwards.
    views: Vec<UnitView>,
    view_attachments: Vec<Attachment>,
    /// The load-bus and charger member lists, one after the other.
    members: MemberList,
}

/// The units attached to `bus`, in index order.
fn on_bus<'a>(
    units: &'a mut [BatteryUnit],
    attachments: &'a [Attachment],
    bus: Attachment,
) -> impl Iterator<Item = &'a mut BatteryUnit> {
    units
        .iter_mut()
        .zip(attachments)
        .filter(move |(_, a)| **a == bus)
        .map(|(u, _)| u)
}

/// One reusable allocation for the per-step member lists that
/// [`LoadBus::settle`] and [`ChargeController::charge`] take. Between
/// uses it holds no references, only capacity.
#[derive(Default)]
struct MemberList(Vec<&'static mut BatteryUnit>);

impl MemberList {
    /// Fills the list with `members`, lends it to `f`, and keeps the
    /// allocation for the next call.
    fn lend<'a, R>(
        &mut self,
        members: impl Iterator<Item = &'a mut BatteryUnit>,
        f: impl FnOnce(&mut [&'a mut BatteryUnit]) -> R,
    ) -> R {
        let mut list: Vec<&'a mut BatteryUnit> = std::mem::take(&mut self.0);
        list.extend(members);
        let out = f(&mut list);
        // Collecting a `Vec`'s own emptied iterator reuses its buffer,
        // which retypes the allocation to outlive this borrow.
        self.0 = list.into_iter().map_while(|_| None).collect();
        out
    }
}

/// Builder for [`InSituSystem`].
pub struct SystemBuilder {
    solar: SolarTrace,
    controller: Box<dyn PowerController>,
    unit_count: usize,
    initial_soc: Soc,
    rack: Rack,
    workload: WorkloadModel,
    control_period: SimDuration,
    dt: SimDuration,
    start: SimTime,
    faults: FaultSchedule,
    checkpoint: Option<CheckpointPolicy>,
}

impl SystemBuilder {
    /// Creates a builder with the prototype defaults: three 24 V cabinets
    /// at 60 % charge, the 4-machine ProLiant rack, the seismic workload,
    /// 1-minute control period and 10-second simulation step.
    #[must_use]
    pub fn new(solar: SolarTrace, controller: Box<dyn PowerController>) -> Self {
        Self {
            solar,
            controller,
            unit_count: 3,
            initial_soc: Soc::saturating(0.6),
            rack: Rack::prototype(),
            workload: WorkloadModel::seismic(),
            control_period: SimDuration::from_minutes(1),
            dt: SimDuration::from_secs(10),
            start: SimTime::ZERO,
            faults: FaultSchedule::empty(),
            checkpoint: None,
        }
    }

    /// Sets the number of battery cabinets.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero. Service paths use
    /// [`SystemBuilder::try_unit_count`] instead.
    #[must_use]
    pub fn unit_count(mut self, count: usize) -> Self {
        assert!(count > 0, "at least one battery unit required");
        self.unit_count = count;
        self
    }

    /// Sets the number of battery cabinets, rejecting zero.
    ///
    /// # Errors
    ///
    /// Returns [`crate::config::ConfigError::ZeroUnits`] when `count` is
    /// zero.
    pub fn try_unit_count(mut self, count: usize) -> Result<Self, crate::config::ConfigError> {
        if count == 0 {
            return Err(crate::config::ConfigError::ZeroUnits);
        }
        self.unit_count = count;
        Ok(self)
    }

    /// Sets the initial (rested) state of charge of every cabinet.
    #[must_use]
    pub fn initial_soc(mut self, soc: Soc) -> Self {
        self.initial_soc = soc;
        self
    }

    /// Sets the server rack.
    #[must_use]
    pub fn rack(mut self, rack: Rack) -> Self {
        self.rack = rack;
        self
    }

    /// Sets the workload.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadModel) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the controller invocation period.
    #[must_use]
    pub fn control_period(mut self, period: SimDuration) -> Self {
        self.control_period = period;
        self
    }

    /// Sets the simulation step.
    #[must_use]
    pub fn time_step(mut self, dt: SimDuration) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the starting instant (e.g. midnight of day 0).
    #[must_use]
    pub fn start_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Installs a fault schedule to replay during the run. The schedule's
    /// seed also derives the sensor-noise stream, so a `(seed, schedule)`
    /// pair fully determines a faulty run.
    #[must_use]
    pub fn fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Enables job-level checkpointing under the given policy. Off by
    /// default: without it the system keeps the seed behavior (no write
    /// power draw, no replay, no recovery gating).
    #[must_use]
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Only if [`BatteryParams::cabinet_24v`], the parameters every
    /// cabinet gets, failed [`BatteryParams::validate`]; the battery
    /// crate's `presets_validate` test pins that they pass.
    #[must_use]
    pub fn build(self) -> InSituSystem {
        let params = BatteryParams::cabinet_24v();
        let units: Vec<BatteryUnit> = (0..self.unit_count)
            .map(|i| BatteryUnit::with_soc(BatteryId(i), params, self.initial_soc))
            .collect();
        let plant = Plant {
            clock: SimClock::starting_at(self.start, self.dt),
            solar: self.solar,
            matrix: SwitchMatrix::new(units.len()),
            stale_windows: vec![None; units.len()],
            units,
            charger: ChargeController::prototype(),
            bus: LoadBus::prototype(),
            rack: self.rack,
            workload: self.workload,
            control_period: self.control_period,
            started: self.start,
            last_control: None,
            last_discharge_current: Amps::ZERO,
            sensor_rng: sensor_rng(&self.faults),
            faults: self.faults,
            sensor_noise: None,
            charger_dropout_until: None,
            checkpoint_faults: Vec::new(),
            restart_storm_until: None,
            checkpointer: self.checkpoint.map(JobCheckpointer::new),
            last_checkpoint_attempt: None,
            needs_recovery: false,
            outage_started: None,
            recovery_durations: Vec::new(),
            lost_work_gb: 0.0,
            data_loss_events: 0,
            brownouts: 0,
            trace_solar: Trace::new("solar W"),
            trace_load: Trace::new("load W"),
            trace_stored: Trace::new("stored Wh"),
            trace_pack_voltage: Trace::new("pack V"),
            events: EventLog::new(),
            solar_harvested: WattHours::ZERO,
            solar_used_load: WattHours::ZERO,
            solar_used_charge: WattHours::ZERO,
            battery_delivered: WattHours::ZERO,
            served_time: SimDuration::ZERO,
            demand_time: SimDuration::ZERO,
        };
        InSituSystem {
            plant,
            controller: self.controller,
            scratch: StepScratch::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{BaselineController, InsureController, NoOptController};
    use crate::metrics::RunMetrics;
    use ins_sim::fault::FaultEvent;
    use ins_solar::trace::{high_generation_day, SolarTraceBuilder};
    use ins_solar::weather::DayWeather;

    fn day_system(controller: Box<dyn PowerController>) -> InSituSystem {
        InSituSystem::builder(high_generation_day(42), controller)
            .time_step(SimDuration::from_secs(30))
            .build()
    }

    fn dropout_at(secs: u64, minutes: u64) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(secs),
            kind: FaultKind::ChargerDropout {
                duration: SimDuration::from_minutes(minutes),
            },
        }
    }

    /// Every stock controller, with and without checkpoints, at a 10 s
    /// and a 60 s step: a run forked at 08:00 from a fault-free prefix
    /// must replay the from-scratch run exactly under a schedule whose
    /// events all fall at or after 09:00. The third case forks on day 2
    /// at a 10 s step, after 16 sealed trace chunks, and runs the prefix
    /// on across more seals.
    #[test]
    fn forked_run_is_identical_to_its_scratch_run() {
        let targets = ins_sim::fault::FaultTargets {
            units: 3,
            servers: 4,
        };
        let day = SimDuration::from_hours(24);
        let drawn =
            FaultSchedule::stochastic_extended(11, day, SimDuration::from_hours(2), targets);
        let mut after_nine = drawn.events().to_vec();
        after_nine.retain(|e| e.at >= SimTime::from_hms(9, 0, 0));
        // Sensor noise is the one fault that draws from the re-derived
        // sensor RNG, so the schedule must carry one.
        assert!(after_nine
            .iter()
            .any(|e| matches!(e.kind, FaultKind::SensorNoise { .. })));
        let controllers: [fn() -> Box<dyn PowerController>; 3] = [
            || Box::new(InsureController::default()),
            || Box::new(BaselineController::new()),
            || Box::new(NoOptController::new()),
        ];
        for make in controllers {
            for checkpoints in [None, Some(CheckpointPolicy::prototype())] {
                for (lead_days, step) in [(0, 10), (0, 60), (2, 10)] {
                    // Every instant of the one-day case, `lead_days` later.
                    let lead = SimDuration::from_hours(24 * lead_days);
                    let at = |h, m| SimTime::from_hms(h, m, 0) + lead;
                    let schedule = || {
                        let shifted = after_nine
                            .iter()
                            .map(|e| FaultEvent {
                                at: e.at + lead,
                                kind: e.kind,
                            })
                            .collect();
                        FaultSchedule::from_events(drawn.seed(), shifted)
                    };
                    let weather = vec![DayWeather::Sunny; lead_days as usize + 1];
                    let solar = SolarTraceBuilder::new().seed(42).build_days(&weather);
                    let build = |faults| {
                        let mut builder = InSituSystem::builder(solar.clone(), make())
                            .time_step(SimDuration::from_secs(step))
                            .fault_schedule(faults);
                        if let Some(policy) = checkpoints {
                            builder = builder.checkpoints(policy);
                        }
                        builder.build()
                    };
                    let end = at(23, 59);
                    let mut scratch = build(schedule());
                    scratch.run_until(end);
                    let mut prefix = build(FaultSchedule::empty());
                    prefix.run_until(at(8, 0));
                    let snap = prefix.snapshot().expect("stock controllers fork");
                    // Running the prefix on must not disturb the snapshot
                    // (copy-on-write isolation), including across the
                    // chunk seals its traces make meanwhile.
                    let sealed_at_fork = prefix.trace_solar().sealed_chunks().len();
                    prefix.run_until(at(12, 0));
                    let case = format!(
                        "{} day {lead_days} step={step}s {checkpoints:?}",
                        make().name()
                    );
                    if step == 10 {
                        assert!(
                            prefix.trace_solar().sealed_chunks().len() > sealed_at_fork,
                            "{case}: the prefix sealed no chunk after the fork"
                        );
                    }
                    let mut forked = InSituSystem::fork_from(&snap, schedule());
                    forked.run_until(end);
                    let fired = forked
                        .events()
                        .count(|e| matches!(e, SystemEvent::FaultInjected(_)));
                    assert!(fired > 0, "{case}: no fault fired after the fork");
                    let metrics = |s: &InSituSystem| format!("{:?}", RunMetrics::collect(s));
                    assert_eq!(metrics(&scratch), metrics(&forked), "{case}");
                    assert_eq!(scratch.events(), forked.events(), "{case}");
                    for trace in [
                        InSituSystem::trace_solar,
                        InSituSystem::trace_load,
                        InSituSystem::trace_stored,
                        InSituSystem::trace_pack_voltage,
                    ] {
                        assert_eq!(trace(&scratch), trace(&forked), "{case}");
                    }
                    assert_eq!(scratch.now(), forked.now(), "{case}");
                }
            }
        }
    }

    #[test]
    fn pre_fork_events_never_refire_in_forked_cells() {
        // Regression: a schedule carrying an event *before* the fork
        // point (a planner bug, or a hand-built schedule) must see that
        // event expired, not delivered late.
        let mut prefix = day_system(Box::new(InsureController::default()));
        prefix.run_until(SimTime::from_hms(6, 0, 0));
        let snap = prefix.snapshot().expect("stock controllers fork");
        let schedule =
            FaultSchedule::from_events(3, vec![dropout_at(3600, 30), dropout_at(8 * 3600, 30)]);
        let mut forked = InSituSystem::fork_from(&snap, schedule);
        forked.run_until(SimTime::from_hms(23, 59, 30));
        let injected = forked
            .events()
            .count(|e| matches!(e, SystemEvent::FaultInjected(_)));
        assert_eq!(injected, 1, "only the post-fork event may fire");
    }

    /// A controller that keeps the default `fork_controller() -> None`,
    /// like the service's supervisor bridge.
    struct Unforkable(InsureController);

    impl PowerController for Unforkable {
        fn name(&self) -> &'static str {
            "unforkable"
        }

        fn control(&mut self, obs: &SystemObservation) -> ControlAction {
            self.0.control(obs)
        }
    }

    #[test]
    fn unforkable_controllers_decline_snapshotting() {
        let sys = day_system(Box::new(Unforkable(InsureController::default())));
        let err = sys
            .snapshot()
            .expect_err("unforkable controllers cannot fork");
        assert!(matches!(
            err,
            SnapshotError::ControllerNotForkable("unforkable")
        ));
        assert!(err.to_string().contains("snapshot forking"));
    }

    #[test]
    fn insure_runs_a_full_day_and_processes_data() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(23, 59, 0));
        assert!(
            sys.workload().processed_gb() > 20.0,
            "processed {} GB",
            sys.workload().processed_gb()
        );
        assert!(sys.solar_harvested().kilowatt_hours() > 8.0);
        assert!(sys.rack().total_energy().value() > 0.0);
    }

    #[test]
    fn all_controllers_survive_a_day() {
        for make in [
            || Box::new(InsureController::default()) as Box<dyn PowerController>,
            || Box::new(BaselineController::new()) as Box<dyn PowerController>,
            || Box::new(NoOptController::new()) as Box<dyn PowerController>,
        ] {
            let mut sys = day_system(make());
            sys.run_until(SimTime::from_hms(23, 59, 0));
            // Physical sanity regardless of policy quality.
            for u in sys.units() {
                assert!((0.0..=1.0).contains(&u.soc().value()));
            }
            let (load, charge) = sys.solar_used();
            assert!(load + charge <= sys.solar_harvested() + WattHours::new(1.0));
        }
    }

    #[test]
    fn energy_conservation_within_losses() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(23, 59, 0));
        // Rack energy must not exceed what solar + battery delivered
        // (conversion always loses, never creates).
        let delivered = sys.solar_used().0 + sys.battery_delivered();
        assert!(
            sys.rack().total_energy() <= delivered + WattHours::new(1.0),
            "rack {} Wh vs delivered {} Wh",
            sys.rack().total_energy().value(),
            delivered.value()
        );
    }

    #[test]
    fn insure_keeps_voltage_steadier_than_noopt() {
        let mut insure = day_system(Box::new(InsureController::default()));
        insure.run_until(SimTime::from_hms(23, 59, 0));
        let mut noopt = day_system(Box::new(NoOptController::new()));
        noopt.run_until(SimTime::from_hms(23, 59, 0));
        assert!(
            insure.voltage_stats().population_std_dev()
                <= noopt.voltage_stats().population_std_dev() * 1.1,
            "insure σ {} vs noopt σ {}",
            insure.voltage_stats().population_std_dev(),
            noopt.voltage_stats().population_std_dev()
        );
    }

    #[test]
    fn traces_cover_the_run() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(6, 0, 0));
        let expected = 6 * 3600 / 30;
        assert_eq!(sys.trace_solar().len(), expected);
        assert_eq!(sys.trace_load().len(), expected);
        assert_eq!(sys.trace_stored().len(), expected);
        assert_eq!(sys.trace_pack_voltage().len(), expected);
        assert!((sys.elapsed_hours() - 6.0).abs() < 0.01);
    }

    #[test]
    fn builder_settings_apply() {
        let sys = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .unit_count(6)
        .initial_soc(Soc::new(0.4))
        .workload(WorkloadModel::video())
        .build();
        assert_eq!(sys.units().len(), 6);
        assert!((sys.units()[0].soc().value() - 0.4).abs() < 1e-9);
        assert!(matches!(sys.workload(), WorkloadModel::Stream { .. }));
    }

    #[test]
    fn scheduled_faults_fire_and_are_logged() {
        use ins_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
        let schedule = FaultSchedule::from_events(
            7,
            vec![
                FaultEvent {
                    at: SimTime::from_hms(1, 0, 0),
                    kind: FaultKind::BatteryOpenCircuit { unit: 1 },
                },
                FaultEvent {
                    // Midday: the server is actually running, so the
                    // crash lands (crashing an off machine is a no-op).
                    at: SimTime::from_hms(12, 0, 0),
                    kind: FaultKind::ServerCrash { server: 0 },
                },
            ],
        );
        let mut sys = InSituSystem::builder(
            high_generation_day(42),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(30))
        .fault_schedule(schedule)
        .build();
        sys.run_until(SimTime::from_hms(13, 0, 0));
        assert!(sys.units()[1].is_failed());
        assert_eq!(sys.rack().total_crashes(), 1);
        let classes: Vec<FaultClass> = sys
            .events()
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                SystemEvent::FaultInjected(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            classes,
            vec![FaultClass::BatteryOpenCircuit, FaultClass::ServerCrash]
        );
        assert_eq!(sys.fault_schedule().remaining(), 0);
    }

    #[test]
    fn failed_unit_degrades_throughput_but_never_correctness() {
        // Identical runs except one loses a battery unit at 10:00; the
        // faulty run must still satisfy every physical invariant and can
        // only do less work, not more (beyond solver noise).
        let run = |fail: bool| {
            let mut sys = day_system(Box::new(InsureController::default()));
            sys.run_until(SimTime::from_hms(10, 0, 0));
            if fail {
                sys.inject_fault(ins_sim::fault::FaultKind::BatteryOpenCircuit { unit: 0 });
            }
            sys.run_until(SimTime::from_hms(23, 59, 0));
            for u in sys.units() {
                assert!((0.0..=1.0).contains(&u.soc().value()));
            }
            sys.workload().processed_gb()
        };
        let healthy = run(false);
        let faulty = run(true);
        assert!(faulty > 0.0, "faulty system still makes progress");
        assert!(
            faulty <= healthy * 1.05,
            "losing a unit cannot add throughput: {faulty} vs {healthy}"
        );
    }

    #[test]
    fn charger_dropout_pauses_charging_for_its_window() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(11, 0, 0));
        let before = sys.solar_used().1;
        sys.inject_fault(ins_sim::fault::FaultKind::ChargerDropout {
            duration: SimDuration::from_hours(1),
        });
        sys.run_until(SimTime::from_hms(12, 0, 0));
        let during = sys.solar_used().1 - before;
        assert!(
            during.value() < 1e-9,
            "charged {} Wh during a charger dropout",
            during.value()
        );
        // After the window the charger recovers.
        sys.run_until(SimTime::from_hms(14, 0, 0));
        assert!(sys.solar_used().1 > before);
    }

    #[test]
    fn stale_telemetry_freezes_the_view_then_recovers() {
        use ins_sim::fault::FaultKind;
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(9, 0, 0));
        sys.inject_fault(FaultKind::StaleTelemetry {
            unit: 0,
            duration: SimDuration::from_minutes(10),
        });
        sys.run_until(SimTime::from_hms(9, 5, 0));
        let obs = sys.observe(Watts::ZERO);
        assert!(
            obs.units[0].telemetry_age >= SimDuration::from_minutes(4),
            "age {:?}",
            obs.units[0].telemetry_age
        );
        assert_eq!(obs.units[1].telemetry_age, SimDuration::ZERO);
        sys.run_until(SimTime::from_hms(9, 30, 0));
        let obs = sys.observe(Watts::ZERO);
        assert_eq!(obs.units[0].telemetry_age, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one battery unit required")]
    fn builder_rejects_zero_units() {
        let _ = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .unit_count(0);
    }
}
