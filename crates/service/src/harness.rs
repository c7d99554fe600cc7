//! The deterministic in-process service core.
//!
//! [`ServiceCore`] is the whole service *minus* wall clocks, threads
//! and sockets: supervised engine, admission control, the simulated
//! plant, telemetry and graceful drain, advanced one control period per
//! [`ServiceCore::tick`]. The daemon hosts one and drives it in real
//! time; chaos tests drive it directly and byte-compare telemetry. A
//! `(engine, seed, feed)` triple fully determines the stream of lines,
//! which is what makes kill-resume determinism checkable at all.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use ins_core::config::ConfigError;
use ins_core::controller::{ControlAction, PowerController, SystemObservation};
use ins_core::engine::{EngineError, StateClass};
use ins_core::system::InSituSystem;
use ins_sim::replay::{ReplayError, ReplayFeed};
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::{high_generation_day, SolarTrace};
use ins_workload::checkpoint::CheckpointPolicy;

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, WorkClass};
use crate::resume::{feed_digest, ResumeError, ResumeToken};
use crate::supervisor::{
    DecisionSource, EngineExecutor, EngineFault, EngineStatus, InlineExecutor, Supervisor,
    SupervisorConfig, SupervisorCounters,
};
use crate::telemetry::TelemetrySnapshot;

/// Anything that can go wrong while building or resuming a service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// Engine construction failed.
    Engine(EngineError),
    /// Plant configuration failed validation.
    Config(ConfigError),
    /// The replay feed did not parse.
    Replay(ReplayError),
    /// The resume token was unreadable or malformed.
    Resume(ResumeError),
    /// The spec itself is inconsistent.
    Spec(String),
    /// A resume token does not belong to this spec.
    TokenMismatch(String),
    /// Daemon-level I/O failed (socket, telemetry file).
    Io(String),
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Engine(e) => write!(f, "engine: {e}"),
            Self::Config(e) => write!(f, "config: {e}"),
            Self::Replay(e) => write!(f, "replay feed: {e}"),
            Self::Resume(e) => write!(f, "resume: {e}"),
            Self::Spec(why) => write!(f, "invalid service spec: {why}"),
            Self::TokenMismatch(why) => write!(f, "resume token mismatch: {why}"),
            Self::Io(why) => write!(f, "service I/O: {why}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

impl From<ConfigError> for ServiceError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<ReplayError> for ServiceError {
    fn from(e: ReplayError) -> Self {
        Self::Replay(e)
    }
}

impl From<ResumeError> for ServiceError {
    fn from(e: ResumeError) -> Self {
        Self::Resume(e)
    }
}

/// Everything that determines a service run.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Engine registry key (see [`ins_core::engine::engine_lineup`]).
    pub engine: String,
    /// Seed for the synthetic solar day (ignored when a replay feed
    /// supplies irradiance).
    pub seed: u64,
    /// Battery cabinets.
    pub unit_count: usize,
    /// Control period — one tick, one telemetry line.
    pub control_period: SimDuration,
    /// Simulation step.
    pub dt: SimDuration,
    /// Admission tunables.
    pub admission: AdmissionConfig,
    /// Supervisor tunables.
    pub supervisor: SupervisorConfig,
    /// Checkpoint policy (service mode always checkpoints — crash-only
    /// recovery depends on it).
    pub checkpoint: CheckpointPolicy,
    /// Replay feed driving irradiance and stream offers, when present.
    pub replay: Option<ReplayFeed>,
}

impl ServiceSpec {
    /// Prototype spec: three cabinets, 1-minute control period, 10 s
    /// step, prototype admission/supervisor/checkpoint tunables, no
    /// replay feed.
    #[must_use]
    pub fn prototype(engine: &str, seed: u64) -> Self {
        Self {
            engine: engine.to_string(),
            seed,
            unit_count: 3,
            control_period: SimDuration::from_minutes(1),
            dt: SimDuration::from_secs(10),
            admission: AdmissionConfig::prototype(),
            supervisor: SupervisorConfig::prototype(),
            checkpoint: CheckpointPolicy::prototype(),
            replay: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Spec`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.dt.is_zero() {
            return Err(ServiceError::Spec("time step must be non-zero".to_string()));
        }
        if self.control_period.is_zero() {
            return Err(ServiceError::Spec(
                "control period must be non-zero".to_string(),
            ));
        }
        if !self
            .control_period
            .as_secs()
            .is_multiple_of(self.dt.as_secs())
        {
            return Err(ServiceError::Spec(
                "control period must be a multiple of the time step".to_string(),
            ));
        }
        Ok(())
    }

    /// Checks that `token` belongs to this spec.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TokenMismatch`] naming the differing field.
    pub fn accepts(&self, token: &ResumeToken) -> Result<(), ServiceError> {
        if token.engine != self.engine {
            return Err(ServiceError::TokenMismatch(format!(
                "engine {:?} vs {:?}",
                token.engine, self.engine
            )));
        }
        if token.seed != self.seed {
            return Err(ServiceError::TokenMismatch(format!(
                "seed {} vs {}",
                token.seed, self.seed
            )));
        }
        let digest = feed_digest(self.replay.as_ref());
        if token.digest != digest {
            return Err(ServiceError::TokenMismatch(
                "replay feed digest differs".to_string(),
            ));
        }
        Ok(())
    }
}

/// Supervisor state shared between the plant's controller slot and the
/// service core (single-threaded: the bridge runs inside `sys.step()`).
pub(crate) struct SupervisedState {
    pub(crate) supervisor: Supervisor,
    pub(crate) last_source: Option<DecisionSource>,
    pub(crate) last_state: Option<StateClass>,
}

/// Adapts the supervisor into the [`PowerController`] slot of
/// [`InSituSystem`].
struct BridgeController {
    shared: Rc<RefCell<SupervisedState>>,
}

impl PowerController for BridgeController {
    fn name(&self) -> &'static str {
        "service-supervised"
    }

    fn control(&mut self, obs: &SystemObservation) -> ControlAction {
        let mut state = self.shared.borrow_mut();
        let supervised = state.supervisor.decide(obs);
        state.last_source = Some(supervised.source);
        state.last_state = Some(supervised.decision.state);
        supervised.decision.action
    }
}

/// Outcome of a graceful drain.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Queued work flushed into the plant before the final checkpoint,
    /// GB.
    pub flushed_gb: f64,
    /// Whether a final durable checkpoint was written.
    pub checkpointed: bool,
    /// The drain telemetry line.
    pub line: String,
}

/// The deterministic service: supervised engine + admission + plant.
pub struct ServiceCore {
    spec: ServiceSpec,
    sys: InSituSystem,
    shared: Rc<RefCell<SupervisedState>>,
    admission: AdmissionController,
    /// [`feed_digest`] of `spec.replay`, hashed for the first resume
    /// token: the spec never changes after construction, and hashing
    /// the feed costs milliseconds.
    feed_digest: OnceCell<u64>,
    ticks: u64,
    lines: Vec<String>,
    drained: bool,
}

impl core::fmt::Debug for ServiceCore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceCore")
            .field("engine", &self.spec.engine)
            .field("ticks", &self.ticks)
            .field("drained", &self.drained)
            .finish_non_exhaustive()
    }
}

impl ServiceCore {
    /// Builds the service with the deterministic in-process executor.
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] arising from the spec or engine name.
    pub fn try_new(spec: ServiceSpec) -> Result<Self, ServiceError> {
        let exec = InlineExecutor::try_new(&spec.engine)?;
        Self::with_executor(spec, Box::new(exec))
    }

    /// Builds the service around a caller-provided executor (the daemon
    /// passes its crash-isolated threaded executor here).
    ///
    /// # Errors
    ///
    /// Any [`ServiceError`] arising from the spec.
    pub fn with_executor(
        spec: ServiceSpec,
        exec: Box<dyn EngineExecutor>,
    ) -> Result<Self, ServiceError> {
        spec.validate()?;
        let supervisor = Supervisor::new(exec, spec.supervisor);
        let shared = Rc::new(RefCell::new(SupervisedState {
            supervisor,
            last_source: None,
            last_state: None,
        }));
        let solar = match &spec.replay {
            Some(feed) if !feed.is_empty() => SolarTrace::from_trace(feed.solar_trace(), spec.dt),
            _ => high_generation_day(spec.seed),
        };
        let bridge = BridgeController {
            shared: Rc::clone(&shared),
        };
        let sys = InSituSystem::builder(solar, Box::new(bridge))
            .try_unit_count(spec.unit_count)?
            .control_period(spec.control_period)
            .time_step(spec.dt)
            .checkpoints(spec.checkpoint)
            .build();
        let admission = AdmissionController::new(spec.admission);
        Ok(Self {
            spec,
            sys,
            shared,
            admission,
            feed_digest: OnceCell::new(),
            ticks: 0,
            lines: Vec::new(),
            drained: false,
        })
    }

    /// The spec this service was built from.
    #[must_use]
    pub fn spec(&self) -> &ServiceSpec {
        &self.spec
    }

    /// Control periods completed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// `true` once [`ServiceCore::drain`] has run.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// Telemetry lines emitted so far (excludes fast-forwarded ones).
    #[must_use]
    pub fn telemetry(&self) -> &[String] {
        &self.lines
    }

    /// The simulated plant.
    #[must_use]
    pub fn system(&self) -> &InSituSystem {
        &self.sys
    }

    /// The admission ledger.
    #[must_use]
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The supervised engine's status.
    #[must_use]
    pub fn engine_status(&self) -> EngineStatus {
        self.shared.borrow().supervisor.status()
    }

    /// The supervisor's lifetime counters.
    #[must_use]
    pub fn supervisor_counters(&self) -> SupervisorCounters {
        self.shared.borrow().supervisor.counters()
    }

    /// The decision source of the most recent control period.
    #[must_use]
    pub fn last_source(&self) -> Option<DecisionSource> {
        self.shared.borrow().last_source
    }

    /// Queues an engine fault for the next control period (chaos).
    pub fn inject(&mut self, fault: EngineFault) {
        self.shared.borrow_mut().supervisor.inject_fault(fault);
    }

    /// Offers work to the admission controller. Whether it is admitted
    /// degraded depends on the engine's *current* status.
    pub fn offer(&mut self, class: WorkClass, gb: f64) -> AdmissionVerdict {
        let degraded = !matches!(self.engine_status(), EngineStatus::Running);
        self.admission.offer(class, gb, degraded)
    }

    /// `true` once every replay row has been delivered (always `false`
    /// without a feed — a live service has no natural end).
    #[must_use]
    pub fn feed_exhausted(&self) -> bool {
        let period = self.spec.control_period.as_secs();
        match &self.spec.replay {
            Some(feed) => match feed.end() {
                Some(end) => SimTime::from_secs(period.saturating_mul(self.ticks)) >= end,
                None => true,
            },
            None => false,
        }
    }

    /// The resume token capturing the current restore point. The first
    /// call hashes the replay feed; later calls reuse that digest.
    #[must_use]
    pub fn resume_token(&self) -> ResumeToken {
        ResumeToken {
            engine: self.spec.engine.clone(),
            seed: self.spec.seed,
            ticks: self.ticks,
            digest: *self
                .feed_digest
                .get_or_init(|| feed_digest(self.spec.replay.as_ref())),
        }
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let shared = self.shared.borrow();
        let counters = shared.supervisor.counters();
        let units = self.sys.units();
        let mean_soc = if units.is_empty() {
            0.0
        } else {
            units.iter().map(|u| u.soc().value()).sum::<f64>() / units.len() as f64
        };
        let solar_w = self
            .sys
            .trace_solar()
            .last()
            .map_or(0.0, |sample| sample.value);
        TelemetrySnapshot {
            tick: self.ticks.saturating_sub(1),
            now: self.sys.now(),
            engine: self.spec.engine.clone(),
            source: shared.last_source.map_or("init", DecisionSource::label),
            state: shared.last_state.map_or("unknown", StateClass::label),
            active_vms: self.sys.rack().active_vms(),
            duty: self.sys.rack().duty().fraction(),
            solar_w,
            mean_soc,
            pending_gb: self.sys.workload().pending_gb(),
            processed_gb: self.sys.workload().processed_gb(),
            stream: self.admission.counters(WorkClass::Stream),
            batch: self.admission.counters(WorkClass::Batch),
            queued: self.admission.queued_requests(),
            brownouts: self.sys.brownout_count() as u64,
            checkpoints: self.sys.checkpoint_counters().written,
            safe_periods: counters.safe_periods,
            restarts: counters.restarts,
        }
    }

    /// Advances one control period: replay offers → admission release →
    /// plant steps → telemetry. Returns the period's telemetry line, or
    /// `None` once drained.
    pub fn tick(&mut self) -> Option<String> {
        if self.drained {
            return None;
        }
        self.advance();
        let line = self.snapshot().line();
        self.lines.push(line.clone());
        Some(line)
    }

    /// One control period without its telemetry line.
    fn advance(&mut self) {
        let period = self.spec.control_period.as_secs();
        let prev = SimTime::from_secs(period.saturating_mul(self.ticks));
        let target = SimTime::from_secs(period.saturating_mul(self.ticks.saturating_add(1)));

        // Replay-fed stream ingest: every row is offered exactly once
        // (the degenerate first window delivers the epoch row).
        if let Some(feed) = &self.spec.replay {
            let mut gb = feed.work_between(prev, target);
            if self.ticks == 0 {
                gb += feed.work_between(SimTime::ZERO, SimTime::ZERO);
            }
            if gb > 0.0 {
                let degraded = !matches!(self.engine_status(), EngineStatus::Running);
                let _ = self.admission.offer(WorkClass::Stream, gb, degraded);
            }
        }

        let released = self.admission.release();
        self.sys.offer_work(released);
        self.sys.run_until(target);
        self.ticks = self.ticks.saturating_add(1);
    }

    /// Silently replays `ticks` control periods (no telemetry formatted
    /// or recorded) — the resume fast-forward. Determinism makes the
    /// state identical to a run that emitted all along.
    pub fn fast_forward(&mut self, ticks: u64) {
        if self.drained {
            return;
        }
        for _ in 0..ticks {
            self.advance();
        }
    }

    /// Graceful drain: close intake, flush the queue into the plant,
    /// write a final durable checkpoint, emit the drain line. Repeat
    /// calls are idempotent (the first report is returned again).
    pub fn drain(&mut self) -> DrainReport {
        if self.drained {
            let line = self.lines.last().cloned().unwrap_or_default();
            return DrainReport {
                flushed_gb: 0.0,
                checkpointed: false,
                line,
            };
        }
        self.admission.close_intake();
        let flushed = self.admission.flush();
        self.sys.offer_work(flushed);
        let checkpointed = self.sys.flush_checkpoint();
        let counters = self.sys.checkpoint_counters();
        let line = format!(
            "drain t={} flushed_gb={:.3} ckpt={} durable_gb={:.3} accounted={}",
            self.sys.now().as_secs(),
            flushed,
            counters.written,
            self.sys
                .checkpointer()
                .and_then(|c| c.store.durable())
                .map_or(0.0, |d| d.progress_gb),
            self.admission.fully_accounted(),
        );
        self.lines.push(line.clone());
        self.drained = true;
        DrainReport {
            flushed_gb: flushed,
            checkpointed,
            line,
        }
    }
}
