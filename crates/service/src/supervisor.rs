//! The engine supervisor: crash/stall detection, safe-mode takeover,
//! backoff-paced restarts and poison-engine quarantine.
//!
//! The supervisor sits between the plant and the primary engine, a
//! [`PowerController`] hosted by an [`EngineExecutor`]. Each control
//! period it classifies the observation once ([`classify`]) and asks the
//! executor for the primary's orders; a fault ([`EngineFault`]) is
//! answered by the built-in [`SafeModePolicy`] *in the same control
//! period* — the plant never waits a period without orders. Failures
//! feed the shared [`Backoff`] state machine: each one schedules a
//! restart further out, and exhausting the retry budget quarantines the
//! engine as poison (safe mode runs for good). The failure streak only
//! resets after ten consecutive clean periods, so a crash-loop cannot
//! launder its history through single good ticks.
//!
//! The executor abstraction keeps the state machine testable: the
//! deterministic [`InlineExecutor`] hosts the engine in-process, while
//! the daemon's threaded executor (see [`crate::daemon`]) converts real
//! panics and wall-clock stalls. Chaos harnesses inject faults into the
//! supervisor itself ([`Supervisor::inject_fault`]), whichever executor
//! it drives.

use std::collections::VecDeque;

use ins_core::controller::{ControlAction, PowerController, SnapshotController, SystemObservation};
use ins_core::engine::{classify, try_engine, EngineError, PolicyDecision};
use ins_sim::backoff::{Backoff, BackoffOutcome};
use ins_sim::time::{SimDuration, SimTime};

use crate::safe_mode::SafeModePolicy;

/// Why the primary engine failed to produce a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineFault {
    /// The engine panicked (caught at the isolation boundary).
    Panicked,
    /// The engine missed its decision deadline.
    Stalled,
}

impl EngineFault {
    /// Stable lower-case label used in telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Panicked => "panic",
            Self::Stalled => "stall",
        }
    }
}

/// Hosts the primary engine and converts its failures into
/// [`EngineFault`]s instead of letting them take the service down.
pub trait EngineExecutor {
    /// The hosted engine's display name.
    fn engine_name(&self) -> &'static str;

    /// Produces the primary engine's orders, or reports the fault that
    /// prevented them.
    fn control(&mut self, obs: &SystemObservation) -> Result<ControlAction, EngineFault>;

    /// Replaces the (possibly poisoned) engine with a fresh instance.
    /// Returns `false` when a replacement could not be built — the
    /// supervisor quarantines in response.
    fn restart(&mut self) -> bool;
}

/// Deterministic in-process executor: the engine runs inline and never
/// faults on its own (chaos harnesses inject faults through
/// [`Supervisor::inject_fault`]).
pub struct InlineExecutor {
    key: String,
    engine: Box<dyn SnapshotController>,
}

impl core::fmt::Debug for InlineExecutor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InlineExecutor")
            .field("key", &self.key)
            .field("engine", &self.engine.name())
            .finish()
    }
}

impl InlineExecutor {
    /// Builds the executor around the engine registered under `key`
    /// (see [`ins_core::engine::engine_lineup`]).
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] for unknown names or invalid
    /// configuration.
    pub fn try_new(key: &str) -> Result<Self, EngineError> {
        Ok(Self {
            key: key.to_string(),
            engine: try_engine(key)?,
        })
    }
}

impl EngineExecutor for InlineExecutor {
    fn engine_name(&self) -> &'static str {
        self.engine.name()
    }

    fn control(&mut self, obs: &SystemObservation) -> Result<ControlAction, EngineFault> {
        Ok(self.engine.control(obs))
    }

    fn restart(&mut self) -> bool {
        match try_engine(&self.key) {
            Ok(engine) => {
                self.engine = engine;
                true
            }
            Err(_) => false,
        }
    }
}

/// Base restart delay after the first failure: one control period. It
/// doubles per consecutive failure.
const RESTART_BACKOFF: SimDuration = SimDuration::from_minutes(1);

/// Consecutive failures after which the engine is quarantined as poison.
pub const MAX_FAILURES: u32 = 5;

/// Clean periods required before the failure streak resets.
const STABLE_PERIODS: u32 = 10;

/// Where the supervisor's engine currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStatus {
    /// The primary engine is serving decisions.
    Running,
    /// The primary faulted; safe mode serves until the restart instant.
    Restarting {
        /// When the next restart attempt is due.
        until: SimTime,
    },
    /// The engine exhausted its retry budget and is out for good.
    Quarantined,
}

impl EngineStatus {
    /// Stable lower-case label used in telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Running => "running",
            Self::Restarting { .. } => "restarting",
            Self::Quarantined => "quarantined",
        }
    }
}

/// Which policy produced a supervised decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// The primary engine.
    Primary,
    /// Safe mode, taking over in the same period as this fault.
    SafeMode(EngineFault),
    /// Safe mode, holding the fort until the scheduled restart.
    Restarting,
    /// Safe mode, permanently (the engine is quarantined).
    Quarantined,
}

impl DecisionSource {
    /// Stable lower-case label used in telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Primary => "primary",
            Self::SafeMode(EngineFault::Panicked) => "safe-panic",
            Self::SafeMode(EngineFault::Stalled) => "safe-stall",
            Self::Restarting => "safe-restarting",
            Self::Quarantined => "safe-quarantined",
        }
    }
}

/// Lifetime counters for the supervised engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorCounters {
    /// Panics caught at the isolation boundary.
    pub panics: u64,
    /// Missed decision deadlines.
    pub stalls: u64,
    /// Successful engine restarts.
    pub restarts: u64,
    /// Control periods served by safe mode.
    pub safe_periods: u64,
}

/// One supervised decision and its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedDecision {
    /// The orders for this control period.
    pub decision: PolicyDecision,
    /// Which policy produced them.
    pub source: DecisionSource,
}

/// The supervisor state machine.
pub struct Supervisor {
    exec: Box<dyn EngineExecutor>,
    safe: SafeModePolicy,
    /// Injected faults, each surfacing in the next period that asks the
    /// primary for orders.
    pending: VecDeque<EngineFault>,
    status: EngineStatus,
    backoff: Backoff,
    clean_streak: u32,
    counters: SupervisorCounters,
}

impl core::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Supervisor")
            .field("engine", &self.exec.engine_name())
            .field("status", &self.status)
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Wraps an executor.
    #[must_use]
    pub fn new(exec: Box<dyn EngineExecutor>) -> Self {
        Self {
            exec,
            safe: SafeModePolicy::new(),
            pending: VecDeque::new(),
            status: EngineStatus::Running,
            // No doubling cap is needed: quarantine ends every streak at
            // `MAX_FAILURES`, so the longest delay is 2³ periods.
            backoff: Backoff::new(RESTART_BACKOFF, u32::MAX, MAX_FAILURES),
            clean_streak: 0,
            counters: SupervisorCounters::default(),
        }
    }

    /// The primary engine's display name.
    #[must_use]
    pub fn engine_name(&self) -> &'static str {
        self.exec.engine_name()
    }

    /// Current status.
    #[must_use]
    pub fn status(&self) -> EngineStatus {
        self.status
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> SupervisorCounters {
        self.counters
    }

    /// Queues a fault to be reported instead of the primary's next
    /// orders. The executor is not asked in that period, exactly as if
    /// the engine had failed there.
    pub fn inject_fault(&mut self, fault: EngineFault) {
        self.pending.push_back(fault);
    }

    fn safe_mode(
        &mut self,
        obs: &SystemObservation,
        source: DecisionSource,
    ) -> (ControlAction, DecisionSource) {
        self.counters.safe_periods += 1;
        (self.safe.control(obs), source)
    }

    fn primary_or_takeover(&mut self, obs: &SystemObservation) -> (ControlAction, DecisionSource) {
        let orders = match self.pending.pop_front() {
            Some(fault) => Err(fault),
            None => self.exec.control(obs),
        };
        match orders {
            Ok(action) => {
                self.clean_streak = self.clean_streak.saturating_add(1);
                if self.clean_streak == STABLE_PERIODS {
                    // A sustained clean run forgives the failure streak;
                    // a lone good period between crashes does not.
                    self.backoff.record_success();
                }
                (action, DecisionSource::Primary)
            }
            Err(fault) => {
                match fault {
                    EngineFault::Panicked => self.counters.panics += 1,
                    EngineFault::Stalled => self.counters.stalls += 1,
                }
                self.clean_streak = 0;
                self.status = match self.backoff.record_failure(obs.now) {
                    BackoffOutcome::Retry { next_attempt } => EngineStatus::Restarting {
                        until: next_attempt,
                    },
                    BackoffOutcome::Exhausted => EngineStatus::Quarantined,
                };
                // Safe mode answers within this same control period.
                self.safe_mode(obs, DecisionSource::SafeMode(fault))
            }
        }
    }

    /// Produces the decision for this control period, supervising the
    /// primary engine.
    pub fn decide(&mut self, obs: &SystemObservation) -> SupervisedDecision {
        let state = classify(obs);
        let (action, source) = match self.status {
            EngineStatus::Quarantined => self.safe_mode(obs, DecisionSource::Quarantined),
            EngineStatus::Running => self.primary_or_takeover(obs),
            EngineStatus::Restarting { until } if obs.now < until => {
                self.safe_mode(obs, DecisionSource::Restarting)
            }
            EngineStatus::Restarting { .. } => {
                if self.exec.restart() {
                    self.status = EngineStatus::Running;
                    self.counters.restarts += 1;
                    self.primary_or_takeover(obs)
                } else {
                    self.status = EngineStatus::Quarantined;
                    self.safe_mode(obs, DecisionSource::Quarantined)
                }
            }
        };
        SupervisedDecision {
            decision: PolicyDecision { state, action },
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_battery::BatteryId;
    use ins_cluster::dvfs::DutyCycle;
    use ins_core::spm::UnitView;
    use ins_core::tpm::LoadKnob;
    use ins_powernet::matrix::Attachment;
    use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};

    fn obs_at(now: SimTime) -> SystemObservation {
        SystemObservation {
            now,
            elapsed_days: 0.0,
            solar_power: Watts::new(1200.0),
            units: vec![UnitView {
                id: BatteryId(0),
                soc: Soc::new(0.8),
                available_fraction: 0.8,
                discharge_throughput: AmpHours::new(5.0),
                at_cutoff: false,
                terminal_voltage: Volts::new(25.0),
                telemetry_age: SimDuration::ZERO,
            }],
            attachments: vec![Attachment::Isolated],
            discharge_current: Amps::ZERO,
            active_vms: 4,
            target_vms: 4,
            total_vm_slots: 8,
            duty: DutyCycle::FULL,
            rack_demand: Watts::new(900.0),
            rack_demand_target: Watts::new(900.0),
            rack_demand_full: Watts::new(1800.0),
            pack_voltage: Volts::new(24.0),
            pending_gb: 10.0,
            knob: LoadKnob::VmCount,
            brownouts: 0,
        }
    }

    fn supervisor() -> Supervisor {
        let exec = InlineExecutor::try_new("noopt").expect("noopt engine");
        Supervisor::new(Box::new(exec))
    }

    #[test]
    fn takeover_happens_in_the_same_period_as_the_fault() {
        let mut s = supervisor();
        let t0 = SimTime::ZERO;
        assert_eq!(s.decide(&obs_at(t0)).source, DecisionSource::Primary);
        s.inject_fault(EngineFault::Stalled);
        let d = s.decide(&obs_at(SimTime::from_secs(60)));
        assert_eq!(d.source, DecisionSource::SafeMode(EngineFault::Stalled));
        assert!(matches!(s.status(), EngineStatus::Restarting { .. }));
        assert_eq!(s.counters().stalls, 1);
    }

    #[test]
    fn restart_returns_to_primary_after_the_backoff() {
        let mut s = supervisor();
        s.inject_fault(EngineFault::Panicked);
        let d = s.decide(&obs_at(SimTime::ZERO));
        assert_eq!(d.source, DecisionSource::SafeMode(EngineFault::Panicked));
        let EngineStatus::Restarting { until } = s.status() else {
            panic!("expected restarting");
        };
        assert_eq!(until, SimTime::from_secs(60), "base backoff is one period");
        // Before the restart instant safe mode holds the fort…
        let d = s.decide(&obs_at(SimTime::from_secs(30)));
        assert_eq!(d.source, DecisionSource::Restarting);
        // …and at it the engine restarts and serves again.
        let d = s.decide(&obs_at(SimTime::from_secs(60)));
        assert_eq!(d.source, DecisionSource::Primary);
        assert_eq!(s.counters().restarts, 1);
    }

    #[test]
    fn repeated_failures_quarantine_the_engine() {
        let mut s = supervisor();
        let mut now = SimTime::ZERO;
        for _ in 0..MAX_FAILURES {
            // Fail immediately at every restart opportunity.
            s.inject_fault(EngineFault::Panicked);
            loop {
                let d = s.decide(&obs_at(now));
                now += SimDuration::from_secs(60);
                if d.source != DecisionSource::Restarting {
                    break;
                }
            }
            if s.status() == EngineStatus::Quarantined {
                break;
            }
        }
        assert_eq!(s.status(), EngineStatus::Quarantined);
        // Quarantine is terminal.
        let d = s.decide(&obs_at(now));
        assert_eq!(d.source, DecisionSource::Quarantined);
        assert_eq!(s.counters().panics, u64::from(MAX_FAILURES));
    }

    #[test]
    fn streak_resets_only_after_sustained_clean_periods() {
        let mut s = supervisor();
        let mut now = SimTime::ZERO;
        let step = |s: &mut Supervisor, now: &mut SimTime| {
            let d = s.decide(&obs_at(*now));
            *now += SimDuration::from_secs(60);
            d.source
        };
        // The restart delay the latest failure scheduled, in seconds.
        let delay = |s: &Supervisor, now: SimTime| {
            let EngineStatus::Restarting { until } = s.status() else {
                panic!("expected restarting");
            };
            until.as_secs() - (now.as_secs() - 60)
        };
        // One failure, restart, then a single clean period: the streak
        // must NOT be forgiven yet.
        s.inject_fault(EngineFault::Panicked);
        while step(&mut s, &mut now) != DecisionSource::Primary {}
        s.inject_fault(EngineFault::Panicked);
        let _ = step(&mut s, &mut now);
        // Second consecutive failure → doubled backoff (2 periods).
        assert_eq!(delay(&s, now), 120);
        // Back on the primary, `STABLE_PERIODS` clean periods forgive the
        // streak: the next failure waits the base period again.
        while step(&mut s, &mut now) != DecisionSource::Primary {}
        for _ in 1..STABLE_PERIODS {
            assert_eq!(step(&mut s, &mut now), DecisionSource::Primary);
        }
        s.inject_fault(EngineFault::Panicked);
        let _ = step(&mut s, &mut now);
        assert_eq!(delay(&s, now), 60);
    }
}
