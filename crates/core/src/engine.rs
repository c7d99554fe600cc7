//! Service-mode policy plumbing: state classification and the engine
//! registry.
//!
//! Every policy is a [`PowerController`]; this module adds what
//! live-service mode (`ins-service`) needs around that one trait. The
//! pipeline is the classic three stages (raw signals → state
//! classification → policy decision), with classification a shared step
//! in front of the policy rather than a second trait:
//!
//! * [`StateClass`] — severity-ordered classification of one observation,
//! * [`classify`] — the shared, pure classifier the supervisor runs once
//!   per control period,
//! * [`PolicyDecision`] — the classified state plus the policy's
//!   [`ControlAction`], as the supervisor records it for telemetry,
//! * [`engine_lineup`] / [`try_engine`] — the fallible registry of the
//!   three evaluation controllers ([`InsureController`],
//!   [`BaselineController`], [`NoOptController`]), each handed out as a
//!   forkable [`SnapshotController`] (the service path never goes through
//!   a panicking constructor).
//!
//! # Examples
//!
//! ```
//! use ins_core::engine::try_engine;
//!
//! let engine = try_engine("insure").unwrap();
//! assert_eq!(engine.name(), "InSURE (spatio-temporal)");
//! assert!(engine.fork_controller().is_some());
//! assert!(try_engine("no-such-policy").is_err());
//! ```

use std::fmt;

use crate::config::{ConfigError, InsureConfig};
use crate::controller::{
    BaselineController, ControlAction, InsureController, NoOptController, SnapshotController,
    SystemObservation,
};

/// Severity-ordered classification of one control-period observation.
///
/// Ordering is meaningful: `Outage > Critical > Deficit > Balanced >
/// Surplus` in urgency terms is encoded by the derived `Ord` running the
/// other way (`Surplus` is the largest, calmest state), so
/// `state <= StateClass::Critical` reads "critical or worse".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StateClass {
    /// The buffer is exhausted or the plant is dark: nothing can serve.
    Outage,
    /// Discharging into a nearly flat buffer: emergency territory.
    Critical,
    /// Demand exceeds harvest; the buffer is carrying the difference.
    Deficit,
    /// Harvest and demand are in balance within the noise floor.
    Balanced,
    /// Harvest exceeds demand; energy is available to store or spend.
    Surplus,
}

impl StateClass {
    /// Stable lower-case label used in telemetry lines.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Outage => "outage",
            Self::Critical => "critical",
            Self::Deficit => "deficit",
            Self::Balanced => "balanced",
            Self::Surplus => "surplus",
        }
    }
}

impl fmt::Display for StateClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Classifies one observation into a [`StateClass`].
///
/// Pure and deterministic: the same observation always classifies the
/// same way, so the supervisor and its safe-mode fallback can classify
/// independently and agree.
/// Thresholds are conservative prototype constants (a unit below 25 %
/// SoC counts as nearly flat; ±25 W is the balance noise floor).
#[must_use]
pub fn classify(obs: &SystemObservation) -> StateClass {
    let all_cut_off = !obs.units.is_empty() && obs.units.iter().all(|u| u.at_cutoff);
    if all_cut_off {
        return StateClass::Outage;
    }
    let margin = obs.solar_power.value() - obs.rack_demand.value();
    let draining = obs.discharge_current.value() > 0.0;
    let nearly_flat = obs
        .units
        .iter()
        .any(|u| u.at_cutoff || u.soc.value() < 0.25);
    if draining && nearly_flat {
        return StateClass::Critical;
    }
    const NOISE_FLOOR_W: f64 = 25.0;
    if margin < -NOISE_FLOOR_W {
        StateClass::Deficit
    } else if margin > NOISE_FLOOR_W {
        StateClass::Surplus
    } else {
        StateClass::Balanced
    }
}

/// One control period's decision: the classified state and the policy's
/// orders.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyDecision {
    /// The state this period was classified as.
    pub state: StateClass,
    /// The orders for the coming period.
    pub action: ControlAction,
}

/// Registry keys of the engines the service can host, in line-up order;
/// [`try_engine`] builds each.
#[must_use]
pub fn engine_lineup() -> [&'static str; 3] {
    ["insure", "baseline", "noopt"]
}

/// Failure to construct a named engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// No engine with that name is registered.
    Unknown(String),
    /// The engine's configuration failed validation.
    Config(ConfigError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(name) => write!(
                f,
                "unknown engine {name:?} (known: {})",
                engine_lineup().join(", ")
            ),
            Self::Config(e) => write!(f, "engine configuration invalid: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Constructs the engine registered under `name`.
///
/// # Errors
///
/// [`EngineError::Unknown`] for an unregistered name;
/// [`EngineError::Config`] when validation rejects the configuration.
pub fn try_engine(name: &str) -> Result<Box<dyn SnapshotController>, EngineError> {
    Ok(match name {
        "insure" => Box::new(InsureController::try_new(InsureConfig::prototype())?),
        "baseline" => Box::new(BaselineController::new()),
        "noopt" => Box::new(NoOptController::new()),
        _ => return Err(EngineError::Unknown(name.to_string())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_battery::BatteryId;
    use ins_cluster::dvfs::DutyCycle;
    use ins_powernet::matrix::Attachment;
    use ins_sim::time::{SimDuration, SimTime};
    use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};

    use crate::spm::UnitView;
    use crate::tpm::LoadKnob;

    fn obs(solar_w: f64, demand_w: f64) -> SystemObservation {
        SystemObservation {
            now: SimTime::from_hms(12, 0, 0),
            elapsed_days: 0.5,
            solar_power: Watts::new(solar_w),
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
            rack_demand: Watts::new(demand_w),
            rack_demand_target: Watts::new(demand_w),
            rack_demand_full: Watts::new(1800.0),
            pack_voltage: Volts::new(24.0),
            pending_gb: 100.0,
            knob: LoadKnob::DutyCycle,
            brownouts: 0,
        }
    }

    #[test]
    fn classify_orders_states_by_energy_margin() {
        assert_eq!(classify(&obs(1200.0, 900.0)), StateClass::Surplus);
        assert_eq!(classify(&obs(900.0, 900.0)), StateClass::Balanced);
        assert_eq!(classify(&obs(100.0, 900.0)), StateClass::Deficit);
    }

    #[test]
    fn classify_flags_critical_and_outage() {
        let mut o = obs(100.0, 900.0);
        o.units[0].soc = Soc::new(0.2);
        o.discharge_current = Amps::new(10.0);
        assert_eq!(classify(&o), StateClass::Critical);
        o.units[0].at_cutoff = true;
        assert_eq!(classify(&o), StateClass::Outage);
    }

    #[test]
    fn severity_ordering_reads_naturally() {
        assert!(StateClass::Outage < StateClass::Critical);
        assert!(StateClass::Critical < StateClass::Deficit);
        assert!(StateClass::Deficit < StateClass::Balanced);
        assert!(StateClass::Balanced < StateClass::Surplus);
    }

    #[test]
    fn engines_decide_with_shared_classification() {
        let o = obs(1200.0, 900.0);
        for name in engine_lineup() {
            let mut engine = try_engine(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let Some(mut fork) = engine.fork_controller() else {
                panic!("{name} must fork")
            };
            let decide = |c: &mut dyn SnapshotController| PolicyDecision {
                state: classify(&o),
                action: c.control(&o),
            };
            let decision = decide(engine.as_mut());
            assert_eq!(decision.state, StateClass::Surplus, "{name}");
            assert_eq!(decision, decide(fork.as_mut()), "{name}");
        }
    }

    #[test]
    fn try_engine_rejects_unknown_names_with_the_lineup() {
        let Err(err) = try_engine("mpc") else {
            panic!("mpc must be unknown")
        };
        let msg = err.to_string();
        assert!(msg.contains("insure") && msg.contains("baseline") && msg.contains("noopt"));
    }
}
