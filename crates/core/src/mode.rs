//! e-Buffer operating modes and their transition diagram.
//!
//! §3.2 defines four modes for each battery unit — Offline, Charging,
//! Standby, Discharging — and Fig. 8 gives the seven legal transitions
//! between them, encoded here once. Only the service's safe-mode policy
//! (`ins_service::safe_mode::SafeModePolicy`) walks this diagram today:
//! the stock controllers (InSURE, baseline, NoOpt) set each unit's
//! switch-matrix attachment directly, and InSURE's moves do not all
//! follow Fig. 8 edges.

use core::fmt;

/// Operating mode of one battery unit (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferMode {
    /// Disconnected from the load for system protection.
    Offline,
    /// Receiving onsite renewable power at the best achievable rate.
    Charging,
    /// Charged and ready; receives float charging.
    Standby,
    /// Powering the server cluster.
    Discharging,
}

impl BufferMode {
    /// All modes.
    pub const ALL: [BufferMode; 4] = [
        BufferMode::Offline,
        BufferMode::Charging,
        BufferMode::Standby,
        BufferMode::Discharging,
    ];
}

impl fmt::Display for BufferMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BufferMode::Offline => "offline",
            BufferMode::Charging => "charging",
            BufferMode::Standby => "standby",
            BufferMode::Discharging => "discharging",
        };
        f.write_str(s)
    }
}

/// The seven numbered transition causes of Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionCause {
    /// 1: both battery and green power are available → start charging.
    PowerAvailable,
    /// 2: all selected batteries meet their capacity goals → standby.
    CapacityGoalsMet,
    /// 3: green power budget becomes inadequate → discharge to help.
    BudgetInadequate,
    /// 4: state of charge drops below threshold → protective offline.
    SocBelowThreshold,
    /// 5: a batch of batteries meets capacity goals → standby.
    BatchCharged,
    /// 6: green power output becomes unavailable → discharge.
    GreenUnavailable,
    /// 7: green power output exceeds server demand → back to charging.
    SurplusGreen,
}

impl TransitionCause {
    /// All seven causes, in Fig. 8's numbering order.
    pub const ALL: [TransitionCause; 7] = [
        TransitionCause::PowerAvailable,
        TransitionCause::CapacityGoalsMet,
        TransitionCause::BudgetInadequate,
        TransitionCause::SocBelowThreshold,
        TransitionCause::BatchCharged,
        TransitionCause::GreenUnavailable,
        TransitionCause::SurplusGreen,
    ];

    /// The `(from, to)` mode pair this cause drives (Fig. 8's arrows).
    #[must_use]
    pub fn edge(self) -> (BufferMode, BufferMode) {
        match self {
            TransitionCause::PowerAvailable => (BufferMode::Offline, BufferMode::Charging),
            TransitionCause::CapacityGoalsMet => (BufferMode::Charging, BufferMode::Standby),
            TransitionCause::BudgetInadequate => (BufferMode::Standby, BufferMode::Discharging),
            TransitionCause::SocBelowThreshold => (BufferMode::Discharging, BufferMode::Offline),
            TransitionCause::BatchCharged => (BufferMode::Charging, BufferMode::Standby),
            TransitionCause::GreenUnavailable => (BufferMode::Standby, BufferMode::Discharging),
            TransitionCause::SurplusGreen => (BufferMode::Discharging, BufferMode::Charging),
        }
    }
}

/// Error returned by [`transition`] for an edge Fig. 8 does not contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransitionError {
    /// Mode the unit was in.
    pub from: BufferMode,
    /// Cause that was applied.
    pub cause: TransitionCause,
}

impl fmt::Display for InvalidTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transition cause {:?} does not apply to a unit in {} mode",
            self.cause, self.from
        )
    }
}

impl std::error::Error for InvalidTransitionError {}

/// Applies a transition cause to a unit in `from` mode.
///
/// # Errors
///
/// Returns [`InvalidTransitionError`] if Fig. 8 has no such edge.
pub fn transition(
    from: BufferMode,
    cause: TransitionCause,
) -> Result<BufferMode, InvalidTransitionError> {
    let (expected_from, to) = cause.edge();
    if from == expected_from {
        Ok(to)
    } else {
        Err(InvalidTransitionError { from, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_causes_have_valid_edges() -> Result<(), InvalidTransitionError> {
        assert_eq!(TransitionCause::ALL.len(), 7);
        for cause in TransitionCause::ALL {
            let (from, to) = cause.edge();
            assert_eq!(transition(from, cause)?, to);
        }
        Ok(())
    }

    #[test]
    fn full_cycle_through_the_diagram() -> Result<(), InvalidTransitionError> {
        // Offline → Charging → Standby → Discharging → Offline.
        let m = BufferMode::Offline;
        let m = transition(m, TransitionCause::PowerAvailable)?;
        assert_eq!(m, BufferMode::Charging);
        let m = transition(m, TransitionCause::CapacityGoalsMet)?;
        assert_eq!(m, BufferMode::Standby);
        let m = transition(m, TransitionCause::BudgetInadequate)?;
        assert_eq!(m, BufferMode::Discharging);
        let m = transition(m, TransitionCause::SocBelowThreshold)?;
        assert_eq!(m, BufferMode::Offline);
        Ok(())
    }

    #[test]
    fn surplus_green_returns_discharging_units_to_charging() -> Result<(), InvalidTransitionError> {
        let m = transition(BufferMode::Discharging, TransitionCause::SurplusGreen)?;
        assert_eq!(m, BufferMode::Charging);
        Ok(())
    }

    #[test]
    fn invalid_edges_are_rejected() {
        let err = transition(BufferMode::Offline, TransitionCause::SurplusGreen).unwrap_err();
        assert_eq!(err.from, BufferMode::Offline);
        assert!(err.to_string().contains("offline"));
        assert!(transition(BufferMode::Standby, TransitionCause::PowerAvailable).is_err());
        assert!(transition(BufferMode::Charging, TransitionCause::SocBelowThreshold).is_err());
    }

    #[test]
    fn mode_display() {
        assert_eq!(BufferMode::Offline.to_string(), "offline");
        assert_eq!(BufferMode::Discharging.to_string(), "discharging");
        assert_eq!(BufferMode::ALL.len(), 4);
    }
}
