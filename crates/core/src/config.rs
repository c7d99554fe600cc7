//! InSURE controller configuration.

use std::fmt;

use ins_sim::time::SimDuration;
use ins_sim::units::{AmpHours, Amps, Soc, Watts};

/// A constraint violated by an [`InsureConfig`].
///
/// Each variant names the specific invariant so callers can match on it;
/// the [`fmt::Display`] form is the human-readable description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The SPM screening interval is zero.
    ZeroScreeningInterval,
    /// The charge target lies outside `(0, 1]`.
    ChargeTargetOutOfRange,
    /// The low-SoC threshold lies outside `[0, 1)`.
    LowSocThresholdOutOfRange,
    /// The low-SoC threshold is not below the charge target.
    ThresholdsInverted,
    /// The discharge current cap is not positive.
    NonPositiveDischargeCap,
    /// The peak charging power is not positive.
    NonPositiveChargePower,
    /// The designated lifetime discharge is not positive.
    NonPositiveLifetimeDischarge,
    /// The desired battery lifetime is not positive.
    NonPositiveLifetime,
    /// The raise headroom lies outside `[0, 1)`.
    RaiseHeadroomOutOfRange,
    /// A system was configured with zero battery units.
    ZeroUnits,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Self::ZeroScreeningInterval => "screening interval must be non-zero",
            Self::ChargeTargetOutOfRange => "charge target must lie in (0, 1]",
            Self::LowSocThresholdOutOfRange => "low-SoC threshold must lie in [0, 1)",
            Self::ThresholdsInverted => "low-SoC threshold must be below the charge target",
            Self::NonPositiveDischargeCap => "discharge current cap must be positive",
            Self::NonPositiveChargePower => "peak charge power must be positive",
            Self::NonPositiveLifetimeDischarge => "lifetime discharge must be positive",
            Self::NonPositiveLifetime => "desired lifetime must be positive",
            Self::RaiseHeadroomOutOfRange => "raise headroom must lie in [0, 1)",
            Self::ZeroUnits => "at least one battery unit required",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Tunables of the spatio-temporal power manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsureConfig {
    /// Coarse-grained SPM screening interval (Fig. 9's interval `T`).
    pub screening_interval: SimDuration,
    /// State of charge at which a charging unit is considered charged and
    /// brought online ("pre-determined capacity (90 %)", §3.2).
    pub charge_target_soc: Soc,
    /// State of charge below which a discharging unit is pulled offline
    /// and servers are checkpointed (Fig. 11's `SOCσ`).
    pub soc_low_threshold: Soc,
    /// Per-unit discharge current cap (Fig. 11's `Iσ`): above it the TPM
    /// sheds load so the recovery effect can act.
    pub discharge_current_cap: Amps,
    /// Peak charging power per unit (`PPC` in Fig. 10's `N = PG/PPC`).
    pub peak_charge_power: Watts,
    /// Designated lifetime discharge throughput per unit (`DL` in Eq. 1).
    pub lifetime_discharge: AmpHours,
    /// Desired battery lifetime (`TL` in Eq. 1), days.
    pub desired_lifetime_days: f64,
    /// Elastic screening (§3.3): allow the discharge threshold to grow
    /// when too few units pass screening, trading lifetime for throughput.
    pub elastic_threshold: bool,
    /// Fraction of discharging units' current headroom kept in reserve
    /// before the TPM raises capacity again (hysteresis guard).
    pub raise_headroom: f64,
}

impl InsureConfig {
    /// The prototype's configuration: hourly SPM screening, 90 % charge
    /// target, 30 % low-SoC emergency threshold, 0.5 C discharge cap, and
    /// a 4-year design life for the 35 Ah units. The TPM runs at the
    /// plant's control period, which [`crate::SystemBuilder::control_period`]
    /// sets (1 minute by default).
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            screening_interval: SimDuration::from_hours(1),
            charge_target_soc: Soc::saturating(0.90),
            soc_low_threshold: Soc::saturating(0.30),
            discharge_current_cap: Amps::new(17.5),
            peak_charge_power: Watts::new(230.0),
            lifetime_discharge: AmpHours::new(250.0 * 35.0),
            desired_lifetime_days: 4.0 * 365.0,
            elastic_threshold: true,
            raise_headroom: 0.25,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.screening_interval.is_zero() {
            return Err(ConfigError::ZeroScreeningInterval);
        }
        // The `Soc` type already pins both thresholds into [0, 1]; what is
        // left to check here are the open ends of the intervals.
        if self.charge_target_soc == Soc::EMPTY {
            return Err(ConfigError::ChargeTargetOutOfRange);
        }
        if self.soc_low_threshold == Soc::FULL {
            return Err(ConfigError::LowSocThresholdOutOfRange);
        }
        if self.soc_low_threshold >= self.charge_target_soc {
            return Err(ConfigError::ThresholdsInverted);
        }
        if self.discharge_current_cap.value() <= 0.0 {
            return Err(ConfigError::NonPositiveDischargeCap);
        }
        if self.peak_charge_power.value() <= 0.0 {
            return Err(ConfigError::NonPositiveChargePower);
        }
        if self.lifetime_discharge.value() <= 0.0 {
            return Err(ConfigError::NonPositiveLifetimeDischarge);
        }
        if self.desired_lifetime_days <= 0.0 {
            return Err(ConfigError::NonPositiveLifetime);
        }
        if !(0.0..1.0).contains(&self.raise_headroom) {
            return Err(ConfigError::RaiseHeadroomOutOfRange);
        }
        Ok(())
    }
}

impl Default for InsureConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_validates() {
        InsureConfig::prototype().validate().unwrap();
        InsureConfig::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_inverted_thresholds() {
        let mut c = InsureConfig::prototype();
        c.soc_low_threshold = Soc::new(0.95);
        assert_eq!(c.validate(), Err(ConfigError::ThresholdsInverted));
    }

    #[test]
    fn errors_identify_the_violated_constraint() {
        let mut c = InsureConfig::prototype();
        c.discharge_current_cap = Amps::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveDischargeCap));
        let mut c = InsureConfig::prototype();
        c.raise_headroom = 1.0;
        assert_eq!(c.validate(), Err(ConfigError::RaiseHeadroomOutOfRange));
    }

    #[test]
    fn errors_render_human_readable_messages() {
        let text = ConfigError::ZeroScreeningInterval.to_string();
        assert!(text.contains("screening interval"), "got {text:?}");
        // And they interoperate with the std error machinery.
        let boxed: Box<dyn std::error::Error> = Box::new(ConfigError::ThresholdsInverted);
        assert!(boxed.to_string().contains("charge target"));
    }

    #[test]
    fn validation_rejects_degenerate_periods() {
        let mut c = InsureConfig::prototype();
        c.screening_interval = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_positive_limits() {
        for f in [
            |c: &mut InsureConfig| c.discharge_current_cap = Amps::ZERO,
            |c: &mut InsureConfig| c.peak_charge_power = Watts::ZERO,
            |c: &mut InsureConfig| c.lifetime_discharge = AmpHours::ZERO,
            |c: &mut InsureConfig| c.desired_lifetime_days = 0.0,
            |c: &mut InsureConfig| c.charge_target_soc = Soc::EMPTY,
            |c: &mut InsureConfig| c.raise_headroom = 1.0,
        ] {
            let mut c = InsureConfig::prototype();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
