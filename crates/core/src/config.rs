//! InSURE controller configuration.

use std::fmt;

use ins_sim::units::{AmpHours, Amps};

/// A constraint violated by an [`InsureConfig`].
///
/// Each variant names the specific invariant so callers can match on it;
/// the [`fmt::Display`] form is the human-readable description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The discharge current cap is not positive.
    NonPositiveDischargeCap,
    /// The designated lifetime discharge is not positive.
    NonPositiveLifetimeDischarge,
    /// The desired battery lifetime is not positive.
    NonPositiveLifetime,
    /// A system was configured with zero battery units.
    ZeroUnits,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Self::NonPositiveDischargeCap => "discharge current cap must be positive",
            Self::NonPositiveLifetimeDischarge => "lifetime discharge must be positive",
            Self::NonPositiveLifetime => "desired lifetime must be positive",
            Self::ZeroUnits => "at least one battery unit required",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// The tunables of the spatio-temporal power manager that the ablations
/// vary. Every other policy value is a constant in
/// [`crate::controller`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsureConfig {
    /// Per-unit discharge current cap (Fig. 11's `Iσ`): above it the TPM
    /// sheds load so the recovery effect can act. The black-start budget
    /// credits each usable unit with this current too.
    pub discharge_current_cap: Amps,
    /// Designated lifetime discharge throughput per unit (`DL` in Eq. 1).
    pub lifetime_discharge: AmpHours,
    /// Desired battery lifetime (`TL` in Eq. 1), days.
    pub desired_lifetime_days: f64,
    /// Elastic screening (§3.3): allow the discharge threshold to grow
    /// when too few units pass screening, trading lifetime for throughput.
    pub elastic_threshold: bool,
}

impl InsureConfig {
    /// The prototype's configuration: a 0.5 C discharge cap and a 4-year
    /// design life for the 35 Ah units, with elastic screening. The TPM
    /// runs at the plant's control period, which
    /// [`crate::SystemBuilder::control_period`] sets (1 minute by
    /// default).
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            discharge_current_cap: Amps::new(17.5),
            lifetime_discharge: AmpHours::new(250.0 * 35.0),
            desired_lifetime_days: 4.0 * 365.0,
            elastic_threshold: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.discharge_current_cap.value() <= 0.0 {
            return Err(ConfigError::NonPositiveDischargeCap);
        }
        if self.lifetime_discharge.value() <= 0.0 {
            return Err(ConfigError::NonPositiveLifetimeDischarge);
        }
        if self.desired_lifetime_days <= 0.0 {
            return Err(ConfigError::NonPositiveLifetime);
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

    /// The SoC thresholds are controller constants now; a low-SoC
    /// threshold at or above the charge target would pull every unit
    /// offline before it could come online. The one threshold left on the
    /// configuration, the discharge current cap, is rejected below zero.
    #[test]
    fn validation_rejects_inverted_thresholds() {
        use crate::controller::{CHARGE_TARGET_SOC, SOC_LOW_THRESHOLD};
        assert!(SOC_LOW_THRESHOLD < CHARGE_TARGET_SOC);
        let mut c = InsureConfig::prototype();
        c.discharge_current_cap = Amps::new(-17.5);
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveDischargeCap));
    }

    /// The screening period is a controller constant now; the period left
    /// on the configuration is the desired lifetime `TL`.
    #[test]
    fn validation_rejects_degenerate_periods() {
        assert!(!crate::controller::SCREENING_INTERVAL.is_zero());
        for days in [0.0, -1.0] {
            let mut c = InsureConfig::prototype();
            c.desired_lifetime_days = days;
            assert_eq!(c.validate(), Err(ConfigError::NonPositiveLifetime));
        }
    }

    #[test]
    fn errors_identify_the_violated_constraint() {
        let mut c = InsureConfig::prototype();
        c.discharge_current_cap = Amps::ZERO;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveDischargeCap));
        let mut c = InsureConfig::prototype();
        c.desired_lifetime_days = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveLifetime));
    }

    #[test]
    fn errors_render_human_readable_messages() {
        let text = ConfigError::NonPositiveDischargeCap.to_string();
        assert!(text.contains("discharge current cap"), "got {text:?}");
        // And they interoperate with the std error machinery.
        let boxed: Box<dyn std::error::Error> = Box::new(ConfigError::NonPositiveLifetime);
        assert!(boxed.to_string().contains("desired lifetime"));
    }

    #[test]
    fn validation_rejects_non_positive_limits() {
        for f in [
            |c: &mut InsureConfig| c.discharge_current_cap = Amps::ZERO,
            |c: &mut InsureConfig| c.lifetime_discharge = AmpHours::ZERO,
            |c: &mut InsureConfig| c.desired_lifetime_days = 0.0,
        ] {
            let mut c = InsureConfig::prototype();
            f(&mut c);
            assert!(c.validate().is_err());
        }
    }
}
