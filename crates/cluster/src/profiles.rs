//! Server hardware profiles.
//!
//! The prototype deploys four HP ProLiant rack servers (dual Xeon 3.2 GHz,
//! 16 GB RAM): ≈ 450 W peak and ≈ 280 W idle each, hosting two Xen VMs per
//! physical machine (§4, §5). Table 7 compares them against a low-power
//! Intel Core i7-2720 node drawing 42–46 W under load. Both profiles are
//! captured here, with the paper's overhead figures: ≈ 15 minutes per
//! server on/off power cycle and ≈ 5 minutes of VM management (checkpoint)
//! overhead.

use std::fmt;

use ins_sim::time::SimDuration;
use ins_sim::units::Watts;

/// A physical-consistency constraint violated by a [`ServerProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfileError {
    /// The idle power draw is negative.
    NegativeIdlePower,
    /// The peak power draw is below the idle draw.
    PeakBelowIdle,
    /// The profile hosts zero VM slots.
    NoVmSlots,
    /// The relative compute speed is not positive.
    NonPositiveSpeed,
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            Self::NegativeIdlePower => "idle power must be non-negative",
            Self::PeakBelowIdle => "peak power must be at least idle power",
            Self::NoVmSlots => "server must host at least one VM slot",
            Self::NonPositiveSpeed => "relative speed must be positive",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ProfileError {}

/// Static description of one server model.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerProfile {
    /// Human-readable model name.
    pub name: String,
    /// Power drawn while on and idle.
    pub idle_power: Watts,
    /// Power drawn at full utilization and full clock.
    pub peak_power: Watts,
    /// VM slots hosted per physical machine.
    pub vm_slots: u32,
    /// Time for the boot half of an on/off cycle.
    pub boot_time: SimDuration,
    /// Time for the checkpoint-and-shutdown half of an on/off cycle.
    pub shutdown_time: SimDuration,
    /// VM checkpoint/restore management overhead.
    pub checkpoint_time: SimDuration,
    /// Relative single-node compute throughput (ProLiant ≡ 1.0), used to
    /// scale workload speeds across heterogeneous nodes.
    pub relative_speed: f64,
}

impl ServerProfile {
    /// The prototype's HP ProLiant node (dual Xeon 3.2 GHz).
    ///
    /// The paper's 15-minute on/off service interruption is split as
    /// 10 min boot + 5 min checkpoint-and-shutdown.
    #[must_use]
    pub fn xeon_proliant() -> Self {
        Self {
            name: "HP ProLiant (dual Xeon 3.2 GHz)".into(),
            idle_power: Watts::new(280.0),
            peak_power: Watts::new(450.0),
            vm_slots: 2,
            boot_time: SimDuration::from_minutes(10),
            shutdown_time: SimDuration::from_minutes(5),
            checkpoint_time: SimDuration::from_minutes(5),
            relative_speed: 1.0,
        }
    }

    /// The low-power comparison node of Table 7 (Intel Core i7-2720).
    ///
    /// Table 7 shows it close to the Xeon node on dedup/x264 wall time and
    /// slower on bayes, at a tenth of the power.
    #[must_use]
    pub fn core_i7() -> Self {
        Self {
            name: "low-power node (Intel Core i7-2720)".into(),
            idle_power: Watts::new(15.0),
            peak_power: Watts::new(46.0),
            vm_slots: 2,
            boot_time: SimDuration::from_minutes(2),
            shutdown_time: SimDuration::from_minutes(1),
            checkpoint_time: SimDuration::from_minutes(1),
            relative_speed: 0.85,
        }
    }

    /// Power drawn at the given utilization (`[0, 1]`) and clock duty
    /// cycle (`[0, 1]`): idle floor plus a dynamic part scaling with both.
    #[must_use]
    #[inline]
    pub fn power_at(&self, utilization: f64, duty: f64) -> Watts {
        let u = utilization.clamp(0.0, 1.0);
        let d = duty.clamp(0.0, 1.0);
        self.idle_power + (self.peak_power - self.idle_power) * (u * d)
    }

    /// Validates physical consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a typed [`ProfileError`].
    pub fn validate(&self) -> Result<(), ProfileError> {
        if self.idle_power.value() < 0.0 {
            return Err(ProfileError::NegativeIdlePower);
        }
        if self.peak_power < self.idle_power {
            return Err(ProfileError::PeakBelowIdle);
        }
        if self.vm_slots == 0 {
            return Err(ProfileError::NoVmSlots);
        }
        if self.relative_speed <= 0.0 {
            return Err(ProfileError::NonPositiveSpeed);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ServerProfile::xeon_proliant().validate().unwrap();
        ServerProfile::core_i7().validate().unwrap();
    }

    #[test]
    fn proliant_matches_paper_numbers() {
        let p = ServerProfile::xeon_proliant();
        assert_eq!(p.idle_power, Watts::new(280.0));
        assert_eq!(p.peak_power, Watts::new(450.0));
        assert_eq!(p.vm_slots, 2);
        assert_eq!(
            (p.boot_time + p.shutdown_time).as_minutes(),
            15.0,
            "on/off cycle must cost the paper's 15 minutes"
        );
    }

    #[test]
    fn power_interpolates_with_util_and_duty() {
        let p = ServerProfile::xeon_proliant();
        assert_eq!(p.power_at(0.0, 1.0), p.idle_power);
        assert_eq!(p.power_at(1.0, 1.0), p.peak_power);
        assert_eq!(p.power_at(1.0, 0.5), Watts::new(365.0));
        assert_eq!(p.power_at(0.5, 1.0), Watts::new(365.0));
        // Clamping.
        assert_eq!(p.power_at(2.0, 2.0), p.peak_power);
        assert_eq!(p.power_at(-1.0, 0.5), p.idle_power);
    }

    #[test]
    fn i7_is_an_order_of_magnitude_lower_power() {
        let xeon = ServerProfile::xeon_proliant();
        let i7 = ServerProfile::core_i7();
        assert!(xeon.peak_power.value() / i7.peak_power.value() > 9.0);
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut p = ServerProfile::xeon_proliant();
        p.peak_power = Watts::new(100.0);
        assert_eq!(p.validate(), Err(ProfileError::PeakBelowIdle));
        let mut p = ServerProfile::xeon_proliant();
        p.vm_slots = 0;
        assert_eq!(p.validate(), Err(ProfileError::NoVmSlots));
        let mut p = ServerProfile::xeon_proliant();
        p.relative_speed = 0.0;
        assert_eq!(p.validate(), Err(ProfileError::NonPositiveSpeed));
    }

    #[test]
    fn profile_errors_render_human_readable_messages() {
        assert!(ProfileError::NoVmSlots.to_string().contains("VM slot"));
        let boxed: Box<dyn std::error::Error> = Box::new(ProfileError::PeakBelowIdle);
        assert!(boxed.to_string().contains("peak power"));
    }
}
