//! DVFS duty cycles.
//!
//! §3.4: "For batch jobs, [the rack] will receive a duty cycle that
//! specifies the percentage of time a server rack is allowed to run at
//! full speed. Then the OS can use dynamic voltage and frequency scaling
//! (DVFS) to adjust server speed based on the duty cycle."

use core::fmt;

/// A clock duty cycle in `[0, 1]`: the fraction of time the rack may run
/// at full speed.
///
/// # Examples
///
/// ```
/// use ins_cluster::dvfs::DutyCycle;
///
/// let half = DutyCycle::new(0.5);
/// assert_eq!(half.throughput_scale(), 0.5);
/// let lowered = half.lowered();
/// assert!(lowered < half);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DutyCycle(f64);

/// Step used by [`DutyCycle::lowered`]/[`DutyCycle::raised`] — one notch of
/// the temporal power manager's power-capping loop.
const STEP: f64 = 0.125;

/// Lowest duty the TPM will command before deciding to shut servers down
/// instead (running slower than this wastes idle power).
const FLOOR: f64 = 0.25;

impl DutyCycle {
    /// Full speed.
    pub const FULL: DutyCycle = DutyCycle(1.0);

    /// Creates a duty cycle, clamping into `[0, 1]`.
    #[must_use]
    pub fn new(fraction: f64) -> Self {
        Self(fraction.clamp(0.0, 1.0))
    }

    /// The raw fraction in `[0, 1]`.
    #[must_use]
    #[inline]
    pub const fn fraction(self) -> f64 {
        self.0
    }

    /// Compute-throughput multiplier (linear in duty).
    #[must_use]
    pub const fn throughput_scale(self) -> f64 {
        self.0
    }

    /// One capping notch down, floored at the TPM's minimum useful duty.
    #[must_use]
    pub fn lowered(self) -> Self {
        Self((self.0 - STEP).max(FLOOR))
    }

    /// One notch up, capped at full speed.
    #[must_use]
    pub fn raised(self) -> Self {
        Self((self.0 + STEP).min(1.0))
    }

    /// `true` at the capping floor.
    #[must_use]
    pub fn at_floor(self) -> bool {
        self.0 <= FLOOR + 1e-12
    }
}

impl Default for DutyCycle {
    fn default() -> Self {
        Self::FULL
    }
}

impl fmt::Display for DutyCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}%", self.0 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_clamps() {
        assert_eq!(DutyCycle::new(1.5).fraction(), 1.0);
        assert_eq!(DutyCycle::new(-0.5).fraction(), 0.0);
        assert_eq!(DutyCycle::default(), DutyCycle::FULL);
    }

    #[test]
    fn lowering_steps_down_to_floor() {
        let mut d = DutyCycle::FULL;
        for _ in 0..20 {
            d = d.lowered();
        }
        assert!(d.at_floor());
        assert_eq!(d.fraction(), FLOOR);
    }

    #[test]
    fn raising_steps_back_to_full() {
        let mut d = DutyCycle::new(FLOOR);
        for _ in 0..20 {
            d = d.raised();
        }
        assert_eq!(d, DutyCycle::FULL);
    }

    #[test]
    fn throughput_scale_is_linear() {
        assert_eq!(DutyCycle::new(0.75).throughput_scale(), 0.75);
    }

    #[test]
    fn display_is_a_percentage() {
        assert_eq!(DutyCycle::new(0.625).to_string(), "62%");
        assert_eq!(DutyCycle::FULL.to_string(), "100%");
    }
}
