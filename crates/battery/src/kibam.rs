//! The Kinetic Battery Model (KiBaM).
//!
//! KiBaM abstracts a lead-acid battery as two connected charge wells: an
//! *available* well that directly feeds the terminals and a *bound* well
//! that replenishes it through a valve with rate constant `k`. The model
//! captures the two behaviours §2.2 of the paper builds its temporal power
//! management on:
//!
//! * **rate-capacity effect** — at high discharge current the available
//!   well drains faster than the bound well can refill it, so the battery
//!   appears to lose capacity ("super-fast capacity drop at high current"),
//! * **recovery effect** — at rest or low load, bound charge flows back
//!   into the available well and usable capacity returns (Fig. 4-b).

use ins_sim::units::{AmpHours, Amps, Hours, Soc};

/// Charge state of a two-well KiBaM battery.
///
/// # Examples
///
/// ```
/// use ins_battery::kibam::KibamState;
/// use ins_sim::units::{AmpHours, Amps, Hours};
///
/// let mut k = KibamState::new_full(AmpHours::new(35.0), 0.62, 0.5);
/// // A hard 30 A discharge for 15 minutes…
/// k.step(Amps::new(30.0), Hours::new(0.25));
/// let depleted = k.available_fraction();
/// // …then an hour of rest lets bound charge flow back.
/// k.step(Amps::ZERO, Hours::new(1.0));
/// assert!(k.available_fraction() > depleted);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KibamState {
    /// Charge in the available well.
    available: AmpHours,
    /// Charge in the bound well.
    bound: AmpHours,
    /// Total capacity (size of both wells combined).
    capacity: AmpHours,
    /// Capacity ratio `c` (size of the available well as a fraction).
    c: f64,
    /// Rate constant `k` in 1/hour.
    k: f64,
}

/// Maximum integration sub-step, in hours. Steps longer than this are
/// split internally so forward-Euler integration stays accurate.
const MAX_SUBSTEP_HOURS: f64 = 30.0 / 3600.0;

impl KibamState {
    /// Creates a fully charged battery.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive, `c` is outside `(0, 1)` or
    /// `k_per_hour` is not positive.
    #[must_use]
    pub fn new_full(capacity: AmpHours, c: f64, k_per_hour: f64) -> Self {
        Self::with_soc(capacity, c, k_per_hour, Soc::FULL)
    }

    /// Creates a battery at the given state of charge, with the two wells
    /// in equilibrium (as after a long rest).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive, `c` is outside `(0, 1)` or
    /// `k_per_hour` is not positive.
    #[must_use]
    pub fn with_soc(capacity: AmpHours, c: f64, k_per_hour: f64, soc: Soc) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        assert!(0.0 < c && c < 1.0, "capacity ratio must lie in (0, 1)");
        assert!(k_per_hour > 0.0, "rate constant must be positive");
        Self {
            available: AmpHours::new(capacity.value() * c * soc.value()),
            bound: AmpHours::new(capacity.value() * (1.0 - c) * soc.value()),
            capacity,
            c,
            k: k_per_hour,
        }
    }

    /// Total state of charge.
    ///
    /// The operands were validated at construction, so the ratio is
    /// finite; `saturating` only absorbs float round-off at the rails.
    #[must_use]
    #[inline]
    pub fn soc(&self) -> Soc {
        Soc::saturating((self.available + self.bound) / self.capacity)
    }

    /// Fill level of the available well — the head `h1` that terminal
    /// voltage and exhaustion depend on.
    #[must_use]
    #[inline]
    pub fn available_fraction(&self) -> Soc {
        Soc::saturating(self.available.value() / (self.c * self.capacity.value()))
    }

    /// Charge currently in the available well.
    #[must_use]
    pub fn available_charge(&self) -> AmpHours {
        self.available
    }

    /// Charge currently in the bound well.
    #[must_use]
    pub fn bound_charge(&self) -> AmpHours {
        self.bound
    }

    /// Total stored charge.
    #[must_use]
    #[inline]
    pub fn stored_charge(&self) -> AmpHours {
        self.available + self.bound
    }

    /// Total capacity of both wells.
    #[must_use]
    pub fn capacity(&self) -> AmpHours {
        self.capacity
    }

    /// `true` when the available well is (numerically) empty — the point
    /// at which a real battery's terminal voltage collapses even though
    /// bound charge remains.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.available.value() <= 1e-9
    }

    /// Shrinks total capacity to `fraction` of its current value, clamping
    /// any well contents that no longer fit. Models sudden capacity fade
    /// (sulfation, a shorted cell): both wells shrink proportionally, so
    /// the state of charge is preserved where possible.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn scale_capacity(&mut self, fraction: f64) {
        assert!(
            0.0 < fraction && fraction <= 1.0,
            "capacity fraction must lie in (0, 1]"
        );
        self.capacity = AmpHours::new(self.capacity.value() * fraction);
        let avail_cap = self.c * self.capacity.value();
        let bound_cap = (1.0 - self.c) * self.capacity.value();
        self.available = AmpHours::new(self.available.value().min(avail_cap));
        self.bound = AmpHours::new(self.bound.value().min(bound_cap));
    }

    /// Advances the model by `dt` under a signed current
    /// (positive = discharge, negative = charge).
    ///
    /// Returns the charge actually moved through the terminals, which may
    /// be less than `current × dt` if the available well empties (on
    /// discharge) or both wells fill (on charge) mid-step.
    #[inline]
    pub fn step(&mut self, current: Amps, dt: Hours) -> AmpHours {
        let mut remaining = dt.value().max(0.0);
        let mut moved = 0.0f64;
        while remaining > 1e-12 {
            let h = remaining.min(MAX_SUBSTEP_HOURS);
            moved += self.substep(current, h);
            remaining -= h;
        }
        AmpHours::new(moved)
    }

    /// One forward-Euler sub-step; returns charge moved (signed like the
    /// current: positive when discharging). Takes the dimensioned
    /// current so raw amperes never cross a function boundary.
    #[inline]
    fn substep(&mut self, current: Amps, dt_h: f64) -> f64 {
        let current = current.value();
        let cap = self.capacity.value();
        let (avail_cap, bound_cap) = (self.c * cap, (1.0 - self.c) * cap);
        let h1 = self.available.value() / avail_cap;
        let h2 = self.bound.value() / bound_cap;
        // Bound→available flow in Ah/h, proportional to the head difference
        // and scaled by capacity so `k` is a capacity-independent rate.
        let flow = self.k * cap * (h2 - h1);

        // Clamp the through-terminal current so the available well neither
        // underflows (discharge) nor overfills (charge) this sub-step.
        let mut i = current;
        if i > 0.0 {
            let max_i = self.available.value() / dt_h + flow;
            i = i.min(max_i.max(0.0));
        } else if i < 0.0 {
            let headroom = (avail_cap - self.available.value()) / dt_h - flow;
            i = i.max(-headroom.max(0.0));
        }

        let new_available = (self.available.value() + (flow - i) * dt_h).clamp(0.0, avail_cap);
        let new_bound = (self.bound.value() - flow * dt_h).clamp(0.0, bound_cap);
        self.available = AmpHours::new(new_available);
        self.bound = AmpHours::new(new_bound);
        i * dt_h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> KibamState {
        KibamState::new_full(AmpHours::new(35.0), 0.62, 0.5)
    }

    #[test]
    fn full_battery_has_unit_soc() {
        let k = fresh();
        assert!((k.soc().value() - 1.0).abs() < 1e-12);
        assert!((k.available_fraction().value() - 1.0).abs() < 1e-12);
        assert!(!k.is_exhausted());
        assert_eq!(k.capacity(), AmpHours::new(35.0));
    }

    #[test]
    fn with_soc_partitions_wells_in_equilibrium() {
        let k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(0.5));
        assert!((k.soc().value() - 0.5).abs() < 1e-12);
        assert!((k.available_fraction().value() - 0.5).abs() < 1e-12);
        assert!((k.available_charge().value() - 0.62 * 35.0 * 0.5).abs() < 1e-9);
        assert!((k.bound_charge().value() - 0.38 * 35.0 * 0.5).abs() < 1e-9);
    }

    #[test]
    fn discharge_conserves_charge() {
        let mut k = fresh();
        let before = k.stored_charge();
        let moved = k.step(Amps::new(10.0), Hours::new(1.0));
        let after = k.stored_charge();
        assert!((before.value() - after.value() - moved.value()).abs() < 1e-6);
        assert!((moved.value() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn charge_conserves_charge() {
        let mut k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(0.3));
        let before = k.stored_charge();
        let moved = k.step(Amps::new(-5.0), Hours::new(1.0));
        assert!(moved.value() < 0.0);
        let after = k.stored_charge();
        assert!((after.value() - before.value() + moved.value()).abs() < 1e-6);
    }

    #[test]
    fn rate_capacity_effect_high_current_exhausts_early() {
        // At 1C discharge the available well empties long before all the
        // nominal capacity is delivered.
        let mut k = fresh();
        let mut delivered = 0.0;
        let dt = Hours::new(1.0 / 360.0);
        for _ in 0..(360 * 3) {
            delivered += k.step(Amps::new(35.0), dt).value();
            if k.is_exhausted() {
                break;
            }
        }
        assert!(k.is_exhausted(), "battery should hit the wall at 1C");
        assert!(
            delivered < 0.8 * 35.0,
            "delivered {delivered} Ah should be far below nameplate at 1C"
        );

        // At C/20 nearly all nameplate capacity is usable.
        let mut k = fresh();
        let mut delivered_slow = 0.0;
        for _ in 0..(360 * 25) {
            delivered_slow += k.step(Amps::new(1.75), dt).value();
            if k.is_exhausted() {
                break;
            }
        }
        assert!(
            delivered_slow > 0.95 * 35.0,
            "delivered {delivered_slow} Ah should approach nameplate at C/20"
        );
    }

    #[test]
    fn recovery_effect_rest_restores_available_charge() {
        let mut k = fresh();
        // Hard discharge until near exhaustion.
        while !k.is_exhausted() {
            k.step(Amps::new(35.0), Hours::new(1.0 / 120.0));
        }
        let at_exhaustion = k.available_fraction().value();
        k.step(Amps::ZERO, Hours::new(0.5));
        assert!(
            k.available_fraction().value() > at_exhaustion + 0.05,
            "rest should visibly recover the available well"
        );
    }

    #[test]
    fn exhausted_battery_delivers_only_recovery_flow() {
        let mut k = fresh();
        while !k.is_exhausted() {
            k.step(Amps::new(35.0), Hours::new(1.0 / 120.0));
        }
        // Demanding 35 A from an exhausted battery yields only what the
        // bound well can push across per step — well below the demand.
        let moved = k.step(Amps::new(35.0), Hours::new(1.0 / 3600.0));
        assert!(moved.value() < 35.0 / 3600.0 * 0.5);
    }

    #[test]
    fn charge_clamps_at_full() {
        let mut k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(0.95));
        // Try to stuff far more charge than fits.
        for _ in 0..200 {
            k.step(Amps::new(-20.0), Hours::new(0.05));
        }
        assert!(k.soc() <= 1.0 + 1e-9);
        assert!(k.available_fraction() <= 1.0 + 1e-9);
    }

    #[test]
    fn long_step_matches_many_short_steps() {
        let mut a = fresh();
        let mut b = fresh();
        a.step(Amps::new(20.0), Hours::new(0.5));
        for _ in 0..60 {
            b.step(Amps::new(20.0), Hours::new(0.5 / 60.0));
        }
        assert!((a.soc().value() - b.soc().value()).abs() < 1e-3);
        assert!((a.available_fraction().value() - b.available_fraction().value()).abs() < 1e-3);
    }

    #[test]
    fn scale_capacity_preserves_soc_and_clamps_wells() {
        let mut k = fresh();
        k.scale_capacity(0.5);
        assert_eq!(k.capacity(), AmpHours::new(17.5));
        // Was full; both wells clamp to the shrunken sizes, so still full.
        assert!((k.soc().value() - 1.0).abs() < 1e-12);
        assert!((k.available_fraction().value() - 1.0).abs() < 1e-12);

        let mut half = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(0.5));
        half.scale_capacity(0.8);
        // Contents fit in the smaller wells: absolute charge unchanged.
        assert!((half.stored_charge().value() - 17.5).abs() < 1e-9);
        assert!((half.soc().value() - 0.5 / 0.8).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "capacity fraction must lie in (0, 1]")]
    fn scale_capacity_rejects_zero() {
        fresh().scale_capacity(0.0);
    }

    #[test]
    fn soc_type_clamps_out_of_range_construction() {
        let k = KibamState::with_soc(AmpHours::new(35.0), 0.62, 0.5, Soc::new(1.2));
        assert!((k.soc().value() - 1.0).abs() < 1e-12, "clamped to full");
    }

    #[test]
    #[should_panic(expected = "capacity ratio must lie in (0, 1)")]
    fn rejects_bad_ratio() {
        let _ = KibamState::new_full(AmpHours::new(35.0), 0.0, 1.2);
    }
}
