//! One federated site: an [`InSituSystem`] plus its WAN-facing state.
//!
//! A site wraps a full single-site simulation (solar, batteries, rack,
//! workload, checkpoints) and adds everything the router can observe or
//! break from the outside: the blackout / partition / slowdown fault
//! windows, the per-site [`CircuitBreaker`], the per-site retry gate
//! (the shared [`Backoff`] primitive), and availability accounting.
//!
//! Determinism: every site is built from a child RNG stream forked off
//! the fleet seed by its site ID (`fork_seed("site-{id}")`), so a
//! site's entire trajectory depends only on `(fleet seed, site id)` —
//! adding or removing sites never perturbs its neighbours, and the
//! fleet replays byte-identically at any worker count.

use ins_core::system::InSituSystem;
use ins_sim::backoff::Backoff;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::SolarTrace;

use crate::breaker::{BreakerPolicy, CircuitBreaker};

/// Identifier of a site within its fleet (a dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub usize);

impl SiteId {
    /// The dense index this ID wraps.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// A federated site: local physics plus WAN-facing fault state.
#[derive(Debug)]
pub struct Site {
    system: InSituSystem,
    id: SiteId,
    /// The site's own solar trace, kept for surplus observation.
    solar: SolarTrace,
    solar_peak_w: f64,
    breaker: CircuitBreaker,
    /// Router-side retry gate: after a failed attempt the site is not
    /// re-tried until the capped-exponential delay expires, independent
    /// of (and usually faster than) the breaker window.
    retry_gate: Backoff,
    base_latency_ms: f64,
    blackout_until: Option<SimTime>,
    partition_until: Option<SimTime>,
    slow_until: Option<SimTime>,
    slow_factor: f64,
    routable_ticks: u64,
    total_ticks: u64,
}

impl Site {
    /// Wraps a built single-site system as a fleet member.
    ///
    /// `base_latency_ms` is the healthy round-trip time from the router
    /// to this site; fleets give each site a deterministic latency from
    /// its index so hedging decisions replay exactly.
    #[must_use]
    pub fn new(
        id: SiteId,
        system: InSituSystem,
        solar: SolarTrace,
        breaker_policy: BreakerPolicy,
        base_latency_ms: f64,
    ) -> Self {
        let solar_peak_w = solar.peak().value().max(1.0);
        Self {
            system,
            id,
            solar,
            solar_peak_w,
            breaker: CircuitBreaker::new(breaker_policy),
            // Retry gate: 30 s base, doubling to 2^4 = 8 min, never
            // exhausted — the breaker decides when to give up, the gate
            // only paces re-attempts.
            retry_gate: Backoff::new(SimDuration::from_secs(30), 4, u32::MAX),
            base_latency_ms,
            blackout_until: None,
            partition_until: None,
            slow_until: None,
            slow_factor: 1.0,
            routable_ticks: 0,
            total_ticks: 0,
        }
    }

    /// The site's fleet-level identifier.
    #[must_use]
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The wrapped single-site simulation.
    #[must_use]
    pub fn system(&self) -> &InSituSystem {
        &self.system
    }

    /// Advances the site's local physics to `now`.
    pub fn advance_to(&mut self, now: SimTime) {
        self.system.run_until(now);
    }

    /// The per-site circuit breaker.
    #[must_use]
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Mutable access for the router's admission/feedback path.
    pub fn breaker_mut(&mut self) -> &mut CircuitBreaker {
        &mut self.breaker
    }

    /// The router-side retry gate.
    #[must_use]
    pub fn retry_gate(&self) -> &Backoff {
        &self.retry_gate
    }

    /// Mutable access to the retry gate.
    pub fn retry_gate_mut(&mut self) -> &mut Backoff {
        &mut self.retry_gate
    }

    /// A [`SiteBlackout`](ins_sim::fault::FaultKind::SiteBlackout) strikes:
    /// the site's power collapses. Every server crash-stops (an
    /// in-flight checkpoint write is torn, un-checkpointed state is
    /// lost) and the site serves nothing until the window expires; the
    /// local recovery path — checkpoint restore plus cold boot — runs
    /// underneath the window. Overlapping blackouts extend, never
    /// shorten.
    pub fn begin_blackout(&mut self, now: SimTime, duration: SimDuration) {
        let until = now + duration;
        self.blackout_until = Some(match self.blackout_until {
            Some(t) if t > until => t,
            _ => until,
        });
        self.system.force_outage();
    }

    /// A [`WanPartition`](ins_sim::fault::FaultKind::WanPartition) strikes: the site keeps running but
    /// the router cannot reach it until the window expires.
    pub fn begin_partition(&mut self, now: SimTime, duration: SimDuration) {
        let until = now + duration;
        self.partition_until = Some(match self.partition_until {
            Some(t) if t > until => t,
            _ => until,
        });
    }

    /// A [`SlowSite`](ins_sim::fault::FaultKind::SlowSite) strikes: response latency multiplies by
    /// `factor` until the window expires. Overlapping slowdowns keep the
    /// worse factor.
    pub fn begin_slowdown(&mut self, now: SimTime, factor: f64, duration: SimDuration) {
        let until = now + duration;
        let active = self.slow_until.is_some_and(|t| now < t);
        self.slow_factor = if active {
            self.slow_factor.max(factor)
        } else {
            factor
        };
        self.slow_until = Some(match self.slow_until {
            Some(t) if t > until => t,
            _ => until,
        });
    }

    /// `true` while a blackout window is active.
    #[must_use]
    pub fn blacked_out(&self, now: SimTime) -> bool {
        self.blackout_until.is_some_and(|t| now < t)
    }

    /// `true` when the WAN path to the site is up (no active partition).
    #[must_use]
    pub fn reachable(&self, now: SimTime) -> bool {
        self.partition_until.is_none_or(|t| now >= t)
    }

    /// The current latency multiplier (1.0 when healthy).
    #[must_use]
    pub fn latency_factor(&self, now: SimTime) -> f64 {
        if self.slow_until.is_some_and(|t| now < t) {
            self.slow_factor
        } else {
            1.0
        }
    }

    /// Predicted round-trip latency of a request sent now, milliseconds.
    #[must_use]
    pub fn latency_ms(&self, now: SimTime) -> f64 {
        self.base_latency_ms * self.latency_factor(now)
    }

    /// `true` when the site can actually process requests: not blacked
    /// out, rack serving, and not mid-recovery (restoring a checkpoint).
    #[must_use]
    pub fn serving(&self, now: SimTime) -> bool {
        !self.blacked_out(now) && !self.system.needs_recovery() && self.system.rack().any_serving()
    }

    /// GB of request work the site can absorb over the next `tick`.
    #[must_use]
    pub fn capacity_gb(&self, now: SimTime, tick: SimDuration) -> f64 {
        if !self.serving(now) {
            return 0.0;
        }
        let rack = self.system.rack();
        let per_hour = self
            .system
            .workload()
            .capacity_gb_per_hour(rack.active_vms(), rack.duty().fraction());
        per_hour * tick.as_hours().value()
    }

    /// The site's nameplate tick capacity: every VM slot busy at full
    /// duty. This is the *stale* capacity the router believes a site
    /// still has when it cannot observe it (dark or partitioned) — the
    /// router keeps sending, times out, and the circuit breaker, not
    /// remote omniscience, is what stops the futile traffic.
    #[must_use]
    pub fn nominal_capacity_gb(&self, tick: SimDuration) -> f64 {
        let per_hour = self
            .system
            .workload()
            .capacity_gb_per_hour(self.system.rack().total_vm_slots(), 1.0);
        per_hour * tick.as_hours().value()
    }

    /// Energy-surplus score the router ranks by: a blend of mean battery
    /// state of charge and instantaneous solar generation (normalized by
    /// the site's own peak). Higher = more renewable headroom.
    #[must_use]
    pub fn surplus_score(&self, now: SimTime) -> f64 {
        let units = self.system.units();
        let mean_soc = if units.is_empty() {
            0.0
        } else {
            units.iter().map(|u| u.soc().value()).sum::<f64>() / units.len() as f64
        };
        let solar_now = self.solar.power_at(now).value();
        0.7 * mean_soc + 0.3 * (solar_now / self.solar_peak_w).clamp(0.0, 1.0)
    }

    /// Instantaneous electrical draw of the site's rack, watts — the
    /// basis of misrouted-energy accounting for wasted attempts.
    #[must_use]
    pub fn power_draw_w(&self) -> f64 {
        self.system
            .rack()
            .power_demand(self.system.workload().utilization())
            .value()
    }

    /// Energy a request of `gb` costs at this site right now,
    /// watt-hours; zero when the site has no capacity.
    #[must_use]
    pub fn energy_per_gb_wh(&self, now: SimTime, tick: SimDuration) -> f64 {
        let cap = self.capacity_gb(now, tick);
        if cap <= 0.0 {
            return 0.0;
        }
        let per_hour = cap / tick.as_hours().value();
        self.power_draw_w() / per_hour
    }

    /// Records one routing tick for availability accounting.
    pub fn record_tick(&mut self, routable: bool) {
        self.total_ticks += 1;
        if routable {
            self.routable_ticks += 1;
        }
    }

    /// Fraction of routing ticks this site was routable (reachable and
    /// serving), in `[0, 1]`; 1.0 before any tick is recorded.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.total_ticks == 0 {
            1.0
        } else {
            self.routable_ticks as f64 / self.total_ticks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_core::controller::InsureController;
    use ins_solar::trace::high_generation_day;

    fn site(seed: u64) -> Site {
        let solar = high_generation_day(seed);
        let system = InSituSystem::builder(solar.clone(), Box::new(InsureController::default()))
            .unit_count(3)
            .time_step(SimDuration::from_secs(30))
            .build();
        Site::new(SiteId(0), system, solar, BreakerPolicy::standard(), 40.0)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn blackout_window_gates_serving_and_extends() {
        let mut s = site(3);
        s.advance_to(t(8 * 3600)); // mid-morning: rack is up
        let now = s.system().now();
        assert!(s.serving(now), "site should serve mid-morning");
        s.begin_blackout(now, SimDuration::from_minutes(30));
        assert!(s.blacked_out(now));
        assert!(!s.serving(now));
        // Overlap extends to the later expiry.
        s.begin_blackout(now, SimDuration::from_minutes(10));
        assert!(s.blacked_out(now + SimDuration::from_minutes(29)));
        assert!(!s.blacked_out(now + SimDuration::from_minutes(30)));
    }

    #[test]
    fn partition_blocks_reachability_but_not_serving() {
        let mut s = site(4);
        s.advance_to(t(8 * 3600));
        let now = s.system().now();
        s.begin_partition(now, SimDuration::from_minutes(20));
        assert!(!s.reachable(now));
        assert!(s.serving(now), "a partitioned site keeps running locally");
        assert!(s.reachable(now + SimDuration::from_minutes(20)));
    }

    #[test]
    fn slowdown_multiplies_latency_and_keeps_the_worse_factor() {
        let mut s = site(5);
        let now = t(0);
        assert!((s.latency_ms(now) - 40.0).abs() < 1e-9);
        s.begin_slowdown(now, 4.0, SimDuration::from_minutes(10));
        s.begin_slowdown(now, 2.0, SimDuration::from_minutes(30));
        assert!((s.latency_ms(now) - 160.0).abs() < 1e-9);
        let later = now + SimDuration::from_minutes(30);
        assert!((s.latency_ms(later) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_follows_the_rack_and_availability_counts_ticks() {
        let mut s = site(6);
        s.advance_to(t(10 * 3600));
        let now = s.system().now();
        let cap = s.capacity_gb(now, SimDuration::from_minutes(1));
        assert!(cap > 0.0, "mid-morning capacity must be positive");
        s.record_tick(true);
        s.record_tick(false);
        assert!((s.availability() - 0.5).abs() < 1e-9);
        let score = s.surplus_score(now);
        assert!((0.0..=1.0).contains(&score));
        assert!(s.energy_per_gb_wh(now, SimDuration::from_minutes(1)) > 0.0);
    }
}
