//! Seeded, deterministic fault injection.
//!
//! The ISCA'15 prototype is an unattended in-situ system: "in-situ server
//! systems are often deployed in remote areas" where "maintenance is
//! costly and infrequent" (§1–2). A sustainable design therefore has to
//! *degrade*, not collapse, when batteries age out, relays weld, sensors
//! drift, or servers crash. This module provides the vocabulary for those
//! events ([`FaultKind`]) and a reproducible arrival process
//! ([`FaultSchedule`]) so that every fault experiment is bit-replayable:
//! the same seed always yields the same faults at the same simulated
//! instants.
//!
//! The schedule is pure data — it never touches the component being
//! broken. The system layer drains it with [`FaultSchedule::pop_due`]
//! each step and applies the events to the battery array, switch matrix,
//! charge controller, telemetry path, or server rack.
//!
//! # Examples
//!
//! ```
//! use ins_sim::fault::{FaultKind, FaultSchedule, FaultTargets};
//! use ins_sim::time::{SimDuration, SimTime};
//!
//! let mut schedule = FaultSchedule::stochastic(
//!     42,
//!     SimDuration::from_days(1),
//!     SimDuration::from_hours(4),
//!     FaultTargets { units: 3, servers: 4 },
//! );
//! let total = schedule.len();
//! let early = schedule.due(SimTime::from_hms(12, 0, 0)).len();
//! assert!(early <= total);
//! // Same seed, same shape: the process is deterministic.
//! let again = FaultSchedule::stochastic(
//!     42,
//!     SimDuration::from_days(1),
//!     SimDuration::from_hours(4),
//!     FaultTargets { units: 3, servers: 4 },
//! );
//! assert_eq!(again.events(), schedule.events());
//! ```

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Which relay of a unit's break-before-make pair a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelayRole {
    /// The relay tying the unit to the charge bus.
    Charge,
    /// The relay tying the unit to the discharge bus.
    Discharge,
}

/// One injectable fault, with its severity parameters.
///
/// Unit and server targets are plain indices so the simulation kernel
/// stays independent of the battery/cluster crates; the system layer maps
/// them onto its own identifiers (and ignores out-of-range targets).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A battery unit's internal connection breaks: it can neither source
    /// nor sink current and its terminals read dead.
    BatteryOpenCircuit {
        /// Index of the affected unit.
        unit: usize,
    },
    /// Sudden capacity fade (e.g. sulfation, cell short): usable capacity
    /// drops to `fraction` of its current value.
    BatteryCapacityFade {
        /// Index of the affected unit.
        unit: usize,
        /// Remaining fraction of capacity, in `(0, 1]`.
        fraction: f64,
    },
    /// Elevated internal resistance (corroded terminals, dry-out):
    /// both charge and discharge resistance multiply by `factor`.
    BatteryHighResistance {
        /// Index of the affected unit.
        unit: usize,
        /// Resistance multiplier, `>= 1`.
        factor: f64,
    },
    /// A matrix relay fails stuck-open: it can no longer close, so the
    /// unit cannot reach that bus.
    RelayStuckOpen {
        /// Index of the affected unit.
        unit: usize,
        /// Which relay of the pair failed.
        role: RelayRole,
    },
    /// A matrix relay welds stuck-closed: it can no longer open, pinning
    /// the unit to that bus.
    RelayStuckClosed {
        /// Index of the affected unit.
        unit: usize,
        /// Which relay of the pair failed.
        role: RelayRole,
    },
    /// The charge controller drops out (MPPT brown-out, firmware hang):
    /// no charge current flows for the given duration.
    ChargerDropout {
        /// How long charging is unavailable.
        duration: SimDuration,
    },
    /// The solar irradiance sensor goes noisy: the controller's view of
    /// generation gets zero-mean Gaussian noise of relative magnitude
    /// `sigma` for the given duration. Physics is unaffected.
    SensorNoise {
        /// Relative standard deviation of the observed solar power.
        sigma: f64,
        /// How long the sensor stays noisy.
        duration: SimDuration,
    },
    /// A unit's telemetry channel freezes: the controller keeps seeing the
    /// last reading (with an advancing age stamp) for the duration.
    StaleTelemetry {
        /// Index of the affected unit.
        unit: usize,
        /// How long the channel stays frozen.
        duration: SimDuration,
    },
    /// A server crashes hard: it drops off the bus immediately, losing any
    /// un-checkpointed VM state, and needs a cool-down before restart.
    ServerCrash {
        /// Index of the affected server.
        server: usize,
    },
    /// The server's checkpoint path fails (full/corrupt stable storage):
    /// orderly shutdowns can no longer save state for the duration.
    CheckpointWriteFailure {
        /// Index of the affected server.
        server: usize,
        /// How long checkpoint writes keep failing.
        duration: SimDuration,
    },
    /// Silent corruption of the last *durable* job checkpoint (bit rot,
    /// bad sector): recovery detects the bad checksum on restore and must
    /// fall back to an earlier consistent state.
    CheckpointCorruption {
        /// Index of the server whose stable storage rotted.
        server: usize,
    },
    /// A checkpoint write is severed mid-flight (power glitch on the
    /// storage path): the in-progress artifact is *torn* and must never
    /// be restored.
    TornWrite {
        /// Index of the server whose write was severed.
        server: usize,
    },
    /// A restart storm: for its duration every job-restore attempt fails
    /// (thundering-herd I/O, DHCP/PXE flaps), driving the capped
    /// exponential restart backoff and, eventually, poison-job quarantine.
    RestartStorm {
        /// How long restore attempts keep failing.
        duration: SimDuration,
    },
    /// Fleet level: an entire site goes dark (microgrid collapse, storm
    /// damage) — its servers crash-stop and it serves nothing until the
    /// window expires.
    SiteBlackout {
        /// Index of the affected site.
        site: usize,
        /// How long the site stays dark.
        duration: SimDuration,
    },
    /// Fleet level: the WAN link to a site partitions — the site keeps
    /// running locally but is unreachable from the router; requests sent
    /// there time out.
    WanPartition {
        /// Index of the unreachable site.
        site: usize,
        /// How long the partition lasts.
        duration: SimDuration,
    },
    /// Fleet level: the router's health/surplus signal flaps (stale
    /// gossip, metric-pipeline outage) — site rankings churn instead of
    /// tracking energy surplus for the duration.
    RoutingFlap {
        /// How long the routing signal stays unreliable.
        duration: SimDuration,
    },
    /// Fleet level: a site slows down (thermal throttling, degraded
    /// uplink) — its response latency multiplies by `factor`, tripping
    /// deadlines and hedges without taking the site fully down.
    SlowSite {
        /// Index of the slowed site.
        site: usize,
        /// Latency multiplier, `>= 1`.
        factor: f64,
        /// How long the slowdown lasts.
        duration: SimDuration,
    },
}

/// Field-less discriminant of a [`FaultKind`], for event logs and tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// [`FaultKind::BatteryOpenCircuit`].
    BatteryOpenCircuit,
    /// [`FaultKind::BatteryCapacityFade`].
    BatteryCapacityFade,
    /// [`FaultKind::BatteryHighResistance`].
    BatteryHighResistance,
    /// [`FaultKind::RelayStuckOpen`].
    RelayStuckOpen,
    /// [`FaultKind::RelayStuckClosed`].
    RelayStuckClosed,
    /// [`FaultKind::ChargerDropout`].
    ChargerDropout,
    /// [`FaultKind::SensorNoise`].
    SensorNoise,
    /// [`FaultKind::StaleTelemetry`].
    StaleTelemetry,
    /// [`FaultKind::ServerCrash`].
    ServerCrash,
    /// [`FaultKind::CheckpointWriteFailure`].
    CheckpointWriteFailure,
    /// [`FaultKind::CheckpointCorruption`].
    CheckpointCorruption,
    /// [`FaultKind::TornWrite`].
    TornWrite,
    /// [`FaultKind::RestartStorm`].
    RestartStorm,
    /// [`FaultKind::SiteBlackout`].
    SiteBlackout,
    /// [`FaultKind::WanPartition`].
    WanPartition,
    /// [`FaultKind::RoutingFlap`].
    RoutingFlap,
    /// [`FaultKind::SlowSite`].
    SlowSite,
}

impl FaultKind {
    /// The field-less class of this fault.
    #[must_use]
    pub fn class(&self) -> FaultClass {
        match self {
            FaultKind::BatteryOpenCircuit { .. } => FaultClass::BatteryOpenCircuit,
            FaultKind::BatteryCapacityFade { .. } => FaultClass::BatteryCapacityFade,
            FaultKind::BatteryHighResistance { .. } => FaultClass::BatteryHighResistance,
            FaultKind::RelayStuckOpen { .. } => FaultClass::RelayStuckOpen,
            FaultKind::RelayStuckClosed { .. } => FaultClass::RelayStuckClosed,
            FaultKind::ChargerDropout { .. } => FaultClass::ChargerDropout,
            FaultKind::SensorNoise { .. } => FaultClass::SensorNoise,
            FaultKind::StaleTelemetry { .. } => FaultClass::StaleTelemetry,
            FaultKind::ServerCrash { .. } => FaultClass::ServerCrash,
            FaultKind::CheckpointWriteFailure { .. } => FaultClass::CheckpointWriteFailure,
            FaultKind::CheckpointCorruption { .. } => FaultClass::CheckpointCorruption,
            FaultKind::TornWrite { .. } => FaultClass::TornWrite,
            FaultKind::RestartStorm { .. } => FaultClass::RestartStorm,
            FaultKind::SiteBlackout { .. } => FaultClass::SiteBlackout,
            FaultKind::WanPartition { .. } => FaultClass::WanPartition,
            FaultKind::RoutingFlap { .. } => FaultClass::RoutingFlap,
            FaultKind::SlowSite { .. } => FaultClass::SlowSite,
        }
    }

    /// `true` for the fleet-level kinds ([`FaultKind::SiteBlackout`],
    /// [`FaultKind::WanPartition`], [`FaultKind::RoutingFlap`],
    /// [`FaultKind::SlowSite`]). These are applied by the fleet layer
    /// (`ins-fleet`); a single-site system ignores them entirely.
    #[must_use]
    pub fn is_fleet_level(&self) -> bool {
        matches!(
            self,
            FaultKind::SiteBlackout { .. }
                | FaultKind::WanPartition { .. }
                | FaultKind::RoutingFlap { .. }
                | FaultKind::SlowSite { .. }
        )
    }
}

impl FaultClass {
    /// Short human-readable name, for tables and logs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::BatteryOpenCircuit => "battery-open-circuit",
            FaultClass::BatteryCapacityFade => "battery-capacity-fade",
            FaultClass::BatteryHighResistance => "battery-high-resistance",
            FaultClass::RelayStuckOpen => "relay-stuck-open",
            FaultClass::RelayStuckClosed => "relay-stuck-closed",
            FaultClass::ChargerDropout => "charger-dropout",
            FaultClass::SensorNoise => "sensor-noise",
            FaultClass::StaleTelemetry => "stale-telemetry",
            FaultClass::ServerCrash => "server-crash",
            FaultClass::CheckpointWriteFailure => "checkpoint-write-failure",
            FaultClass::CheckpointCorruption => "checkpoint-corruption",
            FaultClass::TornWrite => "torn-write",
            FaultClass::RestartStorm => "restart-storm",
            FaultClass::SiteBlackout => "site-blackout",
            FaultClass::WanPartition => "wan-partition",
            FaultClass::RoutingFlap => "routing-flap",
            FaultClass::SlowSite => "slow-site",
        }
    }
}

/// One scheduled fault: a kind and the instant it strikes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated instant at which the fault is applied.
    pub at: SimTime,
    /// What breaks.
    pub kind: FaultKind,
}

/// Shape of the system the stochastic process draws targets from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTargets {
    /// Number of battery units (and relay pairs).
    pub units: usize,
    /// Number of servers in the rack.
    pub servers: usize,
}

/// A time-ordered, replayable sequence of fault events.
///
/// Construction is either explicit ([`FaultSchedule::from_events`], for
/// fixed scripted scenarios) or stochastic
/// ([`FaultSchedule::stochastic`], a Poisson-like arrival process driven
/// by [`SimRng`]). Either way the result is a sorted event list with a
/// drain cursor; the consumer calls [`FaultSchedule::pop_due`] each step
/// until it returns `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultSchedule {
    /// A schedule that never fires (seed 0, no events).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            seed: 0,
            events: Vec::new(),
            cursor: 0,
        }
    }

    /// A fixed scripted schedule. Events are stably sorted by time, so
    /// same-instant faults keep their authored order.
    #[must_use]
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        Self {
            seed,
            events,
            cursor: 0,
        }
    }

    /// Generates a stochastic schedule: exponential inter-arrival times
    /// with the given mean, each arrival drawing a fault kind and severity
    /// uniformly from what `targets` makes meaningful. Deterministic in
    /// `(seed, horizon, mean_interarrival, targets)`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    #[must_use]
    pub fn stochastic(
        seed: u64,
        horizon: SimDuration,
        mean_interarrival: SimDuration,
        targets: FaultTargets,
    ) -> Self {
        Self::arrivals(seed, horizon, mean_interarrival, "fault-arrivals", |rng| {
            draw_kind(rng, targets, 10)
        })
    }

    /// Like [`FaultSchedule::stochastic`], but drawing from the *extended*
    /// 13-class menu that adds the recovery-subsystem faults
    /// ([`FaultKind::CheckpointCorruption`], [`FaultKind::TornWrite`],
    /// [`FaultKind::RestartStorm`]).
    ///
    /// A separate constructor (rather than widening the legacy menu) keeps
    /// every `stochastic` stream byte-identical for a given seed: existing
    /// seed-pinned experiments replay unchanged, and recovery experiments
    /// opt into the richer process explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    #[must_use]
    pub fn stochastic_extended(
        seed: u64,
        horizon: SimDuration,
        mean_interarrival: SimDuration,
        targets: FaultTargets,
    ) -> Self {
        Self::arrivals(
            seed,
            horizon,
            mean_interarrival,
            "fault-arrivals-extended",
            |rng| draw_kind(rng, targets, 13),
        )
    }

    /// A stochastic schedule over the *fleet-level* menu only
    /// ([`FaultKind::SiteBlackout`], [`FaultKind::WanPartition`],
    /// [`FaultKind::RoutingFlap`], [`FaultKind::SlowSite`]), targeting
    /// `sites` sites. Deterministic in `(seed, horizon,
    /// mean_interarrival, sites)`.
    ///
    /// Drawn on its own fork label (`"fault-arrivals-fleet"`), so adding
    /// fleet faults to an experiment never perturbs the legacy
    /// [`FaultSchedule::stochastic`] / `stochastic_extended` streams —
    /// every seed-pinned single-site schedule replays byte-identically.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    #[must_use]
    pub fn stochastic_fleet(
        seed: u64,
        horizon: SimDuration,
        mean_interarrival: SimDuration,
        sites: usize,
    ) -> Self {
        Self::arrivals(
            seed,
            horizon,
            mean_interarrival,
            "fault-arrivals-fleet",
            |rng| draw_kind_fleet(rng, sites),
        )
    }

    /// The arrival process behind the stochastic constructors:
    /// exponential inter-arrival times on the `label` fork of `seed`, up
    /// to `horizon`. Each arrival draws its kind with `draw`, which
    /// returns `None` when the drawn class has nothing to target.
    ///
    /// # Panics
    ///
    /// Panics if `mean_interarrival` is zero.
    fn arrivals(
        seed: u64,
        horizon: SimDuration,
        mean_interarrival: SimDuration,
        label: &str,
        mut draw: impl FnMut(&mut SimRng) -> Option<FaultKind>,
    ) -> Self {
        assert!(
            !mean_interarrival.is_zero(),
            "mean inter-arrival time must be positive"
        );
        let mut rng = SimRng::seed(seed).fork(label);
        let mean_secs = mean_interarrival.as_secs() as f64;
        let horizon_secs = horizon.as_secs() as f64;
        let mut events = Vec::new();
        let mut t = 0.0_f64;
        loop {
            t += rng.exponential(mean_secs);
            if t >= horizon_secs {
                break;
            }
            let at = SimTime::from_secs(t as u64);
            if let Some(kind) = draw(&mut rng) {
                events.push(FaultEvent { at, kind });
            }
        }
        Self::from_events(seed, events)
    }

    /// The seed this schedule (and any derived noise stream) is keyed by.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Inserts an extra event, keeping the un-drained tail sorted.
    ///
    /// Events earlier than the drain cursor's current position fire on the
    /// very next [`FaultSchedule::due`] call rather than being lost.
    pub fn push(&mut self, event: FaultEvent) {
        let tail = &self.events[self.cursor..];
        let offset = tail.partition_point(|e| e.at <= event.at);
        self.events.insert(self.cursor + offset, event);
    }

    /// All events, in firing order (including already-drained ones).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Total number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule holds no events at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events not yet drained.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }

    /// Drains the earliest un-drained event if it is due at or before
    /// `now`.
    ///
    /// Call it until it returns `None`: successive drains with
    /// non-decreasing `now` yield each event exactly once, in time order.
    /// Each event comes out by value, so the caller may apply it to state
    /// that owns this schedule without copying the due set first, and a
    /// fault-free step costs one comparison.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let event = *self.events.get(self.cursor).filter(|e| e.at <= now)?;
        self.cursor += 1;
        Some(event)
    }

    /// Drains and returns every event due at or before `now`, as one
    /// slice borrowed from the schedule.
    ///
    /// Successive calls with non-decreasing `now` return each event exactly
    /// once, in time order.
    pub fn due(&mut self, now: SimTime) -> &[FaultEvent] {
        let start = self.cursor;
        let fired = self.events[start..].partition_point(|e| e.at <= now);
        self.cursor = start + fired;
        &self.events[start..self.cursor]
    }

    /// Arrival instant of the earliest un-drained event, if any.
    ///
    /// The snapshot planner uses this peek to find a grid cell's
    /// divergence point: until its first fault fires, a cell's trajectory
    /// is indistinguishable from the fault-free run of the same
    /// configuration.
    #[must_use]
    pub fn first_event_at(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Marks every event due at or before `now` as already delivered,
    /// without firing it.
    ///
    /// This is the fork-time counterpart of [`FaultSchedule::due`]: a run
    /// forked from a snapshot taken at instant `P` resumes with a step
    /// that starts at `P`, so everything the from-scratch run would have
    /// drained during earlier steps (events with `at <= P - dt`) must be
    /// skipped, never re-fired. The cursor only ever advances.
    pub fn expire_delivered(&mut self, now: SimTime) {
        let cut = self.events.partition_point(|e| e.at <= now);
        self.cursor = self.cursor.max(cut);
    }
}

/// Draws one single-site fault kind with severity parameters from the
/// first `classes` classes of the menu: 10 for the base process, 13 for
/// the extended one, whose three recovery classes come last. `None` when
/// `targets` offers nothing for the drawn class (e.g. a server fault with
/// no servers).
fn draw_kind(rng: &mut SimRng, targets: FaultTargets, classes: usize) -> Option<FaultKind> {
    // The layout is fixed so the stream never shifts: a draw always
    // consumes the same number of RNG values regardless of targets, drawn
    // class or menu length.
    let class = rng.next_index(classes);
    let unit = if targets.units > 0 {
        rng.next_index(targets.units)
    } else {
        0
    };
    let server = if targets.servers > 0 {
        rng.next_index(targets.servers)
    } else {
        0
    };
    let severity = rng.next_f64();
    let minutes = 5 + rng.next_index(56) as u64; // 5–60 min outages
    let duration = SimDuration::from_minutes(minutes);
    let role = if rng.chance(0.5) {
        RelayRole::Charge
    } else {
        RelayRole::Discharge
    };

    let needs_unit = matches!(class, 0..=4 | 7);
    let needs_server = matches!(class, 8..=11);
    if (needs_unit && targets.units == 0) || (needs_server && targets.servers == 0) {
        return None;
    }
    Some(match class {
        0 => FaultKind::BatteryOpenCircuit { unit },
        1 => FaultKind::BatteryCapacityFade {
            unit,
            // Keep 30–80 % of capacity: severe but not an open circuit.
            fraction: 0.3 + 0.5 * severity,
        },
        2 => FaultKind::BatteryHighResistance {
            unit,
            factor: 1.5 + 2.5 * severity,
        },
        3 => FaultKind::RelayStuckOpen { unit, role },
        4 => FaultKind::RelayStuckClosed { unit, role },
        5 => FaultKind::ChargerDropout { duration },
        6 => FaultKind::SensorNoise {
            sigma: 0.05 + 0.25 * severity,
            duration,
        },
        7 => FaultKind::StaleTelemetry { unit, duration },
        8 => FaultKind::ServerCrash { server },
        9 => FaultKind::CheckpointWriteFailure { server, duration },
        10 => FaultKind::CheckpointCorruption { server },
        11 => FaultKind::TornWrite { server },
        _ => FaultKind::RestartStorm { duration },
    })
}

/// The fleet-level draw: four WAN/site classes. Same fixed-layout
/// discipline as the single-site menus — a draw always consumes the same
/// number of RNG values regardless of the drawn class or site count.
fn draw_kind_fleet(rng: &mut SimRng, sites: usize) -> Option<FaultKind> {
    let class = rng.next_index(4);
    let site = if sites > 0 { rng.next_index(sites) } else { 0 };
    let severity = rng.next_f64();
    let minutes = 10 + rng.next_index(111) as u64; // 10–120 min windows
    let duration = SimDuration::from_minutes(minutes);

    let needs_site = matches!(class, 0..=1 | 3);
    if needs_site && sites == 0 {
        return None;
    }
    Some(match class {
        0 => FaultKind::SiteBlackout { site, duration },
        1 => FaultKind::WanPartition { site, duration },
        2 => FaultKind::RoutingFlap { duration },
        _ => FaultKind::SlowSite {
            site,
            // 2–8× latency: enough to blow deadlines, not a full outage.
            factor: 2.0 + 6.0 * severity,
            duration,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TARGETS: FaultTargets = FaultTargets {
        units: 3,
        servers: 4,
    };

    #[test]
    fn stochastic_is_deterministic_in_seed() {
        let a = FaultSchedule::stochastic(
            7,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        let b = FaultSchedule::stochastic(
            7,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        assert_eq!(a, b);
        assert!(!a.is_empty(), "2 days at 2 h mean should yield arrivals");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSchedule::stochastic(
            7,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        let b = FaultSchedule::stochastic(
            8,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn events_are_time_sorted_and_inside_horizon() {
        let s = FaultSchedule::stochastic(
            123,
            SimDuration::from_days(3),
            SimDuration::from_hours(1),
            TARGETS,
        );
        let horizon = SimTime::from_secs(SimDuration::from_days(3).as_secs());
        for pair in s.events().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in s.events() {
            assert!(e.at < horizon);
        }
    }

    #[test]
    fn targets_bound_indices() {
        let s = FaultSchedule::stochastic(
            99,
            SimDuration::from_days(10),
            SimDuration::from_hours(1),
            TARGETS,
        );
        for e in s.events() {
            match e.kind {
                FaultKind::BatteryOpenCircuit { unit }
                | FaultKind::BatteryCapacityFade { unit, .. }
                | FaultKind::BatteryHighResistance { unit, .. }
                | FaultKind::RelayStuckOpen { unit, .. }
                | FaultKind::RelayStuckClosed { unit, .. }
                | FaultKind::StaleTelemetry { unit, .. } => {
                    assert!(unit < TARGETS.units);
                }
                FaultKind::ServerCrash { server }
                | FaultKind::CheckpointWriteFailure { server, .. }
                | FaultKind::CheckpointCorruption { server }
                | FaultKind::TornWrite { server } => {
                    assert!(server < TARGETS.servers);
                }
                FaultKind::SiteBlackout { site, .. }
                | FaultKind::WanPartition { site, .. }
                | FaultKind::SlowSite { site, .. } => {
                    panic!("single-site menu drew fleet fault at site {site}");
                }
                FaultKind::ChargerDropout { .. }
                | FaultKind::SensorNoise { .. }
                | FaultKind::RestartStorm { .. }
                | FaultKind::RoutingFlap { .. } => {}
            }
        }
    }

    #[test]
    fn extended_menu_is_deterministic_and_adds_recovery_faults() {
        let mk = || {
            FaultSchedule::stochastic_extended(
                13,
                SimDuration::from_days(20),
                SimDuration::from_hours(1),
                TARGETS,
            )
        };
        let a = mk();
        assert_eq!(a, mk(), "extended process must be seed-deterministic");
        let has = |class: FaultClass| a.events().iter().any(|e| e.kind.class() == class);
        assert!(has(FaultClass::CheckpointCorruption));
        assert!(has(FaultClass::TornWrite));
        assert!(has(FaultClass::RestartStorm));
        // Index bounds hold for the new server-targeted classes too.
        for e in a.events() {
            if let FaultKind::CheckpointCorruption { server } | FaultKind::TornWrite { server } =
                e.kind
            {
                assert!(server < TARGETS.servers);
            }
        }
    }

    #[test]
    fn legacy_menu_never_emits_recovery_faults() {
        // The legacy constructor's stream layout is frozen: seed-pinned
        // experiments depend on it never drawing the extended classes.
        let s = FaultSchedule::stochastic(
            13,
            SimDuration::from_days(20),
            SimDuration::from_hours(1),
            TARGETS,
        );
        for e in s.events() {
            assert!(
                !matches!(
                    e.kind,
                    FaultKind::CheckpointCorruption { .. }
                        | FaultKind::TornWrite { .. }
                        | FaultKind::RestartStorm { .. }
                ),
                "legacy menu drew {:?}",
                e.kind
            );
        }
    }

    #[test]
    fn extended_zero_targets_never_produce_targeted_faults() {
        let s = FaultSchedule::stochastic_extended(
            5,
            SimDuration::from_days(20),
            SimDuration::from_hours(1),
            FaultTargets {
                units: 0,
                servers: 0,
            },
        );
        for e in s.events() {
            assert!(
                matches!(
                    e.kind,
                    FaultKind::ChargerDropout { .. }
                        | FaultKind::SensorNoise { .. }
                        | FaultKind::RestartStorm { .. }
                ),
                "untargetable fault {:?}",
                e.kind
            );
        }
    }

    #[test]
    fn zero_targets_never_produce_targeted_faults() {
        let s = FaultSchedule::stochastic(
            5,
            SimDuration::from_days(20),
            SimDuration::from_hours(1),
            FaultTargets {
                units: 0,
                servers: 0,
            },
        );
        for e in s.events() {
            assert!(
                matches!(
                    e.kind,
                    FaultKind::ChargerDropout { .. } | FaultKind::SensorNoise { .. }
                ),
                "untargetable fault {:?}",
                e.kind
            );
        }
    }

    #[test]
    fn due_drains_each_event_exactly_once() {
        let kind = FaultKind::ServerCrash { server: 0 };
        let mut s = FaultSchedule::from_events(
            1,
            vec![
                FaultEvent {
                    at: SimTime::from_secs(30),
                    kind,
                },
                FaultEvent {
                    at: SimTime::from_secs(10),
                    kind,
                },
                FaultEvent {
                    at: SimTime::from_secs(20),
                    kind,
                },
            ],
        );
        let mut drain = |now| {
            let now = SimTime::from_secs(now);
            std::iter::from_fn(|| s.pop_due(now))
                .map(|e| e.at.as_secs())
                .collect::<Vec<_>>()
        };
        assert_eq!(drain(5), Vec::<u64>::new());
        assert_eq!(drain(15), vec![10]);
        assert_eq!(drain(100), vec![20, 30]);
        assert_eq!(drain(200), Vec::<u64>::new());
        assert_eq!(s.remaining(), 0);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn push_keeps_tail_sorted() {
        let kind = FaultKind::ChargerDropout {
            duration: SimDuration::from_minutes(10),
        };
        let mut s = FaultSchedule::empty();
        s.push(FaultEvent {
            at: SimTime::from_secs(100),
            kind,
        });
        s.push(FaultEvent {
            at: SimTime::from_secs(50),
            kind,
        });
        s.push(FaultEvent {
            at: SimTime::from_secs(75),
            kind,
        });
        let ats: Vec<u64> = s.events().iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(ats, vec![50, 75, 100]);
    }

    #[test]
    fn class_labels_are_distinct() {
        let kinds = [
            FaultKind::BatteryOpenCircuit { unit: 0 },
            FaultKind::BatteryCapacityFade {
                unit: 0,
                fraction: 0.5,
            },
            FaultKind::BatteryHighResistance {
                unit: 0,
                factor: 2.0,
            },
            FaultKind::RelayStuckOpen {
                unit: 0,
                role: RelayRole::Charge,
            },
            FaultKind::RelayStuckClosed {
                unit: 0,
                role: RelayRole::Discharge,
            },
            FaultKind::ChargerDropout {
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::SensorNoise {
                sigma: 0.1,
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::StaleTelemetry {
                unit: 0,
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::ServerCrash { server: 0 },
            FaultKind::CheckpointWriteFailure {
                server: 0,
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::CheckpointCorruption { server: 0 },
            FaultKind::TornWrite { server: 0 },
            FaultKind::RestartStorm {
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::SiteBlackout {
                site: 0,
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::WanPartition {
                site: 0,
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::RoutingFlap {
                duration: SimDuration::from_minutes(1),
            },
            FaultKind::SlowSite {
                site: 0,
                factor: 2.0,
                duration: SimDuration::from_minutes(1),
            },
        ];
        let labels: Vec<&str> = kinds.iter().map(|k| k.class().label()).collect();
        let mut unique = labels.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn fleet_menu_is_deterministic_and_covers_all_four_classes() {
        let mk = || {
            FaultSchedule::stochastic_fleet(
                17,
                SimDuration::from_days(20),
                SimDuration::from_hours(1),
                4,
            )
        };
        let a = mk();
        assert_eq!(a, mk(), "fleet process must be seed-deterministic");
        let has = |class: FaultClass| a.events().iter().any(|e| e.kind.class() == class);
        assert!(has(FaultClass::SiteBlackout));
        assert!(has(FaultClass::WanPartition));
        assert!(has(FaultClass::RoutingFlap));
        assert!(has(FaultClass::SlowSite));
        for e in a.events() {
            assert!(e.kind.is_fleet_level(), "fleet menu drew {:?}", e.kind);
            match e.kind {
                FaultKind::SiteBlackout { site, .. }
                | FaultKind::WanPartition { site, .. }
                | FaultKind::SlowSite { site, .. } => assert!(site < 4),
                _ => {}
            }
        }
    }

    #[test]
    fn fleet_menu_leaves_legacy_streams_untouched() {
        // The fleet process draws on its own fork label: generating it
        // must not change what the single-site menus produce for the same
        // seed (seed-pinned experiments replay byte-identically).
        let legacy = FaultSchedule::stochastic(
            21,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        let _fleet = FaultSchedule::stochastic_fleet(
            21,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            4,
        );
        let again = FaultSchedule::stochastic(
            21,
            SimDuration::from_days(2),
            SimDuration::from_hours(2),
            TARGETS,
        );
        assert_eq!(legacy, again);
    }

    #[test]
    fn fleet_zero_sites_only_emits_routing_flaps() {
        let s = FaultSchedule::stochastic_fleet(
            5,
            SimDuration::from_days(20),
            SimDuration::from_hours(1),
            0,
        );
        for e in s.events() {
            assert!(
                matches!(e.kind, FaultKind::RoutingFlap { .. }),
                "untargetable fleet fault {:?}",
                e.kind
            );
        }
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn stochastic_streams_are_pinned() {
        // Seed-pinned experiments replay these streams: a change to the
        // arrival loop, a menu or a fork label moves a digest.
        let (days, hours) = (SimDuration::from_days, SimDuration::from_hours);
        let targets = |units, servers| FaultTargets { units, servers };
        let cases = [
            (7, days(2), hours(2), TARGETS, 4),
            (11, days(1), hours(1), TARGETS, 4),
            (13, days(20), hours(1), targets(1, 2), 2),
            (5, days(20), hours(1), targets(0, 0), 0),
        ];
        let digests: Vec<u64> = cases
            .iter()
            .flat_map(|&(seed, horizon, mean, targets, sites)| {
                [
                    FaultSchedule::stochastic(seed, horizon, mean, targets),
                    FaultSchedule::stochastic_extended(seed, horizon, mean, targets),
                    FaultSchedule::stochastic_fleet(seed, horizon, mean, sites),
                ]
                .map(|s| fnv1a(&format!("{s:?}")))
            })
            .collect();
        assert_eq!(
            digests,
            [
                0x44c6_52c0_6a61_9749,
                0x1597_c1f6_4d01_dffd,
                0xb8ba_46f2_9ade_05cc,
                0x8e1b_aedb_9ade_362c,
                0xa664_ab74_ce30_54a4,
                0x79dd_1f6f_06c5_9976,
                0x7f5b_0067_8392_12c1,
                0x4d7c_1991_4039_8920,
                0xa1e1_9c80_4822_adad,
                0xdb1e_558e_4c25_f991,
                0x826c_2c61_35eb_1153,
                0x6397_29f6_fe38_e09a,
            ]
        );
    }

    #[test]
    #[should_panic(expected = "mean inter-arrival time must be positive")]
    fn stochastic_rejects_zero_mean() {
        let _ = FaultSchedule::stochastic(
            0,
            SimDuration::from_days(1),
            SimDuration::from_secs(0),
            TARGETS,
        );
    }

    #[test]
    fn first_event_at_peeks_the_undrained_head() {
        let mut s = FaultSchedule::from_events(
            3,
            vec![
                FaultEvent {
                    at: SimTime::from_secs(10),
                    kind: FaultKind::ChargerDropout {
                        duration: SimDuration::from_secs(5),
                    },
                },
                FaultEvent {
                    at: SimTime::from_secs(20),
                    kind: FaultKind::ChargerDropout {
                        duration: SimDuration::from_secs(5),
                    },
                },
            ],
        );
        assert_eq!(s.first_event_at(), Some(SimTime::from_secs(10)));
        let _ = s.due(SimTime::from_secs(10));
        assert_eq!(s.first_event_at(), Some(SimTime::from_secs(20)));
        let _ = s.due(SimTime::from_secs(20));
        assert_eq!(s.first_event_at(), None);
        assert_eq!(FaultSchedule::empty().first_event_at(), None);
    }

    #[test]
    fn expire_delivered_skips_without_firing_and_never_rewinds() {
        let ev = |secs| FaultEvent {
            at: SimTime::from_secs(secs),
            kind: FaultKind::ChargerDropout {
                duration: SimDuration::from_secs(5),
            },
        };
        let mut s = FaultSchedule::from_events(3, vec![ev(10), ev(20), ev(30)]);
        s.expire_delivered(SimTime::from_secs(20));
        // Events at 10 and 20 are spent; only the 30 s event can fire.
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.first_event_at(), Some(SimTime::from_secs(30)));
        let fired: Vec<SimTime> = s.due(SimTime::from_secs(60)).iter().map(|e| e.at).collect();
        assert_eq!(fired, vec![SimTime::from_secs(30)]);
        // Expiring behind the cursor is a no-op, not a rewind.
        s.expire_delivered(SimTime::from_secs(0));
        assert_eq!(s.remaining(), 0);
    }
}
