//! The fleet: N sites, one router, one seeded fault process.
//!
//! [`Fleet`] builds every site from a child RNG stream forked off the
//! fleet seed by site ID, runs all of them on a shared clock with a
//! routing tick on top of each site's finer physics step, drains a
//! fleet-level [`FaultSchedule`] (blackouts, partitions, routing flaps,
//! slow sites — drawn on their own fork so single-site schedules stay
//! byte-identical), and hands each tick's requests to the [`Router`].
//!
//! A fleet run is a pure function of its [`FleetConfig`]: no wall
//! clock, no OS randomness, no iteration-order dependence — which is
//! what lets the `fleet_resilience` experiment promise byte-identical
//! JSON at any `--threads` value.

use ins_core::controller::InsureController;
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_sim::fault::{FaultKind, FaultSchedule};
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;
use ins_workload::checkpoint::CheckpointPolicy;

use crate::breaker::BreakerPolicy;
use crate::metrics::FleetMetrics;
use crate::router::{Router, RouterPolicy};
use crate::site::{Site, SiteId};

/// Everything that determines a fleet trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Fleet seed; each site forks a child stream keyed by its ID.
    pub seed: u64,
    /// Number of sites.
    pub sites: usize,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Routing tick (request placement cadence).
    pub tick: SimDuration,
    /// Physics step inside each site.
    pub site_time_step: SimDuration,
    /// Battery units per site.
    pub units_per_site: usize,
    /// Per-site circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Router thresholds and per-tick demand.
    pub router: RouterPolicy,
    /// Mean inter-arrival of fleet-level faults; `None` disables them.
    pub fleet_fault_mean: Option<SimDuration>,
    /// Checkpoint policy installed at every site; `None` disables
    /// checkpointing (blackout recovery then replays from the epoch).
    pub checkpoints: Option<CheckpointPolicy>,
}

impl FleetConfig {
    /// The default one-day fleet: 1-minute routing ticks over 30-second
    /// site physics, 3 battery units and hourly checkpoints per site,
    /// the standard breaker, prototype demand, and fleet faults off.
    #[must_use]
    pub fn new(seed: u64, sites: usize) -> Self {
        Self {
            seed,
            sites,
            horizon: SimDuration::from_hours(24),
            tick: SimDuration::from_minutes(1),
            site_time_step: SimDuration::from_secs(30),
            units_per_site: 3,
            breaker: BreakerPolicy::standard(),
            router: RouterPolicy::prototype(),
            fleet_fault_mean: None,
            checkpoints: Some(CheckpointPolicy::prototype()),
        }
    }

    /// The same fleet with stochastic fleet-level faults at the given
    /// mean inter-arrival.
    #[must_use]
    pub fn with_fleet_faults(mut self, mean: SimDuration) -> Self {
        self.fleet_fault_mean = Some(mean);
        self
    }

    /// The fleet-level fault schedule this configuration implies.
    #[must_use]
    pub fn fault_schedule(&self) -> FaultSchedule {
        match self.fleet_fault_mean {
            Some(mean) => {
                FaultSchedule::stochastic_fleet(self.seed, self.horizon, mean, self.sites)
            }
            None => FaultSchedule::empty(),
        }
    }
}

/// N federated sites behind one fault-tolerant router.
#[derive(Debug)]
pub struct Fleet {
    sites: Vec<Site>,
    config: FleetConfig,
    schedule: FaultSchedule,
    router: Router,
    flap_until: Option<SimTime>,
    now: SimTime,
    tick_index: u64,
    fleet_faults: u64,
}

impl Fleet {
    /// Builds the fleet. Site `i` gets its own solar year, battery bank
    /// and physics, all derived from `fork_seed("site-{i}")` — adding a
    /// site never perturbs existing ones — plus a deterministic WAN
    /// latency from its index.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let fleet_rng = SimRng::seed(config.seed);
        let sites = (0..config.sites)
            .map(|i| {
                let site_seed = fleet_rng.fork_seed(&format!("site-{i}"));
                let solar = high_generation_day(site_seed);
                let mut builder =
                    InSituSystem::builder(solar.clone(), Box::new(InsureController::default()))
                        .unit_count(config.units_per_site)
                        .workload(WorkloadModel::video())
                        .time_step(config.site_time_step);
                if let Some(policy) = config.checkpoints {
                    builder = builder.checkpoints(policy);
                }
                Site::new(
                    SiteId(i),
                    builder.build(),
                    solar,
                    config.breaker,
                    40.0 + 15.0 * i as f64,
                )
            })
            .collect();
        Self {
            sites,
            router: Router::new(config.router),
            schedule: config.fault_schedule(),
            config,
            flap_until: None,
            now: SimTime::from_secs(0),
            tick_index: 0,
            fleet_faults: 0,
        }
    }

    /// The fleet's configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current simulated time (routing-tick granularity).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The sites, indexed by [`SiteId`].
    #[must_use]
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// The router and its counters.
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Applies one fleet-level fault immediately — the chaos-harness
    /// entry point mirroring `InSituSystem::inject_fault`. Single-site
    /// kinds are ignored here (inject those into a site's system).
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let now = self.now;
        self.apply_fleet_fault(now, kind);
    }

    fn apply_fleet_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::SiteBlackout { site, duration } => {
                if let Some(s) = self.sites.get_mut(site) {
                    s.begin_blackout(now, duration);
                    self.fleet_faults += 1;
                }
            }
            FaultKind::WanPartition { site, duration } => {
                if let Some(s) = self.sites.get_mut(site) {
                    s.begin_partition(now, duration);
                    self.fleet_faults += 1;
                }
            }
            FaultKind::SlowSite {
                site,
                factor,
                duration,
            } => {
                if let Some(s) = self.sites.get_mut(site) {
                    s.begin_slowdown(now, factor, duration);
                    self.fleet_faults += 1;
                }
            }
            FaultKind::RoutingFlap { duration } => {
                let until = now + duration;
                self.flap_until = Some(match self.flap_until {
                    Some(t) if t > until => t,
                    _ => until,
                });
                self.fleet_faults += 1;
            }
            _ => {}
        }
    }

    /// `true` while a routing-flap window is active.
    #[must_use]
    pub fn routing_flap_active(&self) -> bool {
        self.flap_until.is_some_and(|t| self.now < t)
    }

    /// Advances one routing tick: drain due fleet faults, advance every
    /// site's physics to the tick boundary, then place the tick's
    /// requests.
    pub fn step_tick(&mut self) {
        let now = self.now;
        while let Some(event) = self.schedule.pop_due(now) {
            self.apply_fleet_fault(now, event.kind);
        }
        let end = now + self.config.tick;
        for site in &mut self.sites {
            site.advance_to(end);
        }
        let flap = self.flap_until.is_some_and(|t| end < t);
        self.router.route_tick(
            end,
            self.config.tick,
            &mut self.sites,
            flap,
            self.tick_index,
        );
        self.now = end;
        self.tick_index += 1;
    }

    /// Runs routing ticks until the configured horizon.
    pub fn run_to_horizon(&mut self) {
        let horizon = SimTime::from_secs(0) + self.config.horizon;
        while self.now < horizon {
            self.step_tick();
        }
    }

    /// The run's metric bundle (router counters + per-site aggregates).
    #[must_use]
    pub fn metrics(&self) -> FleetMetrics {
        FleetMetrics {
            stream: self.router.stream,
            batch: self.router.batch,
            retries: self.router.retries,
            hedges: self.router.hedges,
            duplicate_serves: self.router.duplicate_serves,
            misrouted_wh: self.router.misrouted_wh,
            fleet_faults: self.fleet_faults,
            site_availability: self.sites.iter().map(Site::availability).collect(),
            breaker_trips: self.sites.iter().map(|s| s.breaker().trips()).sum(),
            breaker_resets: self.sites.iter().map(|s| s.breaker().resets()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config(seed: u64, sites: usize) -> FleetConfig {
        let mut c = FleetConfig::new(seed, sites);
        c.horizon = SimDuration::from_hours(6);
        c
    }

    #[test]
    fn fault_free_day_serves_streams_with_no_drops() {
        // Full 24 h day: in-situ sites only serve while solar (plus
        // battery ride-through) carries them, roughly 07:30–19:00, so
        // whole-day goodput lands near the daylight fraction.
        let mut fleet = Fleet::new(FleetConfig::new(11, 3));
        fleet.run_to_horizon();
        let m = fleet.metrics();
        assert!(m.all_requests_resolved(), "zero silent drops");
        assert!(
            m.stream.goodput_fraction() > 0.4,
            "a healthy 3-site fleet must serve the daylight hours in full, got {}",
            m.stream.goodput_fraction()
        );
        assert!(
            m.stream.served > 4_000,
            "daytime streams must be served in full, got {}",
            m.stream.served
        );
        assert_eq!(m.fleet_faults, 0);
    }

    #[test]
    fn fleet_trajectory_is_deterministic_in_seed() {
        let run = |seed| {
            let mut fleet =
                Fleet::new(quick_config(seed, 2).with_fleet_faults(SimDuration::from_hours(1)));
            fleet.run_to_horizon();
            fleet.metrics()
        };
        assert_eq!(run(7), run(7), "same seed, same trajectory");
        assert_ne!(run(7), run(8), "different seed, different faults");
    }

    #[test]
    fn adding_a_site_does_not_perturb_existing_sites() {
        // Per-site RNG forks: site 0's solar world is keyed by
        // (seed, "site-0") alone, so a 2-site and a 3-site fleet give it
        // identical physics inputs. Step both through the day and compare
        // the solar sample site 0 records on every tick.
        let mut small = Fleet::new(FleetConfig::new(5, 2));
        let mut large = Fleet::new(FleetConfig::new(5, 3));
        let solar = |fleet: &Fleet| fleet.sites()[0].system().trace_solar().last();
        let horizon = SimTime::from_secs(0) + small.config().horizon;
        let mut sunlit_ticks = 0;
        while small.now() < horizon {
            small.step_tick();
            large.step_tick();
            let sample = solar(&small).expect("a stepped site records solar");
            assert_eq!(
                Some(sample),
                solar(&large),
                "site 0's solar at {:?}",
                sample.time
            );
            sunlit_ticks += usize::from(sample.value > 0.0);
        }
        assert!(sunlit_ticks > 0, "the day must have sun to compare");
    }

    #[test]
    fn injected_blackout_is_counted_and_degrades_that_site() {
        let mut fleet = Fleet::new(quick_config(9, 2));
        // Warm up to mid-morning, then take site 0 down for an hour.
        for _ in 0..(9 * 60) {
            fleet.step_tick();
        }
        fleet.inject_fault(FaultKind::SiteBlackout {
            site: 0,
            duration: SimDuration::from_hours(1),
        });
        for _ in 0..60 {
            fleet.step_tick();
        }
        let m = fleet.metrics();
        assert_eq!(m.fleet_faults, 1);
        assert!(m.all_requests_resolved());
        assert!(
            m.site_availability[0] < m.site_availability[1],
            "the blacked-out site must show lower availability"
        );
    }

    #[test]
    fn routing_flap_window_tracks_and_expires() {
        let mut fleet = Fleet::new(quick_config(3, 2));
        fleet.inject_fault(FaultKind::RoutingFlap {
            duration: SimDuration::from_minutes(5),
        });
        assert!(fleet.routing_flap_active());
        for _ in 0..6 {
            fleet.step_tick();
        }
        assert!(!fleet.routing_flap_active());
    }

    #[test]
    fn out_of_range_site_faults_are_ignored() {
        let mut fleet = Fleet::new(quick_config(4, 2));
        fleet.inject_fault(FaultKind::SiteBlackout {
            site: 99,
            duration: SimDuration::from_hours(1),
        });
        assert_eq!(fleet.metrics().fleet_faults, 0);
    }
}
