//! `fleet_day`: the default fleet grid point (4 sites, fleet faults every
//! 2 h on average, standard breaker) over its one-day horizon, repeated
//! over seeds derived from the benchmark seed. Closed loop, one thread:
//! each `Fleet::step_tick` is one tick.
//!
//! The only workload that runs the router, circuit breakers, retries and
//! hedging; it multiplexes several small sites at a 30 s step.

use std::time::Instant;

use ins_core::controller::{InsureController, PowerController};
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_fleet::{Fleet, FleetConfig, FleetMetrics, Router, Site, SiteId};
use ins_sim::fault::FaultKind;
use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::trace::high_generation_day;
use ins_solar::SolarTrace;

use super::{end_to_end, measure, time_setup, Opts, Rep};
use crate::gen::{self, FLEET_FAULT_MEAN_HOURS, FLEET_SEEDS, FLEET_SITES};
use crate::host::thread_cpu_ns;
use crate::probes::{layer_metrics, ControlStats, LayerTimes, PlantTrace, Shape, TimedController};
use crate::report::{Check, Digest, Metric, Outcome};
use crate::spans::Spans;
use crate::stats;

/// The fleet configurations one repetition runs.
#[must_use]
pub fn configs(seed: u64) -> Vec<FleetConfig> {
    gen::derived_seeds(seed, "fleet", FLEET_SEEDS)
        .into_iter()
        .map(|s| {
            FleetConfig::new(s, FLEET_SITES)
                .with_fleet_faults(SimDuration::from_hours(FLEET_FAULT_MEAN_HOURS))
        })
        .collect()
}

fn horizon(config: &FleetConfig) -> SimTime {
    SimTime::from_secs(0) + config.horizon
}

fn check(metrics: &FleetMetrics) -> Vec<String> {
    if metrics.all_requests_resolved() {
        Vec::new()
    } else {
        vec![format!("unresolved requests: {metrics:?}")]
    }
}

fn refused(m: &FleetMetrics) -> (u64, u64) {
    (
        m.stream.offered + m.batch.offered,
        m.stream.shed + m.stream.failed + m.batch.shed + m.batch.failed,
    )
}

/// Runs every configuration through `Fleet::step_tick`, timing each tick.
fn rep(configs: &[FleetConfig]) -> (Rep, Vec<FleetMetrics>) {
    let mut out = Rep::default();
    let mut all = Vec::new();
    let mut d = Digest::default();
    for config in configs {
        let mut fleet = Fleet::new(config.clone());
        let end = horizon(config);
        while fleet.now() < end {
            let t = Instant::now();
            fleet.step_tick();
            out.ticks_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        let metrics = fleet.metrics();
        d.line(&format!("{metrics:?}"));
        out.failures.extend(check(&metrics));
        let (offered, refused) = refused(&metrics);
        out.offered += offered;
        out.refused += refused;
        out.attempted += 1;
        out.sim_days += (config.sites as u64 * config.horizon.as_secs()) as f64 / 86_400.0;
        all.push(metrics);
    }
    out.failed = u64::from(!out.failures.is_empty());
    out.digest = d.value();
    (out, all)
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let (setup_s, configs) = time_setup(|| {
        let configs = configs(opts.seed);
        // Each fleet, one at a time as a repetition holds them, so the
        // set-up never holds more than the workload does.
        for config in &configs {
            std::hint::black_box(Fleet::new(config.clone()));
        }
        configs
    });
    let measured = measure(opts.seconds, 3, true, || rep(&configs).0);
    end_to_end("fleet_day", setup_s, &measured)
}

/// Site `i`'s plant and solar trace, built exactly as `Fleet::new`
/// builds them, under `controller`.
fn site_system(
    config: &FleetConfig,
    i: usize,
    controller: Box<dyn PowerController>,
) -> (InSituSystem, SolarTrace) {
    let solar = high_generation_day(SimRng::seed(config.seed).fork_seed(&format!("site-{i}")));
    let mut builder = InSituSystem::builder(solar.clone(), controller)
        .unit_count(config.units_per_site)
        .workload(WorkloadModel::video())
        .time_step(config.site_time_step);
    if let Some(policy) = config.checkpoints {
        builder = builder.checkpoints(policy);
    }
    (builder.build(), solar)
}

/// A fleet's sites assembled from public parts exactly as `Fleet::new`
/// assembles them.
fn sites(config: &FleetConfig) -> Vec<Site> {
    (0..config.sites)
        .map(|i| {
            let (system, solar) = site_system(config, i, Box::new(InsureController::default()));
            Site::new(
                SiteId(i),
                system,
                solar,
                config.breaker,
                40.0 + 15.0 * i as f64,
            )
        })
        .collect()
}

/// Re-drives `Fleet::step_tick` through public `Site` and `Router` calls,
/// with a span per call, and returns the fleet's metric bundle.
///
/// Must reproduce `Fleet::metrics` exactly; the traced run checks it
/// against the untraced fleet.
#[must_use]
pub fn replay_traced(config: &FleetConfig, spans: &mut Spans) -> FleetMetrics {
    let mut sites = sites(config);
    let mut schedule = config.fault_schedule();
    let mut router = Router::new(config.router);
    let mut flap_until: Option<SimTime> = None;
    let mut fleet_faults = 0u64;
    let mut now = SimTime::from_secs(0);
    let end = horizon(config);
    let mut tick_index = 0u64;
    while now < end {
        spans.enter("fleet.tick");
        let due: Vec<FaultKind> = schedule.due(now).iter().map(|e| e.kind).collect();
        for kind in due {
            let applied = match kind {
                FaultKind::SiteBlackout { site, duration } => sites
                    .get_mut(site)
                    .map(|s| s.begin_blackout(now, duration))
                    .is_some(),
                FaultKind::WanPartition { site, duration } => sites
                    .get_mut(site)
                    .map(|s| s.begin_partition(now, duration))
                    .is_some(),
                FaultKind::SlowSite {
                    site,
                    factor,
                    duration,
                } => sites
                    .get_mut(site)
                    .map(|s| s.begin_slowdown(now, factor, duration))
                    .is_some(),
                FaultKind::RoutingFlap { duration } => {
                    let until = now + duration;
                    flap_until = Some(match flap_until {
                        Some(t) if t > until => t,
                        _ => until,
                    });
                    true
                }
                _ => false,
            };
            fleet_faults += u64::from(applied);
        }
        let tick_end = now + config.tick;
        for site in &mut sites {
            spans.time("fleet.site_advance", || site.advance_to(tick_end));
        }
        let flap = flap_until.is_some_and(|t| tick_end < t);
        spans.time("fleet.route_tick", || {
            router.route_tick(tick_end, config.tick, &mut sites, flap, tick_index);
        });
        spans.exit();
        now = tick_end;
        tick_index += 1;
    }
    FleetMetrics {
        stream: router.stream,
        batch: router.batch,
        retries: router.retries,
        hedges: router.hedges,
        duplicate_serves: router.duplicate_serves,
        misrouted_wh: router.misrouted_wh,
        fleet_faults,
        site_availability: sites.iter().map(Site::availability).collect(),
        breaker_trips: sites.iter().map(|s| s.breaker().trips()).sum(),
        breaker_resets: sites.iter().map(|s| s.breaker().resets()).sum(),
    }
}

fn traced(opts: &Opts) -> Outcome {
    let configs = configs(opts.seed);
    let measured = measure(opts.seconds / 2.0, 1, true, || rep(&configs).0);
    let untraced_rate = measured.typical_rate();
    let warm = &measured.warm;
    let (_, reference) = rep(&configs);

    let mut spans = Spans::new();
    let start = Instant::now();
    let replayed: Vec<FleetMetrics> = configs
        .iter()
        .map(|c| replay_traced(c, &mut spans))
        .collect();
    let traced_rate = warm.sim_days / start.elapsed().as_secs_f64();
    let split_ok = replayed == reference;

    // Each site of the first fleet, stepped alone.
    let first = &configs[0];
    let t = thread_cpu_ns();
    let solar = high_generation_day(SimRng::seed(first.seed).fork_seed("site-0"));
    let solar_build_ms = (thread_cpu_ns() - t) as f64 / 1e6;
    let control = ControlStats::new(spans.epoch());
    let mut plant = PlantTrace::default();
    for i in 0..first.sites {
        let timed = TimedController::new(InsureController::default(), control.clone());
        let (mut sys, _) = site_system(first, i, Box::new(timed));
        plant.drive(&mut sys, horizon(first), &control, &mut spans, |_| {});
        plant.time_fork(&sys, 3);
    }
    let layers = LayerTimes::measure(&Shape {
        dt: first.site_time_step,
        units: first.units_per_site,
        workload: WorkloadModel::video,
        solar: &solar,
    });

    let mut out = Outcome {
        workload: "fleet_day",
        attempted: (configs.len() * (2 + measured.reps.len())) as u64,
        digest: warm.digest,
        ..Outcome::default()
    };
    out.metrics = layer_metrics(&plant, &layers, solar_build_ms);
    out.metrics.push(Metric::new(
        "trace.overhead_share",
        "fraction",
        1.0 - traced_rate / untraced_rate,
    ));
    let sum = |f: fn(&FleetMetrics) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    let offered = sum(|m| m.stream.offered + m.batch.offered);
    let served = sum(|m| {
        m.stream.served + m.stream.served_degraded + m.batch.served + m.batch.served_degraded
    });
    let fleet_days = configs.len() as f64;
    let failures: Vec<String> = reference.iter().flat_map(check).collect();
    if split_ok {
        let route = stats::summarize(&spans.durations("fleet.route_tick"));
        let advance = stats::summarize(&spans.durations("fleet.site_advance"));
        out.extra = vec![
            Metric::timed("fleet.route_tick_us", "us", route.p50 / 1e3, route.n),
            Metric::timed("fleet.site_advance_us", "us", advance.p50 / 1e3, advance.n),
        ];
    } else {
        out.notes.push(
            "fleet split left out: the public-call replay did not reproduce \
             Fleet::step_tick's metrics"
                .to_string(),
        );
    }
    out.extra.extend([
        Metric::new(
            "fleet.retries_per_request",
            "count",
            sum(|m| m.retries) / offered,
        ),
        Metric::new(
            "fleet.hedges_per_request",
            "count",
            sum(|m| m.hedges) / offered,
        ),
        Metric::new(
            "fleet.duplicate_share",
            "fraction",
            sum(|m| m.duplicate_serves) / served.max(1.0),
        ),
        Metric::new(
            "fleet.breaker_trips",
            "count",
            sum(|m| m.breaker_trips) / fleet_days,
        ),
        Metric::new(
            "failed_share",
            "fraction",
            reference.iter().map(|m| refused(m).1).sum::<u64>() as f64 / offered,
        ),
        Metric::new("untraced.sim_days_per_s", "1/s", untraced_rate),
        Metric::new("traced.sim_days_per_s", "1/s", traced_rate),
    ]);
    out.extra.extend(super::self_time_metrics(&spans));
    out.failed = u64::from(!failures.is_empty());
    out.checks.push(Check::new(
        "outputs",
        failures.is_empty(),
        failures
            .first()
            .cloned()
            .unwrap_or_else(|| "every request resolved".into()),
    ));
    out.checks.push(Check::new(
        "traced_replay_matches_step_tick",
        split_ok,
        format!("{} fleets compared", configs.len()),
    ));
    super::write_spans(opts, "fleet_day", &spans, &mut out);
    out
}
