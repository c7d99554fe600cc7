//! `service_replay`: the deterministic service core ticked to the end of
//! a seeded week-long replay feed, closed loop (one caller waits on each
//! tick, like the daemon run unpaced).
//!
//! The only workload that runs admission, the supervisor with safe-mode
//! takeover, replay lookup and telemetry. The plant steps at 10 s with
//! one KiBaM substep and a control call every sixth step.

use std::time::Instant;

use ins_core::controller::InsureController;
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_service::{ServiceCore, ServiceSpec, TelemetrySnapshot, WorkClass};
use ins_sim::replay::ReplayFeed;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::SolarTrace;

use super::{end_to_end, measure, time_setup, Opts, Rep};
use crate::gen::{self, ServiceSchedule, FEED_DAYS};
use crate::host::thread_cpu_ns;
use crate::probes::{layer_metrics, ControlStats, LayerTimes, PlantTrace, Shape, TimedController};
use crate::report::{Check, Digest, Metric, Outcome};
use crate::spans::Spans;
use crate::stats;

/// The service's inputs, generated from the seed.
pub struct Inputs {
    /// The service spec with the parsed feed installed.
    pub spec: ServiceSpec,
    /// Batch offers and engine faults.
    pub schedule: ServiceSchedule,
}

/// Generates the feed and schedule and builds the spec.
///
/// # Panics
///
/// Panics if the generated feed does not parse (a generator bug).
#[must_use]
pub fn inputs(seed: u64) -> Inputs {
    let feed = ReplayFeed::parse(&gen::service_feed(seed)).expect("generated feed parses");
    let mut spec = ServiceSpec::prototype("insure", seed);
    spec.replay = Some(feed);
    Inputs {
        spec,
        schedule: gen::service_schedule(seed),
    }
}

fn new_core(spec: &ServiceSpec) -> ServiceCore {
    ServiceCore::try_new(spec.clone()).expect("prototype spec builds")
}

/// What one service run ends with.
struct Finish {
    digest: u64,
    failures: Vec<String>,
    offered: u64,
    refused: u64,
}

fn finish(core: &mut ServiceCore) -> Finish {
    let drain = core.drain();
    let mut d = Digest::default();
    for line in core.telemetry() {
        d.line(line);
    }
    d.line(&drain.line);
    let mut failures = Vec::new();
    let admission = core.admission();
    if !admission.fully_accounted() {
        failures.push("admission ledger not fully accounted after drain".to_string());
    }
    if !core.feed_exhausted() {
        failures.push("feed not exhausted".to_string());
    }
    let (s, b) = (
        admission.counters(WorkClass::Stream),
        admission.counters(WorkClass::Batch),
    );
    Finish {
        digest: d.value(),
        failures,
        offered: s.offered + b.offered,
        refused: s.shed + s.failed + b.shed + b.failed,
    }
}

/// Applies the schedule's offers and faults due before tick `tick`.
fn before_tick(
    core: &mut ServiceCore,
    schedule: &ServiceSchedule,
    cursor: &mut (usize, usize),
    tick: u64,
    mut on_offer: impl FnMut(&mut ServiceCore, f64),
) {
    while let Some(&(t, gb)) = schedule.batch.get(cursor.0) {
        if t > tick {
            break;
        }
        on_offer(core, gb);
        cursor.0 += 1;
    }
    while let Some(&(t, fault)) = schedule.faults.get(cursor.1) {
        if t > tick {
            break;
        }
        core.inject(fault);
        cursor.1 += 1;
    }
}

fn rep(inputs: &Inputs) -> Rep {
    let mut core = new_core(&inputs.spec);
    let mut ticks_us = Vec::with_capacity((FEED_DAYS * 1440) as usize);
    let mut cursor = (0, 0);
    while !core.feed_exhausted() {
        let tick = core.ticks();
        before_tick(&mut core, &inputs.schedule, &mut cursor, tick, |c, gb| {
            c.offer(WorkClass::Batch, gb);
        });
        let t = Instant::now();
        core.tick();
        ticks_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let done = finish(&mut core);
    Rep {
        sim_days: FEED_DAYS as f64,
        ticks_us,
        digest: done.digest,
        attempted: 1,
        failed: u64::from(!done.failures.is_empty()),
        failures: done.failures,
        refused: done.refused,
        offered: done.offered,
        ..Rep::default()
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let (setup_s, (inputs, _)) = time_setup(|| {
        let inputs = inputs(opts.seed);
        let core = new_core(&inputs.spec);
        (inputs, core)
    });
    let measured = measure(opts.seconds, 3, true, || rep(&inputs));
    end_to_end("service_replay", setup_s, &measured)
}

fn telemetry_line(core: &ServiceCore) -> String {
    let sys = core.system();
    let units = sys.units();
    let counters = core.supervisor_counters();
    let admission = core.admission();
    TelemetrySnapshot {
        tick: core.ticks().saturating_sub(1),
        now: sys.now(),
        engine: core.spec().engine.clone(),
        source: core.last_source().map_or("init", |s| s.label()),
        state: "unknown",
        active_vms: sys.rack().active_vms(),
        duty: sys.rack().duty().fraction(),
        solar_w: sys.trace_solar().last().map_or(0.0, |s| s.value),
        mean_soc: units.iter().map(|u| u.soc().value()).sum::<f64>() / units.len().max(1) as f64,
        pending_gb: sys.workload().pending_gb(),
        processed_gb: sys.workload().processed_gb(),
        stream: admission.counters(WorkClass::Stream),
        batch: admission.counters(WorkClass::Batch),
        queued: admission.queued_requests(),
        brownouts: sys.brownout_count() as u64,
        checkpoints: sys.checkpoint_counters().written,
        safe_periods: counters.safe_periods,
        restarts: counters.restarts,
    }
    .line()
}

fn traced(opts: &Opts) -> Outcome {
    let inputs = inputs(opts.seed);
    let feed = inputs.spec.replay.as_ref().expect("spec carries the feed");
    let t = thread_cpu_ns();
    let solar = SolarTrace::from_trace(feed.solar_trace(), inputs.spec.dt);
    let solar_build_ms = (thread_cpu_ns() - t) as f64 / 1e6;
    let measured = measure(opts.seconds / 2.0, 1, true, || rep(&inputs));
    let untraced_rate = measured.typical_rate();
    let warm = &measured.warm;

    // The service itself, with each call into it as a span.
    let mut spans = Spans::new();
    let mut core = new_core(&inputs.spec);
    let mut cursor = (0, 0);
    let mut queued_max = 0;
    let mut offer_ns = Vec::new();
    let mut telemetry_ns = Vec::new();
    let mut lookup_ns = Vec::new();
    let period = inputs.spec.control_period.as_secs();
    let start = Instant::now();
    while !core.feed_exhausted() {
        let tick = core.ticks();
        spans.enter("service.period");
        before_tick(&mut core, &inputs.schedule, &mut cursor, tick, |c, gb| {
            spans.enter("service.offer");
            c.offer(WorkClass::Batch, gb);
            offer_ns.push(spans.exit() as f64);
        });
        spans.time("service.tick", || core.tick());
        spans.exit();
        queued_max = queued_max.max(core.admission().queued_requests());
        // The calls a tick makes internally, repeated standalone on the
        // same arguments.
        let (from, to) = (
            SimTime::from_secs(period * tick),
            SimTime::from_secs(period * (tick + 1)),
        );
        let t = Instant::now();
        std::hint::black_box(feed.work_between(from, to));
        lookup_ns.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(telemetry_line(&core));
        telemetry_ns.push(t.elapsed().as_nanos() as f64);
    }
    let done = finish(&mut core);
    let traced_rate = FEED_DAYS as f64 / start.elapsed().as_secs_f64();
    let counters = core.supervisor_counters();

    // The plant alone, stepped: same solar, step, period and checkpoints,
    // fed the feed's work each period.
    let control = ControlStats::new(spans.epoch());
    let mut plant_sys = InSituSystem::builder(
        solar.clone(),
        Box::new(TimedController::new(
            InsureController::default(),
            control.clone(),
        )),
    )
    .unit_count(inputs.spec.unit_count)
    .control_period(inputs.spec.control_period)
    .time_step(inputs.spec.dt)
    .checkpoints(inputs.spec.checkpoint)
    .build();
    let mut plant = PlantTrace::default();
    let end = feed.end().unwrap_or(SimTime::ZERO);
    let mut offered_until = SimTime::ZERO;
    plant.drive(&mut plant_sys, end, &control, &mut spans, |s| {
        let now = s.now();
        if now.since(offered_until) >= SimDuration::from_secs(period) {
            let gb = feed.work_between(offered_until, now);
            s.offer_work(gb);
            offered_until = now;
        }
    });
    plant.time_fork(&plant_sys, 5);

    let layers = LayerTimes::measure(&Shape {
        dt: inputs.spec.dt,
        units: inputs.spec.unit_count,
        workload: WorkloadModel::seismic,
        solar: &solar,
    });
    let mut out = Outcome {
        workload: "service_replay",
        attempted: 1 + measured.reps.len() as u64,
        failed: u64::from(!done.failures.is_empty()),
        digest: warm.digest,
        ..Outcome::default()
    };
    out.metrics = layer_metrics(&plant, &layers, solar_build_ms);
    out.metrics.push(Metric::new(
        "trace.overhead_share",
        "fraction",
        1.0 - traced_rate / untraced_rate,
    ));
    let tick = stats::summarize(&spans.durations("service.tick"));
    out.extra = vec![
        Metric::timed("service.tick_us_p50", "us", tick.p50 / 1e3, tick.n),
        Metric::timed(
            "service.offer_ns",
            "ns",
            stats::median(&offer_ns),
            offer_ns.len(),
        ),
        Metric::timed(
            "service.telemetry_ns",
            "ns",
            stats::median(&telemetry_ns),
            telemetry_ns.len(),
        ),
        Metric::timed(
            "sim.work_between_ns",
            "ns",
            stats::median(&lookup_ns),
            lookup_ns.len(),
        ),
        Metric::new(
            "service.safe_periods",
            "count",
            counters.safe_periods as f64,
        ),
        Metric::new("service.restarts", "count", counters.restarts as f64),
        Metric::new("service.queued_max", "count", queued_max as f64),
        Metric::new(
            "failed_share",
            "fraction",
            done.refused as f64 / done.offered.max(1) as f64,
        ),
        Metric::new("untraced.sim_days_per_s", "1/s", untraced_rate),
        Metric::new("traced.sim_days_per_s", "1/s", traced_rate),
    ];
    out.extra.extend(super::self_time_metrics(&spans));
    out.checks.push(Check::new(
        "outputs",
        done.failures.is_empty(),
        done.failures
            .first()
            .cloned()
            .unwrap_or_else(|| "admission fully accounted after drain".into()),
    ));
    out.checks.push(Check::new(
        "traced_run_matches_untraced",
        done.digest == warm.digest,
        format!("{:016x} vs {:016x}", done.digest, warm.digest),
    ));
    super::write_spans(opts, "service_replay", &spans, &mut out);
    out
}
