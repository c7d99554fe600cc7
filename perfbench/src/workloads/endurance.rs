//! `endurance`: one prototype site over a multi-month mixed-weather
//! trace, closed loop on one thread.
//!
//! At a 60 s step the control period equals the step, so the controller
//! runs and the bus-membership cache is rebuilt on every step, and KiBaM
//! takes two substeps. Long nights are the quiescent spans a skip-ahead
//! would remove, and the per-step traces grow with the horizon. Forking,
//! the sweep runner, faults, the service and the fleet are all bypassed.
//! A tick is one `run_until` over a simulated day, cut at noon so that
//! every night lies whole inside one call and anything `run_until` does
//! across a quiet span stays visible.

use std::time::Instant;

use ins_core::controller::InsureController;
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, WorkloadModel};
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::SolarTrace;

use super::{end_to_end, measure, time_setup, Opts, Rep};
use crate::gen::{self, ENDURANCE_DAYS};
use crate::host::thread_cpu_ns;
use crate::probes::{layer_metrics, ControlStats, LayerTimes, PlantTrace, Shape, TimedController};
use crate::report::{Check, Digest, Metric, Outcome};
use crate::spans::Spans;

const STEP: SimDuration = SimDuration::from_secs(60);

fn end() -> SimTime {
    SimTime::from_secs(ENDURANCE_DAYS as u64 * 86_400)
}

fn build(
    solar: SolarTrace,
    controller: Box<dyn ins_core::controller::PowerController>,
) -> InSituSystem {
    InSituSystem::builder(solar, controller)
        .workload(WorkloadModel::seismic())
        .time_step(STEP)
        .build()
}

/// Output checks on a finished run; returns failures.
fn check(sys: &InSituSystem, soc_ok: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let harvested = sys.solar_harvested().value();
    let (load, charge) = sys.solar_used();
    let used = load.value() + charge.value();
    if used > harvested * (1.0 + 1e-12) {
        failures.push(format!(
            "solar used {used} Wh exceeds harvested {harvested} Wh"
        ));
    }
    if !soc_ok {
        failures.push("a state of charge left [0, 1]".to_string());
    }
    failures
}

/// Slack for rounding in a fill fraction.
const SOC_TOLERANCE: f64 = 1e-9;

/// `true` when `stored` of `capacity` is a finite fill within [0, 1].
///
/// Reads raw charge: `BatteryUnit::soc()` is clamped into [0, 1] (and
/// NaN becomes empty), so checking it could never fail.
#[must_use]
pub fn fill_in_range(stored: f64, capacity: f64) -> bool {
    let fill = stored / capacity;
    fill.is_finite() && (-SOC_TOLERANCE..=1.0 + SOC_TOLERANCE).contains(&fill)
}

fn socs_in_range(sys: &InSituSystem) -> bool {
    sys.units()
        .iter()
        .all(|u| fill_in_range(u.stored_charge().value(), u.params().capacity.value()))
}

fn digest(sys: &InSituSystem) -> u64 {
    let mut d = Digest::default();
    d.line(&format!("{:?}", RunMetrics::collect(sys)));
    for u in sys.units() {
        d.line(&format!("{:?}", u.discharge_throughput()));
    }
    d.value()
}

/// Where each tick ends: every noon, then the horizon. Cutting at noon
/// keeps every night whole inside one `run_until`.
fn tick_ends() -> impl Iterator<Item = SimTime> {
    (0..ENDURANCE_DAYS as u64)
        .map(|day| SimTime::from_secs(day * 86_400 + 43_200))
        .chain(std::iter::once(end()))
}

/// One 90-day run, one `run_until` per simulated day (noon to noon); a
/// day is a tick.
fn rep(solar: &SolarTrace) -> Rep {
    let mut sys = build(solar.clone(), Box::new(InsureController::default()));
    let ticks_us = tick_ends()
        .map(|until| {
            let t = Instant::now();
            sys.run_until(until);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    let failures = check(&sys, socs_in_range(&sys));
    Rep {
        sim_days: ENDURANCE_DAYS as f64,
        ticks_us,
        digest: digest(&sys),
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        ..Rep::default()
    }
}

/// Runs the workload.
#[must_use]
pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    let (setup_s, (solar, _)) = time_setup(|| {
        let solar = gen::endurance_solar(opts.seed);
        let sys = build(solar.clone(), Box::new(InsureController::default()));
        (solar, sys)
    });
    let measured = measure(opts.seconds, 3, true, || rep(&solar));
    end_to_end("endurance", setup_s, &measured)
}

fn traced(opts: &Opts) -> Outcome {
    let t = thread_cpu_ns();
    let solar = gen::endurance_solar(opts.seed);
    let solar_build_ms = (thread_cpu_ns() - t) as f64 / 1e6;
    let measured = measure(opts.seconds / 2.0, 1, true, || rep(&solar));
    let untraced_rate = measured.typical_rate();
    let warm = &measured.warm;

    let mut spans = Spans::new();
    let control = ControlStats::new(spans.epoch());
    let mut sys = build(
        solar.clone(),
        Box::new(TimedController::new(
            InsureController::default(),
            control.clone(),
        )),
    );
    let mut plant = PlantTrace::default();
    let mut soc_ok = true;
    let t = Instant::now();
    plant.drive(&mut sys, end(), &control, &mut spans, |s| {
        soc_ok &= socs_in_range(s);
    });
    let traced_rate = ENDURANCE_DAYS as f64 / t.elapsed().as_secs_f64();
    plant.time_fork(&sys, 5);
    let failures = check(&sys, soc_ok);
    let traced_digest = digest(&sys);

    let layers = LayerTimes::measure(&Shape {
        dt: STEP,
        units: sys.units().len(),
        workload: WorkloadModel::seismic,
        solar: &solar,
    });
    let mut out = Outcome {
        workload: "endurance",
        attempted: 1 + measured.reps.len() as u64,
        failed: u64::from(!failures.is_empty()),
        digest: warm.digest,
        ..Outcome::default()
    };
    out.metrics = layer_metrics(&plant, &layers, solar_build_ms);
    out.metrics.push(Metric::new(
        "trace.overhead_share",
        "fraction",
        1.0 - traced_rate / untraced_rate,
    ));
    out.extra = super::self_time_metrics(&spans);
    out.extra
        .push(Metric::new("untraced.sim_days_per_s", "1/s", untraced_rate));
    out.extra
        .push(Metric::new("traced.sim_days_per_s", "1/s", traced_rate));
    out.checks.push(Check::new(
        "outputs",
        failures.is_empty(),
        failures
            .first()
            .cloned()
            .unwrap_or_else(|| "energy and SoC hold".into()),
    ));
    out.checks.push(Check::new(
        "traced_run_matches_untraced",
        traced_digest == warm.digest,
        format!("{traced_digest:016x} vs {:016x}", warm.digest),
    ));
    super::write_spans(opts, "endurance", &spans, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_check_rejects_overshoot_undershoot_and_nan() {
        assert!(fill_in_range(0.0, 100.0));
        assert!(fill_in_range(100.0, 100.0));
        assert!(fill_in_range(42.0, 100.0));
        assert!(!fill_in_range(100.5, 100.0));
        assert!(!fill_in_range(-0.5, 100.0));
        assert!(!fill_in_range(f64::NAN, 100.0));
        assert!(!fill_in_range(1.0, 0.0));
    }

    #[test]
    fn a_fresh_plant_passes_the_fill_check() {
        let sys = build(
            ins_solar::trace::high_generation_day(1),
            Box::new(InsureController::default()),
        );
        assert!(socs_in_range(&sys));
    }
}
