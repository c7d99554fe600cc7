//! A mixed-weather week in the field.
//!
//! Runs the prototype through seven consecutive days of varying weather
//! (the §6.2 sunny/cloudy/rainy regimes back-to-back) and reports how the
//! e-Buffer and workload ride through multi-day energy droughts. The
//! plant's traces keep only their latest sample, so the example sums
//! each day's row from that sample after every step.
//!
//! ```sh
//! cargo run --example weather_week
//! ```

use insure::core::controller::InsureController;
use insure::core::metrics::RunMetrics;
use insure::core::system::{InSituSystem, SystemEvent};
use insure::sim::stats::RunningStats;
use insure::sim::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use insure::sim::trace::Trace;
use insure::solar::trace::SolarTraceBuilder;
use insure::solar::weather::DayWeather;

/// One day's row, summed step by step.
struct Day {
    solar_wh: f64,
    load_wh: f64,
    /// Mean pack voltage over the day's steps, and at its last one.
    volts: RunningStats,
    end_volts: f64,
}

fn main() {
    use DayWeather::{Cloudy, Rainy, Sunny};
    let week = [Sunny, Sunny, Cloudy, Rainy, Rainy, Cloudy, Sunny];
    let solar = SolarTraceBuilder::new().seed(11).build_days(&week);
    let dt = SimDuration::from_secs(30);

    let mut system = InSituSystem::builder(solar, Box::new(InsureController::default()))
        .time_step(dt)
        .build();
    let dt_h = dt.as_hours().value();
    let mut days: Vec<Day> = week
        .iter()
        .map(|_| Day {
            solar_wh: 0.0,
            load_wh: 0.0,
            volts: RunningStats::new(),
            end_volts: 0.0,
        })
        .collect();
    let latest = |trace: &Trace| trace.last().map_or(0.0, |s| s.value);
    for (day, row) in days.iter_mut().enumerate() {
        let end = SimTime::from_secs((day as u64 + 1) * SECONDS_PER_DAY);
        while system.now() < end {
            system.step();
            row.solar_wh += latest(system.trace_solar()) * dt_h;
            row.load_wh += latest(system.trace_load()) * dt_h;
            row.end_volts = latest(system.trace_pack_voltage());
            row.volts.push(row.end_volts);
        }
    }

    println!("=== One week in the field (InSURE controller) ===");
    println!(
        "{:>4} {:>8} {:>10} {:>10} {:>7} {:>7} {:>8} {:>7}",
        "day", "weather", "solar kWh", "load kWh", "min V", "end V", "volt σ", "events"
    );
    for (day, (row, weather)) in days.iter().zip(&week).enumerate() {
        let events = system
            .events()
            .iter()
            .filter(|e| e.time.day() == day as u64)
            .filter(|e| {
                matches!(
                    e.event,
                    SystemEvent::BrownOut | SystemEvent::EmergencyShutdown
                )
            })
            .count();
        println!(
            "{:>4} {:>8} {:>10.2} {:>10.2} {:>7.1} {:>7.1} {:>8.3} {:>7}",
            day + 1,
            weather.to_string(),
            row.solar_wh / 1000.0,
            row.load_wh / 1000.0,
            row.volts.min(),
            row.end_volts,
            row.volts.population_std_dev(),
            events,
        );
    }

    let m = RunMetrics::collect(&system);
    println!();
    println!("{m}");
}
