//! Per-day operation logs from a multi-day run.
//!
//! §6.2 mines "three pairs of day-long operation logs" from the
//! prototype's monitoring stack. A multi-day [`InSituSystem`] run records
//! everything the same way; [`daily_logs`] slices its traces and event log
//! back into the per-day rows of Table 6.

use ins_sim::stats::RunningStats;
use ins_sim::time::{SimTime, SECONDS_PER_DAY};

use crate::system::{InSituSystem, SystemEvent};

/// One day's worth of Table 6-style statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct DailyLog {
    /// Day index (0-based).
    pub day: u64,
    /// Solar energy harvested this day, kWh.
    pub solar_kwh: f64,
    /// Load energy consumed this day, kWh.
    pub load_kwh: f64,
    /// Minimum mean pack voltage seen this day.
    pub min_voltage: f64,
    /// Mean pack voltage at the day's last sample.
    pub end_voltage: f64,
    /// Standard deviation of the pack voltage over the day.
    pub voltage_sigma: f64,
    /// Brown-outs this day.
    pub brownouts: usize,
    /// Emergency shutdowns this day.
    pub emergency_shutdowns: usize,
    /// Durable checkpoint writes completed this day.
    pub checkpoints_written: usize,
    /// Checkpoint writes torn by crashes this day.
    pub checkpoints_torn: usize,
    /// Durable checkpoints invalidated this day.
    pub checkpoints_lost: usize,
    /// Restores from durable checkpoints this day.
    pub checkpoints_restored: usize,
    /// Outage episodes that completed recovery this day.
    pub recoveries: usize,
}

/// Slices a finished run into per-day logs. Days with no recorded samples
/// (beyond the simulated horizon) are omitted. A plant built with
/// [`SystemBuilder::latest_samples_only`](crate::system::SystemBuilder::latest_samples_only)
/// keeps no sample history to slice, so it yields no logs at all rather
/// than days summed from its one retained sample.
#[must_use]
pub fn daily_logs(system: &InSituSystem) -> Vec<DailyLog> {
    let solar = system.trace_solar();
    // A latest-only trace has recorded more samples than it retains.
    let kept_every_sample = solar.len() as u64 == solar.stats().count();
    let Some(last_sample) = solar.last().filter(|_| kept_every_sample) else {
        return Vec::new();
    };
    let load = system.trace_load();
    let volts = system.trace_pack_voltage();
    let last_day = last_sample.time.day();
    let mut first_two = solar.iter();
    let dt_h = match (first_two.next(), first_two.next()) {
        (Some(a), Some(b)) => (b.time - a.time).as_hours().value(),
        _ => 0.0,
    };
    (0..=last_day)
        .filter_map(|day| {
            let in_day = |t: SimTime| t.day() == day;
            let day_solar: f64 = solar
                .iter()
                .filter(|s| in_day(s.time))
                .map(|s| s.value * dt_h)
                .sum();
            let day_load: f64 = load
                .iter()
                .filter(|s| in_day(s.time))
                .map(|s| s.value * dt_h)
                .sum();
            let day_volts: Vec<f64> = volts
                .iter()
                .filter(|s| in_day(s.time))
                .map(|s| s.value)
                .collect();
            let end_voltage = *day_volts.last()?;
            let stats: RunningStats = day_volts.iter().copied().collect();
            let from = SimTime::from_secs(day * SECONDS_PER_DAY);
            let to = SimTime::from_secs((day + 1) * SECONDS_PER_DAY);
            let brownouts = system
                .events()
                .between(from, to)
                .filter(|e| matches!(e.event, SystemEvent::BrownOut))
                .count();
            let emergency_shutdowns = system
                .events()
                .between(from, to)
                .filter(|e| matches!(e.event, SystemEvent::EmergencyShutdown))
                .count();
            let count_event = |wanted: SystemEvent| {
                system
                    .events()
                    .between(from, to)
                    .filter(|e| e.event == wanted)
                    .count()
            };
            Some(DailyLog {
                day,
                solar_kwh: day_solar / 1000.0,
                load_kwh: day_load / 1000.0,
                min_voltage: stats.min(),
                end_voltage,
                voltage_sigma: stats.population_std_dev(),
                brownouts,
                emergency_shutdowns,
                checkpoints_written: count_event(SystemEvent::CheckpointWritten),
                checkpoints_torn: count_event(SystemEvent::CheckpointTorn),
                checkpoints_lost: count_event(SystemEvent::CheckpointLost),
                checkpoints_restored: count_event(SystemEvent::CheckpointRestored),
                recoveries: count_event(SystemEvent::Recovered),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::InsureController;
    use crate::system::InSituSystem;
    use ins_sim::time::SimDuration;
    use ins_solar::trace::SolarTraceBuilder;
    use ins_solar::weather::DayWeather;

    fn three_day_run() -> InSituSystem {
        let solar = SolarTraceBuilder::new().seed(6).build_days(&[
            DayWeather::Sunny,
            DayWeather::Rainy,
            DayWeather::Cloudy,
        ]);
        let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
            .time_step(SimDuration::from_secs(60))
            .build();
        sys.run_until(SimTime::from_secs(3 * SECONDS_PER_DAY));
        sys
    }

    #[test]
    fn one_log_per_simulated_day() {
        let sys = three_day_run();
        let logs = daily_logs(&sys);
        assert_eq!(logs.len(), 3);
        assert_eq!(logs[0].day, 0);
        assert_eq!(logs[2].day, 2);
    }

    #[test]
    fn daily_energy_sums_to_run_totals() {
        let sys = three_day_run();
        let logs = daily_logs(&sys);
        let daily_solar: f64 = logs.iter().map(|l| l.solar_kwh).sum();
        assert!(
            (daily_solar - sys.solar_harvested().kilowatt_hours()).abs() < 0.2,
            "per-day solar {daily_solar:.2} vs total {:.2}",
            sys.solar_harvested().kilowatt_hours()
        );
        let daily_load: f64 = logs.iter().map(|l| l.load_kwh).sum();
        assert!(
            (daily_load - sys.rack().total_energy().kilowatt_hours()).abs() < 0.2,
            "per-day load {daily_load:.2} vs total {:.2}",
            sys.rack().total_energy().kilowatt_hours()
        );
    }

    #[test]
    fn weather_shows_up_in_daily_budgets() {
        let sys = three_day_run();
        let logs = daily_logs(&sys);
        assert!(
            logs[0].solar_kwh > logs[1].solar_kwh,
            "sunny day 0 ({:.1}) must out-harvest rainy day 1 ({:.1})",
            logs[0].solar_kwh,
            logs[1].solar_kwh
        );
    }

    #[test]
    fn voltage_statistics_are_physical() {
        let sys = three_day_run();
        for log in daily_logs(&sys) {
            assert!(log.min_voltage > 15.0 && log.min_voltage < 30.0);
            assert!(log.end_voltage >= log.min_voltage - 1e-9);
            assert!(log.voltage_sigma >= 0.0);
        }
    }

    #[test]
    fn checkpoint_audit_counts_appear_per_day() {
        use ins_workload::checkpoint::CheckpointPolicy;
        let solar = SolarTraceBuilder::new()
            .seed(6)
            .build_days(&[DayWeather::Sunny, DayWeather::Sunny]);
        let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
            .time_step(SimDuration::from_secs(60))
            .checkpoints(CheckpointPolicy::with_interval(SimDuration::from_minutes(
                30,
            )))
            .build();
        sys.run_until(SimTime::from_secs(2 * SECONDS_PER_DAY));
        let logs = daily_logs(&sys);
        let written: usize = logs.iter().map(|l| l.checkpoints_written).sum();
        assert_eq!(
            written,
            sys.checkpoint_counters().written as usize,
            "per-day checkpoint audit must sum to the run total"
        );
        assert!(written > 0, "two sunny days must produce checkpoints");
    }

    #[test]
    fn latest_only_run_yields_no_logs() {
        let solar = SolarTraceBuilder::new().seed(6).build_day();
        let mut sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
            .time_step(SimDuration::from_secs(60))
            .latest_samples_only()
            .build();
        sys.run_until(SimTime::from_secs(SECONDS_PER_DAY));
        assert_eq!(sys.trace_solar().len(), 1);
        assert!(daily_logs(&sys).is_empty());
    }

    #[test]
    fn empty_run_yields_no_logs() {
        let solar = SolarTraceBuilder::new().seed(1).build_day();
        let sys = InSituSystem::builder(solar, Box::new(InsureController::default()))
            .time_step(SimDuration::from_secs(60))
            .build();
        assert!(daily_logs(&sys).is_empty());
    }
}
