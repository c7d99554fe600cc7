//! Evaluation metrics.
//!
//! §6.4 groups its measurements into *service-related* metrics (system
//! uptime, load performance, average latency) and *system-related*
//! metrics (e-Buffer energy availability, service life, performance per
//! ampere-hour). [`RunMetrics`] extracts all of them — plus the Table 6
//! log counters — from a finished [`InSituSystem`] run.

use core::fmt;

use ins_battery::BatteryUnit;

use crate::system::{InSituSystem, SystemEvent};

/// Everything the paper reports about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Which controller produced the run.
    pub controller: String,
    /// Hours simulated.
    pub elapsed_hours: f64,
    // --- Service-related -------------------------------------------------
    /// Fraction of time the rack was serving (Fig. 17 / Fig. 20 "System
    /// Uptime").
    pub uptime: f64,
    /// Fraction of demand-time during which power demand was fully met.
    pub service_availability: f64,
    /// Data processed, GB.
    pub processed_gb: f64,
    /// Delivered throughput, GB/hour of wall time ("Load Perf.").
    pub throughput_gb_per_hour: f64,
    /// Mean service latency, minutes ("Avg. Latency").
    pub mean_latency_minutes: f64,
    // --- System-related ---------------------------------------------------
    /// Time-average stored energy in the e-Buffer, Wh ("e-Buffer Avail.").
    pub mean_stored_energy_wh: f64,
    /// Mean expected unit service life, days ("Service Life").
    pub expected_service_life_days: f64,
    /// Data processed per ampere-hour through the buffer ("Perf. per Ah").
    pub gb_per_amp_hour: f64,
    /// Total e-Buffer discharge throughput, Ah.
    pub discharge_throughput_ah: f64,
    // --- Table 6 log columns ----------------------------------------------
    /// Total load energy, kWh.
    pub load_kwh: f64,
    /// Effective (productive) load energy, kWh.
    pub effective_kwh: f64,
    /// Relay + duty-cycle control operations.
    pub power_ctrl_times: u64,
    /// Server on/off power cycles.
    pub on_off_cycles: u64,
    /// VM management control actions.
    pub vm_ctrl_times: u64,
    /// Minimum mean pack voltage seen.
    pub min_voltage: f64,
    /// Mean pack voltage at end of run.
    pub end_voltage: f64,
    /// Standard deviation of the pack voltage over the run.
    pub voltage_sigma: f64,
    // --- Environment -------------------------------------------------------
    /// Solar energy harvested, kWh.
    pub solar_kwh: f64,
    /// Brown-out events (demand unservable).
    pub brownouts: usize,
    /// Controller-ordered emergency shutdowns.
    pub emergency_shutdowns: usize,
    // --- Checkpoint/recovery ------------------------------------------------
    /// Throughput that produced durable value, GB (each GB counted once;
    /// `processed_gb` double-counts replayed work).
    pub goodput_gb: f64,
    /// Goodput per hour of wall time.
    pub goodput_gb_per_hour: f64,
    /// Crash-lost work replayed or abandoned, GB.
    pub lost_work_gb: f64,
    /// The same loss expressed as full-rack processing hours.
    pub lost_work_hours: f64,
    /// Completed outage→recovery episodes.
    pub recoveries: usize,
    /// Mean time to recover over completed episodes, minutes (0 if none).
    pub mttr_minutes: f64,
    /// Unrecoverable data-loss events (corruption, poison quarantine).
    pub data_loss_events: u64,
    /// Durable checkpoint writes completed.
    pub checkpoints_written: u64,
    /// In-flight checkpoint writes torn by crashes.
    pub checkpoints_torn: u64,
    /// Durable checkpoints invalidated (corruption/unwritable path).
    pub checkpoints_lost: u64,
    /// Successful restores from a durable checkpoint.
    pub checkpoints_restored: u64,
}

impl RunMetrics {
    /// Extracts the metrics from a finished run.
    #[must_use]
    pub fn collect(system: &InSituSystem) -> Self {
        let elapsed_hours = system.elapsed_hours().max(1e-9);
        let processed_gb = system.workload().processed_gb();
        let discharge_ah = system.total_discharge_throughput();
        let life_days = mean_service_life(system.units());
        let goodput_gb = system.goodput_gb();
        let lost_work_gb = system.lost_work_gb();
        // Express lost work in full-rack processing hours: how long the
        // whole cluster at full duty would take to redo it.
        let full_rate = system
            .workload()
            .capacity_gb_per_hour(system.rack().total_vm_slots(), 1.0);
        let lost_work_hours = if full_rate > 1e-9 {
            lost_work_gb / full_rate
        } else {
            0.0
        };
        let recoveries = system.recovery_durations().len();
        let mttr_minutes = if recoveries > 0 {
            system
                .recovery_durations()
                .iter()
                .map(|d| d.as_minutes())
                .sum::<f64>()
                / recoveries as f64
        } else {
            0.0
        };
        let counters = system.checkpoint_counters();
        Self {
            controller: system.controller_name().to_string(),
            elapsed_hours,
            uptime: system.rack().availability(),
            service_availability: system.service_availability(),
            processed_gb,
            throughput_gb_per_hour: processed_gb / elapsed_hours,
            mean_latency_minutes: system.workload().mean_latency_minutes(),
            mean_stored_energy_wh: system.trace_stored().stats().mean(),
            expected_service_life_days: life_days,
            gb_per_amp_hour: if discharge_ah.value() > 1e-9 {
                processed_gb / discharge_ah.value()
            } else {
                0.0
            },
            discharge_throughput_ah: discharge_ah.value(),
            load_kwh: system.rack().total_energy().kilowatt_hours(),
            effective_kwh: system.rack().effective_energy().kilowatt_hours(),
            power_ctrl_times: system.matrix().total_switch_operations()
                + system.rack().duty_control_actions(),
            on_off_cycles: system.rack().on_off_cycles(),
            vm_ctrl_times: system.rack().vm_control_actions(),
            min_voltage: system.trace_pack_voltage().stats().min(),
            end_voltage: system.trace_pack_voltage().last().map_or(0.0, |s| s.value),
            voltage_sigma: system.voltage_stats().population_std_dev(),
            solar_kwh: system.solar_harvested().kilowatt_hours(),
            brownouts: system
                .events()
                .count(|e| matches!(e, SystemEvent::BrownOut)),
            emergency_shutdowns: system
                .events()
                .count(|e| matches!(e, SystemEvent::EmergencyShutdown)),
            goodput_gb,
            goodput_gb_per_hour: goodput_gb / elapsed_hours,
            lost_work_gb,
            lost_work_hours,
            recoveries,
            mttr_minutes,
            data_loss_events: system.data_loss_events(),
            checkpoints_written: counters.written,
            checkpoints_torn: counters.torn,
            checkpoints_lost: counters.lost,
            checkpoints_restored: counters.restored,
        }
    }

    /// Relative improvement of `self` over `other` on a
    /// larger-is-better metric extractor, as a fraction (0.2 = 20 %).
    #[must_use]
    pub fn improvement_over(&self, other: &RunMetrics, metric: fn(&RunMetrics) -> f64) -> f64 {
        let base = metric(other);
        if base.abs() < 1e-12 {
            return 0.0;
        }
        (metric(self) - base) / base
    }
}

impl fmt::Display for RunMetrics {
    /// Renders the run as the compact report the examples print.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run report — {} ({:.1} h)",
            self.controller, self.elapsed_hours
        )?;
        writeln!(
            f,
            "  service : uptime {:.1} %, power availability {:.1} %, {:.1} GB ({:.2} GB/h), latency {:.1} min",
            self.uptime * 100.0,
            self.service_availability * 100.0,
            self.processed_gb,
            self.throughput_gb_per_hour,
            self.mean_latency_minutes
        )?;
        writeln!(
            f,
            "  energy  : solar {:.2} kWh, load {:.2} kWh ({:.2} effective), buffer mean {:.0} Wh",
            self.solar_kwh, self.load_kwh, self.effective_kwh, self.mean_stored_energy_wh
        )?;
        writeln!(
            f,
            "  battery : {:.1} Ah through, {:.2} GB/Ah, σ {:.3} V, est. life {:.0} days",
            self.discharge_throughput_ah,
            self.gb_per_amp_hour,
            self.voltage_sigma,
            self.expected_service_life_days
        )?;
        writeln!(
            f,
            "  control : {} power ops, {} on/off, {} VM ops, {} brown-outs, {} emergencies",
            self.power_ctrl_times,
            self.on_off_cycles,
            self.vm_ctrl_times,
            self.brownouts,
            self.emergency_shutdowns
        )?;
        write!(
            f,
            "  recovery: goodput {:.1} GB ({:.2} GB/h), lost work {:.1} GB ({:.2} h), MTTR {:.1} min over {} recoveries, {} data-loss, ckpt {}w/{}t/{}l/{}r",
            self.goodput_gb,
            self.goodput_gb_per_hour,
            self.lost_work_gb,
            self.lost_work_hours,
            self.mttr_minutes,
            self.recoveries,
            self.data_loss_events,
            self.checkpoints_written,
            self.checkpoints_torn,
            self.checkpoints_lost,
            self.checkpoints_restored
        )
    }
}

/// Mean expected service life across units, days.
#[must_use]
pub fn mean_service_life(units: &[BatteryUnit]) -> f64 {
    if units.is_empty() {
        return 0.0;
    }
    units
        .iter()
        .map(BatteryUnit::expected_service_life_days)
        .sum::<f64>()
        / units.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::InsureController;
    use crate::system::InSituSystem;
    use ins_sim::time::{SimDuration, SimTime};
    use ins_solar::trace::high_generation_day;

    fn finished_run() -> InSituSystem {
        let mut sys = InSituSystem::builder(
            high_generation_day(7),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(30))
        .build();
        sys.run_until(SimTime::from_hms(20, 0, 0));
        sys
    }

    #[test]
    fn collect_produces_consistent_metrics() {
        let sys = finished_run();
        let m = RunMetrics::collect(&sys);
        assert!((m.elapsed_hours - 20.0).abs() < 0.1);
        assert!(m.uptime >= 0.0 && m.uptime <= 1.0);
        assert!(m.service_availability >= 0.0 && m.service_availability <= 1.0);
        assert!(m.processed_gb >= 0.0);
        assert!((m.throughput_gb_per_hour - m.processed_gb / m.elapsed_hours).abs() < 1e-9);
        assert!(m.effective_kwh <= m.load_kwh + 1e-9);
        assert!(m.mean_stored_energy_wh > 0.0);
        assert!(m.min_voltage > 0.0 && m.min_voltage <= m.end_voltage + 5.0);
        assert!(m.voltage_sigma >= 0.0);
        assert!(m.solar_kwh > 5.0);
        assert_eq!(m.controller, "InSURE (spatio-temporal)");
    }

    #[test]
    fn perf_per_ah_uses_throughput() {
        let sys = finished_run();
        let m = RunMetrics::collect(&sys);
        if m.discharge_throughput_ah > 1e-9 {
            assert!((m.gb_per_amp_hour - m.processed_gb / m.discharge_throughput_ah).abs() < 1e-9);
        }
    }

    #[test]
    fn improvement_math() {
        let sys = finished_run();
        let a = RunMetrics::collect(&sys);
        let mut b = a.clone();
        b.processed_gb = a.processed_gb * 0.8;
        let imp = a.improvement_over(&b, |m| m.processed_gb);
        assert!((imp - 0.25).abs() < 1e-9);
        let none = a.improvement_over(&a, |m| m.processed_gb);
        assert!(none.abs() < 1e-12);
    }

    #[test]
    fn display_report_mentions_key_numbers() {
        let sys = finished_run();
        let m = RunMetrics::collect(&sys);
        let text = m.to_string();
        assert!(text.contains("run report"));
        assert!(text.contains("uptime"));
        assert!(text.contains("GB/Ah"));
        assert!(text.contains("brown-outs"));
        assert!(text.contains("MTTR"));
    }

    #[test]
    fn goodput_equals_throughput_without_checkpointing() {
        // With checkpointing off no work is ever replayed, so goodput and
        // throughput must agree exactly.
        let sys = finished_run();
        let m = RunMetrics::collect(&sys);
        assert!((m.goodput_gb - m.processed_gb).abs() < 1e-12);
        assert_eq!(m.lost_work_gb, 0.0);
        assert_eq!(m.checkpoints_written, 0);
        assert_eq!(m.data_loss_events, 0);
    }

    #[test]
    fn checkpointed_run_writes_and_reports() {
        use ins_workload::checkpoint::CheckpointPolicy;
        let mut sys = InSituSystem::builder(
            high_generation_day(7),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(30))
        .checkpoints(CheckpointPolicy::with_interval(SimDuration::from_minutes(
            30,
        )))
        .build();
        sys.run_until(SimTime::from_hms(20, 0, 0));
        let m = RunMetrics::collect(&sys);
        assert!(
            m.checkpoints_written > 0,
            "a day of serving must produce periodic checkpoints"
        );
        assert!(m.goodput_gb <= m.processed_gb + 1e-9);
        assert!(m.lost_work_hours >= 0.0);
    }

    #[test]
    fn helpers_on_empty_sets() {
        assert_eq!(mean_service_life(&[]), 0.0);
    }
}
