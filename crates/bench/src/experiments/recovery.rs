//! Recovery evaluation: checkpoint interval × fault rate sweep.
//!
//! Not a figure from the paper — its prototype ran fault-free — but the
//! natural follow-on to the fault sweep once jobs checkpoint: how much
//! *useful* work survives crashes, and how fast the system climbs back?
//! Every cell runs one day under the extended stochastic fault menu
//! (which adds checkpoint corruption, torn writes and restart storms to
//! the hardware faults), with periodic checkpointing at the swept
//! interval, and reports goodput (throughput minus replayed/lost work),
//! lost-work hours, and MTTR for InSURE vs the unified-buffer baseline.
//!
//! Determinism: every cell at the same `seed` replays the same weather
//! and the same fault arrivals, so cells differ only by checkpoint
//! interval and controller policy.

use ins_core::system::{InSituSystem, SystemEvent, SystemSnapshot};
use ins_sim::fault::FaultSchedule;
use ins_sim::time::SimDuration;
use ins_solar::trace::high_generation_day;
use ins_workload::checkpoint::CheckpointPolicy;

use super::{controller, day, run_day, STEP, TARGETS};
use crate::export::{json_escape, json_number};
use crate::runner::{run_cells, run_cells_incremental};
use crate::table::TextTable;

/// The swept checkpoint intervals (hours).
pub const CHECKPOINT_INTERVALS_HOURS: [f64; 3] = [0.5, 1.0, 2.0];

/// The swept mean fault inter-arrival times (hours).
pub const FAULT_RATES_HOURS: [f64; 3] = [4.0, 2.0, 1.0];

/// One checkpoint-interval × fault-rate × controller cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRow {
    /// Checkpoint interval, hours.
    pub checkpoint_interval_hours: f64,
    /// Mean fault inter-arrival time, hours.
    pub mean_interarrival_hours: f64,
    /// Controller short name (`insure` / `baseline`).
    pub controller: &'static str,
    /// Faults actually injected during the day.
    pub faults_injected: usize,
    /// Delivered throughput, GB/hour (counts replayed work twice).
    pub throughput_gb_per_hour: f64,
    /// Goodput, GB/hour (each GB counted once; lost work subtracted).
    pub goodput_gb_per_hour: f64,
    /// Work lost to crashes and quarantines, in rack-hours.
    pub lost_work_hours: f64,
    /// Mean time to recover from an outage, minutes (0 if none).
    pub mttr_minutes: f64,
    /// Completed outage-recovery episodes.
    pub recoveries: usize,
    /// Unrecoverable-loss events (corrupted checkpoints, quarantines).
    pub data_loss_events: u64,
    /// Durable checkpoints written.
    pub checkpoints_written: u64,
    /// Checkpoint writes torn by crashes.
    pub checkpoints_torn: u64,
}

fn interval(hours: f64) -> SimDuration {
    SimDuration::from_secs((hours * 3600.0) as u64)
}

fn schedule_for(seed: u64, mean_interarrival_hours: f64) -> FaultSchedule {
    FaultSchedule::stochastic_extended(
        seed,
        SimDuration::from_hours(24),
        interval(mean_interarrival_hours),
        TARGETS,
    )
}

/// Sweeps checkpoint interval × fault rate × {InSURE, baseline} across
/// `threads` workers; two rows (one per controller) per grid cell.
///
/// Every cell is a pure function of `(seed, interval, rate, controller)`
/// — both controllers at a grid point deliberately replay the *same*
/// seeded fault schedule — and rows come back in grid order, so the
/// output is byte-identical at any thread count. `threads == 0` uses
/// available parallelism.
#[must_use]
pub fn sweep_grid_with(
    seed: u64,
    intervals_hours: &[f64],
    rates_hours: &[f64],
    threads: usize,
) -> Vec<RecoveryRow> {
    sweep_cells(seed, intervals_hours, rates_hours, threads, false)
}

/// [`sweep_grid_with`] on the incremental shared-prefix path.
///
/// Cells are grouped by `(checkpoint interval, controller)` — the two
/// axes that shape the fault-free trajectory (periodic checkpoints are
/// written during the warm-up, so the interval is part of the prefix).
/// Fault rate varies *within* a group: the group's prefix runs
/// fault-free to the step-aligned instant before the earliest first
/// event across its members' schedules, then every cell forks under its
/// own schedule. Byte-identical to [`sweep_grid_with`] at any thread
/// count.
#[must_use]
pub fn sweep_grid_incremental(
    seed: u64,
    intervals_hours: &[f64],
    rates_hours: &[f64],
    threads: usize,
) -> Vec<RecoveryRow> {
    sweep_cells(seed, intervals_hours, rates_hours, threads, true)
}

/// Runs checkpoint interval × fault rate × {InSURE, baseline}, from
/// scratch or, when `incremental`, forked from each (interval,
/// controller) group's shared fault-free prefix.
fn sweep_cells(
    seed: u64,
    intervals_hours: &[f64],
    rates_hours: &[f64],
    threads: usize,
    incremental: bool,
) -> Vec<RecoveryRow> {
    let mut cells: Vec<(f64, f64, &'static str)> = Vec::new();
    for &ckpt in intervals_hours {
        for &rate in rates_hours {
            cells.push((ckpt, rate, "insure"));
            cells.push((ckpt, rate, "baseline"));
        }
    }
    let solar = high_generation_day(seed);
    let build = |ckpt: f64, name: &str, schedule: FaultSchedule| {
        day(solar.clone(), controller(name))
            .fault_schedule(schedule)
            .checkpoints(CheckpointPolicy::with_interval(interval(ckpt)))
            .build()
    };
    let run = |&(ckpt, rate, name): &(f64, f64, &'static str), snap: Option<&SystemSnapshot>| {
        let schedule = schedule_for(seed, rate);
        let mut sys = match snap {
            Some(snapshot) => InSituSystem::fork_from(snapshot, schedule),
            None => build(ckpt, name, schedule),
        };
        let m = run_day(&mut sys);
        RecoveryRow {
            checkpoint_interval_hours: ckpt,
            mean_interarrival_hours: rate,
            controller: name,
            faults_injected: sys
                .events()
                .count(|e| matches!(e, SystemEvent::FaultInjected(_))),
            throughput_gb_per_hour: m.throughput_gb_per_hour,
            goodput_gb_per_hour: m.goodput_gb_per_hour,
            lost_work_hours: m.lost_work_hours,
            mttr_minutes: m.mttr_minutes,
            recoveries: m.recoveries,
            data_loss_events: m.data_loss_events,
            checkpoints_written: m.checkpoints_written,
            checkpoints_torn: m.checkpoints_torn,
        }
    };
    if !incremental {
        return run_cells(threads, &cells, |_, cell| run(cell, None));
    }
    run_cells_incremental(
        threads,
        &cells,
        STEP,
        |&(ckpt, rate, name)| ((ckpt, name), schedule_for(seed, rate).first_event_at()),
        |&(ckpt, name): &(f64, &'static str), fork_at| {
            let mut sys = build(ckpt, name, FaultSchedule::from_events(seed, Vec::new()));
            sys.run_until(fork_at);
            sys.snapshot().ok()
        },
        |_, cell, snap| run(cell, snap),
    )
}

/// Renders the sweep as a text table.
#[must_use]
pub fn render(rows: &[RecoveryRow]) -> String {
    let mut t = TextTable::new(vec![
        "ckpt interval",
        "mean faults",
        "controller",
        "faults",
        "GB/h",
        "goodput GB/h",
        "lost work h",
        "MTTR min",
        "recoveries",
        "data loss",
        "ckpt w/t",
    ]);
    for r in rows {
        t.row(vec![
            format!("{:.1} h", r.checkpoint_interval_hours),
            format!("{:.0} h", r.mean_interarrival_hours),
            r.controller.to_string(),
            r.faults_injected.to_string(),
            format!("{:.2}", r.throughput_gb_per_hour),
            format!("{:.2}", r.goodput_gb_per_hour),
            format!("{:.2}", r.lost_work_hours),
            format!("{:.1}", r.mttr_minutes),
            r.recoveries.to_string(),
            r.data_loss_events.to_string(),
            format!("{}/{}", r.checkpoints_written, r.checkpoints_torn),
        ]);
    }
    t.render()
}

/// Renders the sweep as a JSON array of row objects, one per cell.
#[must_use]
pub fn to_json(rows: &[RecoveryRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"checkpoint_interval_hours\":{},\"mean_interarrival_hours\":{},\
             \"controller\":\"{}\",\"faults_injected\":{},\
             \"throughput_gb_per_hour\":{},\"goodput_gb_per_hour\":{},\
             \"lost_work_hours\":{},\"mttr_minutes\":{},\"recoveries\":{},\
             \"data_loss_events\":{},\"checkpoints_written\":{},\
             \"checkpoints_torn\":{}}}{}\n",
            json_number(r.checkpoint_interval_hours),
            json_number(r.mean_interarrival_hours),
            json_escape(r.controller),
            r.faults_injected,
            json_number(r.throughput_gb_per_hour),
            json_number(r.goodput_gb_per_hour),
            json_number(r.lost_work_hours),
            json_number(r.mttr_minutes),
            r.recoveries,
            r.data_loss_events,
            r.checkpoints_written,
            r.checkpoints_torn,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean<F: Fn(&RecoveryRow) -> f64>(rows: &[RecoveryRow], controller: &str, f: F) -> f64 {
        let picked: Vec<f64> = rows
            .iter()
            .filter(|r| r.controller == controller)
            .map(f)
            .collect();
        picked.iter().sum::<f64>() / picked.len() as f64
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let rows = sweep_grid_with(11, &CHECKPOINT_INTERVALS_HOURS, &FAULT_RATES_HOURS, 1);
        assert_eq!(
            rows.len(),
            CHECKPOINT_INTERVALS_HOURS.len() * FAULT_RATES_HOURS.len() * 2
        );
        // Same seed + rate ⇒ both controllers face identical schedules,
        // regardless of checkpoint interval.
        for &ckpt in &CHECKPOINT_INTERVALS_HOURS {
            for &rate in &FAULT_RATES_HOURS {
                let cell: Vec<&RecoveryRow> = rows
                    .iter()
                    .filter(|r| {
                        r.checkpoint_interval_hours == ckpt && r.mean_interarrival_hours == rate
                    })
                    .collect();
                assert_eq!(cell.len(), 2);
                assert_eq!(cell[0].faults_injected, cell[1].faults_injected);
            }
        }
    }

    #[test]
    fn goodput_never_exceeds_throughput() {
        for r in sweep_grid_with(11, &CHECKPOINT_INTERVALS_HOURS, &FAULT_RATES_HOURS, 1) {
            assert!(
                r.goodput_gb_per_hour <= r.throughput_gb_per_hour + 1e-9,
                "{} ckpt {:.1} h rate {:.0} h: goodput {:.2} > throughput {:.2}",
                r.controller,
                r.checkpoint_interval_hours,
                r.mean_interarrival_hours,
                r.goodput_gb_per_hour,
                r.throughput_gb_per_hour
            );
            assert!(r.lost_work_hours >= 0.0);
            assert!(r.mttr_minutes >= 0.0);
        }
    }

    #[test]
    fn the_system_still_does_useful_work_under_faults() {
        let rows = sweep_grid_with(11, &CHECKPOINT_INTERVALS_HOURS, &FAULT_RATES_HOURS, 1);
        // Mean goodput stays positive at every checkpoint interval — the
        // recovery path keeps the cluster serving rather than thrashing.
        for &ckpt in &CHECKPOINT_INTERVALS_HOURS {
            let picked: Vec<f64> = rows
                .iter()
                .filter(|r| r.controller == "insure" && r.checkpoint_interval_hours == ckpt)
                .map(|r| r.goodput_gb_per_hour)
                .collect();
            let m = picked.iter().sum::<f64>() / picked.len() as f64;
            assert!(m > 0.0, "goodput collapsed at {ckpt:.1} h checkpoints");
        }
        // Checkpoints actually get written somewhere in the grid.
        assert!(rows.iter().any(|r| r.checkpoints_written > 0));
    }

    #[test]
    fn insure_preserves_more_goodput_than_baseline() {
        let rows = sweep_grid_with(11, &CHECKPOINT_INTERVALS_HOURS, &FAULT_RATES_HOURS, 1);
        let i = mean(&rows, "insure", |r| r.goodput_gb_per_hour);
        let b = mean(&rows, "baseline", |r| r.goodput_gb_per_hour);
        assert!(
            i > b,
            "insure mean goodput {i:.2} GB/h ≤ baseline {b:.2} GB/h"
        );
    }

    #[test]
    fn sweep_is_deterministic_in_the_seed() {
        let a = sweep_grid_with(5, &[1.0], &[2.0], 1);
        let b = sweep_grid_with(5, &[1.0], &[2.0], 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let serial = sweep_grid_with(11, &[1.0], &[2.0], 1);
        for threads in [0, 2, 4] {
            assert_eq!(sweep_grid_with(11, &[1.0], &[2.0], threads), serial);
        }
    }

    #[test]
    fn incremental_sweep_matches_scratch_exactly() {
        let intervals = [0.5, 1.0];
        let rates = [2.0];
        let scratch = sweep_grid_with(11, &intervals, &rates, 1);
        for threads in [1, 2] {
            assert_eq!(
                sweep_grid_incremental(11, &intervals, &rates, threads),
                scratch,
                "incremental path must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn render_and_json_cover_every_cell() {
        let rows = sweep_grid_with(3, &[0.5, 1.0], &[2.0], 1);
        let text = render(&rows);
        assert!(text.contains("goodput GB/h"));
        assert!(text.contains("MTTR min"));
        assert!(text.contains("insure"));
        assert!(text.contains("baseline"));
        let json = to_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"controller\"").count(), rows.len());
        assert!(!json.contains("inf") && !json.contains("NaN"));
    }
}
