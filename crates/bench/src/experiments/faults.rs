//! Robustness evaluation: fault-rate sweep.
//!
//! Not a figure from the paper — the paper's prototype ran fault-free —
//! but the natural stress test of its §3 claim that a reconfigurable,
//! per-unit-managed e-Buffer degrades gracefully where a unified buffer
//! fails as a block. A seeded stochastic [`FaultSchedule`] throws
//! battery, relay, charger, sensor and server faults at the system at a
//! swept mean rate, and the sweep reports uptime, delivered throughput
//! and energy availability for InSURE vs the unified-buffer baseline.
//!
//! Determinism: every row at the same `seed` replays the same weather
//! and the same fault arrivals, so controller columns differ only by
//! policy.

use ins_core::system::{InSituSystem, SystemEvent, SystemSnapshot};
use ins_sim::fault::{FaultEvent, FaultSchedule};
use ins_sim::time::SimDuration;
use ins_solar::trace::high_generation_day;

use super::{controller, day, run_day, STEP, TARGETS};
use crate::runner::{run_cells, run_cells_incremental};
use crate::table::TextTable;

/// One controller × fault-rate cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSweepRow {
    /// Mean fault inter-arrival time in hours; `f64::INFINITY` for the
    /// fault-free reference row.
    pub mean_interarrival_hours: f64,
    /// Controller short name (`insure` / `baseline`).
    pub controller: &'static str,
    /// Faults actually injected during the day.
    pub faults_injected: usize,
    /// Rack availability over the day.
    pub uptime: f64,
    /// Delivered throughput, GB/hour.
    pub gb_per_hour: f64,
    /// Time-average stored energy, Wh (§6.3's energy availability).
    pub energy_availability_wh: f64,
    /// Brown-out events.
    pub brownouts: usize,
}

/// The swept mean inter-arrival times (hours). `None` is the fault-free
/// reference column.
pub const RATES_HOURS: [Option<f64>; 5] = [None, Some(8.0), Some(4.0), Some(2.0), Some(1.0)];

fn schedule_for(seed: u64, mean_hours: Option<f64>) -> FaultSchedule {
    match mean_hours {
        None => FaultSchedule::empty(),
        Some(h) => FaultSchedule::stochastic(
            seed,
            SimDuration::from_hours(24),
            SimDuration::from_secs((h * 3600.0) as u64),
            TARGETS,
        ),
    }
}

/// A schedule whose every event lands in the last quarter of the day,
/// `[18 h, 24 h)`: the first 75 % of each cell's trajectory is
/// fault-free and therefore shared across the whole grid. This is the
/// benchmark grid for measuring the incremental sweep's speedup — the
/// default [`schedule_for`] grids draw their first event early, so their
/// shared prefixes are short.
#[must_use]
pub fn late_window_schedule_for(seed: u64, mean_hours: Option<f64>) -> FaultSchedule {
    let Some(h) = mean_hours else {
        return FaultSchedule::empty();
    };
    let window = FaultSchedule::stochastic(
        seed,
        SimDuration::from_hours(6),
        SimDuration::from_secs((h * 3600.0) as u64),
        TARGETS,
    );
    let offset = SimDuration::from_hours(18);
    let events: Vec<FaultEvent> = window
        .events()
        .iter()
        .map(|e| FaultEvent {
            at: e.at + offset,
            kind: e.kind,
        })
        .collect();
    FaultSchedule::from_events(seed, events)
}

/// Sweeps a fault-rate grid × {InSURE, baseline} across `threads`
/// workers; two rows per rate. `None` entries are fault-free reference
/// rows.
///
/// Every cell is a pure function of `(seed, rate, controller)` — both
/// controllers at a rate deliberately replay the *same* seeded fault
/// schedule — and rows come back in grid order, so the output is
/// byte-identical at any thread count. `threads == 0` uses available
/// parallelism.
#[must_use]
pub fn sweep_rates_with(seed: u64, rates: &[Option<f64>], threads: usize) -> Vec<FaultSweepRow> {
    sweep_schedules(seed, rates, threads, false, |rate| schedule_for(seed, rate))
}

/// [`sweep_rates_with`] on the incremental shared-prefix path.
///
/// Cells are grouped by controller (the only axis that shapes the
/// fault-free trajectory); each group's prefix is simulated once up to
/// the step-aligned instant before the group's earliest fault event,
/// snapshotted, and every cell forks from the snapshot under its own
/// schedule. [`InSituSystem::fork_from`] re-derives the sensor RNG from
/// the cell's schedule seed exactly as a from-scratch build would, so
/// rows are byte-identical to [`sweep_rates_with`] at any thread count.
#[must_use]
pub fn sweep_rates_incremental(
    seed: u64,
    rates: &[Option<f64>],
    threads: usize,
) -> Vec<FaultSweepRow> {
    sweep_schedules(seed, rates, threads, true, |rate| schedule_for(seed, rate))
}

/// Sweeps the late-window benchmark grid (`[18 h, 24 h)` fault windows,
/// 75 % shared prefix) on either path. Used by `bench_report` to record
/// the incremental engine's speedup on a grid whose cells genuinely
/// share most of their trajectory.
#[must_use]
pub fn sweep_shared_window(
    seed: u64,
    rates: &[Option<f64>],
    threads: usize,
    incremental: bool,
) -> Vec<FaultSweepRow> {
    sweep_schedules(seed, rates, threads, incremental, |rate| {
        late_window_schedule_for(seed, rate)
    })
}

/// Runs fault rate × {InSURE, baseline} under `schedule_of(rate)`, from
/// scratch or, when `incremental`, forked from each controller's shared
/// fault-free prefix.
fn sweep_schedules<F>(
    seed: u64,
    rates: &[Option<f64>],
    threads: usize,
    incremental: bool,
    schedule_of: F,
) -> Vec<FaultSweepRow>
where
    F: Fn(Option<f64>) -> FaultSchedule + Sync,
{
    let cells: Vec<(Option<f64>, &'static str)> = rates
        .iter()
        .flat_map(|&rate| [(rate, "insure"), (rate, "baseline")])
        .collect();
    let solar = high_generation_day(seed);
    let run = |&(rate, name): &(Option<f64>, &'static str), snap: Option<&SystemSnapshot>| {
        let mut sys = match snap {
            Some(snapshot) => InSituSystem::fork_from(snapshot, schedule_of(rate)),
            None => day(solar.clone(), controller(name))
                .fault_schedule(schedule_of(rate))
                .build(),
        };
        let metrics = run_day(&mut sys);
        FaultSweepRow {
            mean_interarrival_hours: rate.unwrap_or(f64::INFINITY),
            controller: name,
            faults_injected: sys
                .events()
                .count(|e| matches!(e, SystemEvent::FaultInjected(_))),
            uptime: metrics.uptime,
            gb_per_hour: metrics.throughput_gb_per_hour,
            energy_availability_wh: metrics.mean_stored_energy_wh,
            brownouts: metrics.brownouts,
        }
    };
    if !incremental {
        return run_cells(threads, &cells, |_, cell| run(cell, None));
    }
    run_cells_incremental(
        threads,
        &cells,
        STEP,
        |&(rate, name)| (name, schedule_of(rate).first_event_at()),
        |name: &&'static str, fork_at| {
            // The prefix replays every cell's fault-free warm-up: same
            // weather, same controller, no events. The schedule seed is
            // irrelevant here — the sensor RNG it feeds is only consumed
            // inside noise windows, and a fault-free prefix has none;
            // the fork re-derives it from the cell's own schedule.
            let mut sys = day(solar.clone(), controller(name))
                .fault_schedule(FaultSchedule::from_events(seed, Vec::new()))
                .build();
            sys.run_until(fork_at);
            sys.snapshot().ok()
        },
        |_, cell, snap| run(cell, snap),
    )
}

/// Renders the sweep as a fault-rate table.
#[must_use]
pub fn render(rows: &[FaultSweepRow]) -> String {
    let mut t = TextTable::new(vec![
        "mean interarrival",
        "controller",
        "faults",
        "uptime",
        "GB/h",
        "buffer Wh",
        "brownouts",
    ]);
    for r in rows {
        let rate = if r.mean_interarrival_hours.is_infinite() {
            "no faults".to_string()
        } else {
            format!("{:.0} h", r.mean_interarrival_hours)
        };
        t.row(vec![
            rate,
            r.controller.to_string(),
            r.faults_injected.to_string(),
            format!("{:.1} %", r.uptime * 100.0),
            format!("{:.2}", r.gb_per_hour),
            format!("{:.0}", r.energy_availability_wh),
            r.brownouts.to_string(),
        ]);
    }
    t.render()
}

/// Renders the sweep as a JSON array of row objects, one per cell.
/// The fault-free reference row's inter-arrival time is `null`.
#[must_use]
pub fn to_json(rows: &[FaultSweepRow]) -> String {
    use crate::export::{json_escape, json_number};
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"mean_interarrival_hours\":{},\"controller\":\"{}\",\
             \"faults_injected\":{},\"uptime\":{},\"gb_per_hour\":{},\
             \"energy_availability_wh\":{},\"brownouts\":{}}}{}\n",
            json_number(r.mean_interarrival_hours),
            json_escape(r.controller),
            r.faults_injected,
            json_number(r.uptime),
            json_number(r.gb_per_hour),
            json_number(r.energy_availability_wh),
            r.brownouts,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_sim::time::SimTime;

    fn row<'a>(
        rows: &'a [FaultSweepRow],
        controller: &str,
        rate: Option<f64>,
    ) -> &'a FaultSweepRow {
        let want = rate.unwrap_or(f64::INFINITY);
        rows.iter()
            .find(|r| r.controller == controller && r.mean_interarrival_hours == want)
            .expect("sweep covers every cell")
    }

    #[test]
    fn sweep_covers_every_rate_and_controller() {
        let rows = sweep_rates_with(11, &RATES_HOURS, 1);
        assert_eq!(rows.len(), RATES_HOURS.len() * 2);
        // Fault-free rows inject nothing; faulty rows inject something at
        // the aggressive end.
        assert_eq!(row(&rows, "insure", None).faults_injected, 0);
        assert!(row(&rows, "insure", Some(1.0)).faults_injected > 0);
        // Same seed + rate ⇒ both controllers faced identical schedules.
        for rate in RATES_HOURS {
            assert_eq!(
                row(&rows, "insure", rate).faults_injected,
                row(&rows, "baseline", rate).faults_injected
            );
        }
    }

    #[test]
    fn insure_outperforms_baseline_under_faults() {
        let rows = sweep_rates_with(11, &RATES_HOURS, 1);
        for rate in RATES_HOURS {
            let i = row(&rows, "insure", rate);
            let b = row(&rows, "baseline", rate);
            // Strictly more work delivered and strictly fewer brown-outs
            // at every fault rate. (Under the heaviest schedules InSURE's
            // degraded mode deliberately sheds VMs — so raw uptime can
            // dip near the baseline's — but it converts the energy it
            // does have into far more service, far more smoothly.)
            assert!(
                i.gb_per_hour > b.gb_per_hour,
                "rate {:?}: insure {:.2} GB/h ≤ baseline {:.2}",
                rate,
                i.gb_per_hour,
                b.gb_per_hour
            );
            assert!(
                i.brownouts < b.brownouts,
                "rate {:?}: insure {} brownouts ≥ baseline {}",
                rate,
                i.brownouts,
                b.brownouts
            );
            assert!(
                i.energy_availability_wh > b.energy_availability_wh,
                "rate {:?}: insure buffer {:.0} Wh ≤ baseline {:.0}",
                rate,
                i.energy_availability_wh,
                b.energy_availability_wh
            );
        }
        // Uptime: better on average across the sweep.
        let mean = |name: &str| -> f64 {
            let picked: Vec<f64> = rows
                .iter()
                .filter(|r| r.controller == name)
                .map(|r| r.uptime)
                .collect();
            picked.iter().sum::<f64>() / picked.len() as f64
        };
        assert!(
            mean("insure") > mean("baseline"),
            "insure mean uptime {:.3} ≤ baseline {:.3}",
            mean("insure"),
            mean("baseline")
        );
    }

    #[test]
    fn insure_degrades_gracefully_not_catastrophically() {
        let rows = sweep_rates_with(11, &RATES_HOURS, 1);
        let clean = row(&rows, "insure", None);
        let worst = row(&rows, "insure", Some(1.0));
        // Faults cost performance (they should: this is a fault sweep)…
        assert!(worst.gb_per_hour <= clean.gb_per_hour * 1.05);
        // …but the system keeps serving rather than collapsing.
        assert!(
            worst.uptime > 0.05,
            "uptime collapsed to {:.3} under 1 h mean faults",
            worst.uptime
        );
        assert!(worst.gb_per_hour > 0.0, "no work done under faults");
    }

    #[test]
    fn sweep_is_deterministic_in_the_seed() {
        let a = sweep_rates_with(5, &RATES_HOURS, 1);
        let b = sweep_rates_with(5, &RATES_HOURS, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let rates = [None, Some(2.0)];
        let serial = sweep_rates_with(11, &rates, 1);
        for threads in [0, 2, 4] {
            assert_eq!(sweep_rates_with(11, &rates, threads), serial);
        }
    }

    #[test]
    fn incremental_sweep_matches_scratch_exactly() {
        let rates = [None, Some(2.0)];
        let scratch = sweep_rates_with(11, &rates, 1);
        for threads in [1, 2] {
            assert_eq!(
                sweep_rates_incremental(11, &rates, threads),
                scratch,
                "incremental path must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn late_window_schedules_share_three_quarters_of_the_day() {
        let schedule = late_window_schedule_for(11, Some(0.5));
        assert!(!schedule.is_empty(), "a 30 min mean over 6 h draws events");
        let first = schedule.first_event_at().expect("non-empty schedule");
        assert!(
            first >= SimTime::from_hms(18, 0, 0),
            "every event must land in the final quarter, first at {first:?}"
        );
        assert!(late_window_schedule_for(11, None).is_empty());
    }

    #[test]
    fn shared_window_sweep_is_path_independent() {
        let rates = [Some(3.0), Some(1.5)];
        let scratch = sweep_shared_window(11, &rates, 1, false);
        let incremental = sweep_shared_window(11, &rates, 1, true);
        assert_eq!(incremental, scratch);
        // The benchmark grid really does inject faults.
        assert!(scratch.iter().any(|r| r.faults_injected > 0));
    }

    #[test]
    fn render_mentions_every_rate() {
        let rows = sweep_rates_with(3, &RATES_HOURS, 1);
        let text = render(&rows);
        assert!(text.contains("no faults"));
        assert!(text.contains("1 h"));
        assert!(text.contains("insure"));
        assert!(text.contains("baseline"));
    }

    #[test]
    fn custom_rate_grid_is_honoured() {
        let rows = sweep_rates_with(7, &[Some(6.0), Some(3.0)], 1);
        assert_eq!(rows.len(), 4);
        assert!(rows
            .iter()
            .all(|r| r.mean_interarrival_hours == 6.0 || r.mean_interarrival_hours == 3.0));
    }

    #[test]
    fn json_rows_are_well_formed() {
        let rows = sweep_rates_with(7, &[None, Some(2.0)], 1);
        let json = to_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        // The fault-free reference renders its rate as null, not Infinity.
        assert!(json.contains("\"mean_interarrival_hours\":null"));
        assert!(!json.contains("inf"));
        assert_eq!(json.matches("\"controller\"").count(), rows.len());
    }
}
