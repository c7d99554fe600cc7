//! Fleet resilience: sites × fault rate × breaker policy sweep.
//!
//! The paper's scale-out story (Figs. 23/24) ends at one site; this
//! experiment runs the `ins-fleet` federation — N full in-situ sites
//! behind the fault-tolerant router — for one day per cell under the
//! fleet-level fault menu (site blackouts, WAN partitions, routing
//! flaps, slow sites) and reports what the robustness machinery buys:
//! global stream/batch goodput, explicit shed/failed accounting (zero
//! silent drops), retry/hedge volume, breaker trips and resets, site
//! availability, and the energy wasted on misrouted work.
//!
//! Determinism: a cell is a pure function of `(seed, sites, rate,
//! breaker)`; rows come back in grid order, so the sweep's output —
//! including `--json` — is byte-identical at any thread count.

use ins_fleet::breaker::BreakerPolicy;
use ins_fleet::fleet::{Fleet, FleetConfig, FleetSnapshot};
use ins_fleet::metrics::FleetMetrics;
use ins_sim::time::SimDuration;

use crate::export::{json_escape, json_number};
use crate::table::TextTable;

/// The swept fleet sizes.
pub const FLEET_SIZES: [usize; 3] = [2, 4, 6];

/// The swept mean fleet-fault inter-arrival times (hours); `0` = fault-free.
pub const FAULT_RATES_HOURS: [f64; 3] = [0.0, 4.0, 2.0];

/// The swept breaker policies (see [`BreakerPolicy::by_name`]).
pub const BREAKER_POLICIES: [&str; 3] = ["standard", "aggressive", "none"];

/// The default grid point the acceptance criterion quotes: 4 sites,
/// 2-hour mean fault inter-arrival, the standard breaker.
pub const DEFAULT_GRID_POINT: (usize, f64, &str) = (4, 2.0, "standard");

/// One sites × fault-rate × breaker cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRow {
    /// Number of federated sites.
    pub sites: usize,
    /// Mean fleet-fault inter-arrival, hours (0 = faults disabled).
    pub mean_interarrival_hours: f64,
    /// Breaker policy short name.
    pub breaker: &'static str,
    /// Fleet-level faults applied during the day.
    pub fleet_faults: u64,
    /// Stream goodput: served / offered volume, in `[0, 1]`.
    pub stream_goodput: f64,
    /// Streams served in full.
    pub stream_served: u64,
    /// Streams served at reduced rate.
    pub stream_degraded: u64,
    /// Streams that failed every attempt.
    pub stream_failed: u64,
    /// Batch goodput: served / offered volume, in `[0, 1]`.
    pub batch_goodput: f64,
    /// Batch requests explicitly shed.
    pub batch_shed: u64,
    /// Sequential retries fired by the router.
    pub retries: u64,
    /// Hedged (duplicated) sends.
    pub hedges: u64,
    /// Circuit-breaker trips across all sites.
    pub breaker_trips: u64,
    /// Full Half-open → Closed breaker recoveries.
    pub breaker_resets: u64,
    /// Mean per-site routable fraction.
    pub mean_availability: f64,
    /// Worst per-site routable fraction.
    pub min_availability: f64,
    /// Energy spent on work no accepted response came from, Wh.
    pub misrouted_wh: f64,
    /// The zero-silent-drop invariant: every request resolved.
    pub all_resolved: bool,
}

fn fault_mean(rate_hours: f64) -> Option<SimDuration> {
    (rate_hours > 0.0).then(|| SimDuration::from_secs((rate_hours * 3600.0) as u64))
}

fn config_for(seed: u64, sites: usize, rate_hours: f64, breaker: &'static str) -> FleetConfig {
    let mut config = FleetConfig::new(seed, sites);
    config.breaker = BreakerPolicy::by_name(breaker).unwrap_or_else(BreakerPolicy::standard);
    config.fleet_fault_mean = fault_mean(rate_hours);
    config
}

fn row_from(sites: usize, rate_hours: f64, breaker: &'static str, m: &FleetMetrics) -> FleetRow {
    FleetRow {
        sites,
        mean_interarrival_hours: rate_hours,
        breaker,
        fleet_faults: m.fleet_faults,
        stream_goodput: m.stream.goodput_fraction(),
        stream_served: m.stream.served,
        stream_degraded: m.stream.served_degraded,
        stream_failed: m.stream.failed,
        batch_goodput: m.batch.goodput_fraction(),
        batch_shed: m.batch.shed,
        retries: m.retries,
        hedges: m.hedges,
        breaker_trips: m.breaker_trips,
        breaker_resets: m.breaker_resets,
        mean_availability: m.mean_availability(),
        min_availability: m.min_availability(),
        misrouted_wh: m.misrouted_wh,
        all_resolved: m.all_requests_resolved(),
    }
}

/// Runs one 24-hour fleet day and collapses it to a row.
#[must_use]
pub fn run_cell(seed: u64, sites: usize, rate_hours: f64, breaker: &'static str) -> FleetRow {
    let mut fleet = Fleet::new(config_for(seed, sites, rate_hours, breaker));
    fleet.run_to_horizon();
    row_from(sites, rate_hours, breaker, &fleet.metrics())
}

/// Sweeps sites × fault rate × breaker grids, fanned across `threads`
/// workers.
///
/// Every cell is a pure function of its grid coordinates and `seed`,
/// and rows come back in grid order, so the output is byte-identical
/// at any thread count. `threads == 0` uses available parallelism.
#[must_use]
pub fn sweep_grid_with(
    seed: u64,
    sizes: &[usize],
    rates_hours: &[f64],
    breakers: &[&'static str],
    threads: usize,
) -> Vec<FleetRow> {
    let mut cells: Vec<(usize, f64, &'static str)> = Vec::new();
    for &n in sizes {
        for &rate in rates_hours {
            for &b in breakers {
                cells.push((n, rate, b));
            }
        }
    }
    crate::runner::run_cells(threads, &cells, |_, &(n, rate, b)| {
        run_cell(seed, n, rate, b)
    })
}

/// [`sweep_grid_with`] on the incremental shared-prefix path.
///
/// Cells are grouped by `(sites, breaker)` — everything that shapes a
/// fleet's fault-free trajectory. Fault rate varies within a group: the
/// group's prefix fleet runs fault-free to the routing-tick boundary
/// before the earliest first fault across its members' schedules, then
/// each cell forks via [`Fleet::fork_from`] under its own fault mean.
/// Byte-identical to [`sweep_grid_with`] at any thread count.
#[must_use]
pub fn sweep_grid_incremental(
    seed: u64,
    sizes: &[usize],
    rates_hours: &[f64],
    breakers: &[&'static str],
    threads: usize,
) -> Vec<FleetRow> {
    let mut cells: Vec<(usize, f64, &'static str)> = Vec::new();
    for &n in sizes {
        for &rate in rates_hours {
            for &b in breakers {
                cells.push((n, rate, b));
            }
        }
    }
    let tick = FleetConfig::new(0, 1).tick;
    crate::runner::run_cells_incremental(
        threads,
        &cells,
        tick,
        |&(n, rate, b)| {
            let diverges = fault_mean(rate).and_then(|_| {
                config_for(seed, n, rate, b)
                    .fault_schedule()
                    .first_event_at()
            });
            ((n, b), diverges)
        },
        |&(n, b): &(usize, &'static str), fork_at| {
            let mut fleet = Fleet::new(config_for(seed, n, 0.0, b));
            while fleet.now() < fork_at {
                fleet.step_tick();
            }
            fleet.snapshot().ok()
        },
        |_, &(n, rate, b), snap: Option<&FleetSnapshot>| match snap {
            Some(snapshot) => {
                let mut fleet = Fleet::fork_from(snapshot, fault_mean(rate));
                fleet.run_to_horizon();
                row_from(n, rate, b, &fleet.metrics())
            }
            None => run_cell(seed, n, rate, b),
        },
    )
}

/// Renders the sweep as a text table.
#[must_use]
pub fn render(rows: &[FleetRow]) -> String {
    let mut t = TextTable::new(vec![
        "sites",
        "mean faults",
        "breaker",
        "faults",
        "stream goodput",
        "degraded",
        "failed",
        "batch shed",
        "retries",
        "hedges",
        "trips/resets",
        "avail mean/min",
        "misrouted Wh",
    ]);
    for r in rows {
        t.row(vec![
            r.sites.to_string(),
            if r.mean_interarrival_hours > 0.0 {
                format!("{:.0} h", r.mean_interarrival_hours)
            } else {
                "off".to_string()
            },
            r.breaker.to_string(),
            r.fleet_faults.to_string(),
            format!("{:.3}", r.stream_goodput),
            r.stream_degraded.to_string(),
            r.stream_failed.to_string(),
            r.batch_shed.to_string(),
            r.retries.to_string(),
            r.hedges.to_string(),
            format!("{}/{}", r.breaker_trips, r.breaker_resets),
            format!("{:.3}/{:.3}", r.mean_availability, r.min_availability),
            format!("{:.1}", r.misrouted_wh),
        ]);
    }
    t.render()
}

/// Renders the sweep as a JSON array of row objects, one per cell.
#[must_use]
pub fn to_json(rows: &[FleetRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"sites\":{},\"mean_interarrival_hours\":{},\"breaker\":\"{}\",\
             \"fleet_faults\":{},\"stream_goodput\":{},\"stream_served\":{},\
             \"stream_degraded\":{},\"stream_failed\":{},\"batch_goodput\":{},\
             \"batch_shed\":{},\"retries\":{},\"hedges\":{},\"breaker_trips\":{},\
             \"breaker_resets\":{},\"mean_availability\":{},\"min_availability\":{},\
             \"misrouted_wh\":{},\"all_resolved\":{}}}{}\n",
            r.sites,
            json_number(r.mean_interarrival_hours),
            json_escape(r.breaker),
            r.fleet_faults,
            json_number(r.stream_goodput),
            r.stream_served,
            r.stream_degraded,
            r.stream_failed,
            json_number(r.batch_goodput),
            r.batch_shed,
            r.retries,
            r.hedges,
            r.breaker_trips,
            r.breaker_resets,
            json_number(r.mean_availability),
            json_number(r.min_availability),
            json_number(r.misrouted_wh),
            r.all_resolved,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_the_full_grid_and_resolves_everything() {
        let rows = sweep_grid_with(11, &[2], &FAULT_RATES_HOURS, &BREAKER_POLICIES, 0);
        assert_eq!(rows.len(), FAULT_RATES_HOURS.len() * BREAKER_POLICIES.len());
        for r in &rows {
            assert!(r.all_resolved, "silent drop in {r:?}");
            assert!((0.0..=1.0).contains(&r.stream_goodput));
            assert!((0.0..=1.0).contains(&r.mean_availability));
            assert!(r.min_availability <= r.mean_availability + 1e-12);
        }
    }

    #[test]
    fn fault_free_cells_see_no_fleet_faults() {
        let r = run_cell(11, 2, 0.0, "standard");
        assert_eq!(r.fleet_faults, 0);
        assert_eq!(
            r.stream_degraded + r.batch_shed,
            r.stream_degraded + r.batch_shed
        );
        assert!(
            r.stream_goodput > 0.4,
            "healthy goodput {}",
            r.stream_goodput
        );
    }

    #[test]
    fn default_grid_point_keeps_most_goodput_under_faults() {
        // The acceptance criterion: at the default grid point, faults on
        // vs off must keep ≥ 80 % of stream goodput, with nothing
        // silently dropped.
        let (sites, rate, breaker) = DEFAULT_GRID_POINT;
        let faulty = run_cell(11, sites, rate, breaker);
        let clean = run_cell(11, sites, 0.0, breaker);
        assert!(faulty.all_resolved && clean.all_resolved);
        assert!(
            faulty.stream_goodput >= 0.8 * clean.stream_goodput,
            "faulty {} < 80% of clean {}",
            faulty.stream_goodput,
            clean.stream_goodput
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_exactly() {
        let serial = sweep_grid_with(7, &[2], &[0.0, 2.0], &["standard"], 1);
        for threads in [0, 2, 4] {
            assert_eq!(
                sweep_grid_with(7, &[2], &[0.0, 2.0], &["standard"], threads),
                serial
            );
        }
    }

    #[test]
    fn incremental_sweep_matches_scratch_exactly() {
        let serial = sweep_grid_with(7, &[2], &[0.0, 2.0], &["standard"], 1);
        for threads in [1, 2] {
            assert_eq!(
                sweep_grid_incremental(7, &[2], &[0.0, 2.0], &["standard"], threads),
                serial,
                "incremental fleet path must be byte-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn render_and_json_cover_every_cell() {
        let rows = sweep_grid_with(3, &[2], &[0.0, 2.0], &["standard", "none"], 0);
        let text = render(&rows);
        assert!(text.contains("stream goodput"));
        assert!(text.contains("standard"));
        let json = to_json(&rows);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(json.matches("\"sites\"").count(), rows.len());
        assert!(!json.contains("inf") && !json.contains("NaN"));
    }
}
