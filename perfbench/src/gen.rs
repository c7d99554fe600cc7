//! Seeded input generators. Each workload receives only what these
//! return; the same seed always yields byte-identical inputs.

use ins_bench::experiments::{faults, recovery};
use ins_service::{AdmissionConfig, EngineFault};
use ins_sim::fault::{FaultSchedule, FaultTargets};
use ins_sim::rng::SimRng;
use ins_sim::time::SimDuration;
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;
use ins_solar::SolarTrace;
use ins_workload::batch::BatchSpec;
use ins_workload::stream::StreamSpec;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_150_613;

/// Seed reserved for validating a later performance claim: it must not be
/// used while the claimed change is written or tuned.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Simulated days in the `endurance` run.
pub const ENDURANCE_DAYS: usize = 90;

/// Days covered by the `service_replay` feed.
pub const FEED_DAYS: u64 = 7;

/// Grid seeds one `sweep_grid` repetition runs.
pub const SWEEP_SEEDS: usize = 3;

/// Fleet seeds one `fleet_day` repetition runs.
pub const FLEET_SEEDS: usize = 8;

/// Sites in the default fleet grid point.
pub const FLEET_SITES: usize = 4;

/// Mean fleet-fault inter-arrival at the default grid point.
pub const FLEET_FAULT_MEAN_HOURS: u64 = 2;

/// Shape of the prototype plant the sweep schedules target.
pub const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};

/// `n` child seeds of `seed` under `label`.
#[must_use]
pub fn derived_seeds(seed: u64, label: &str, n: usize) -> Vec<u64> {
    let root = SimRng::seed(seed);
    (0..n)
        .map(|i| root.fork_seed(&format!("{label}-{i}")))
        .collect()
}

/// `days` day types at sunshine fraction 0.6 (40 % sunny, 40 % cloudy,
/// 20 % rainy, the split `DayWeather::mix_for_sunshine_fraction` draws
/// from) in exact proportion, in a seeded order. Exact counts keep the
/// simulated work the same for every seed, so seeds change the inputs
/// without changing how much there is to simulate.
#[must_use]
pub fn weather_mix(rng: &mut SimRng, days: usize) -> Vec<DayWeather> {
    let sunny = (days * 2).div_ceil(5);
    let cloudy = (days * 2).div_ceil(5).min(days - sunny);
    let mut mix: Vec<DayWeather> = (0..days)
        .map(|i| {
            if i < sunny {
                DayWeather::Sunny
            } else if i < sunny + cloudy {
                DayWeather::Cloudy
            } else {
                DayWeather::Rainy
            }
        })
        .collect();
    for i in (1..days).rev() {
        mix.swap(i, rng.next_index(i + 1));
    }
    mix
}

/// The `endurance` weather: one day type per simulated day.
#[must_use]
pub fn endurance_weather(seed: u64) -> Vec<DayWeather> {
    weather_mix(
        &mut SimRng::seed(seed).fork("endurance-weather"),
        ENDURANCE_DAYS,
    )
}

/// The `endurance` solar trace over [`endurance_weather`].
#[must_use]
pub fn endurance_solar(seed: u64) -> SolarTrace {
    SolarTraceBuilder::new()
        .seed(SimRng::seed(seed).fork_seed("endurance-solar"))
        .build_days(&endurance_weather(seed))
}

/// Stream traffic of the `service_replay` feed that no spec in the
/// repository gives: bursts of camera activity. Unverified assumptions,
/// listed in the README.
pub mod stream_bursts {
    /// Chance per minute that a calm spell turns into a burst.
    pub const ONSET_PER_MIN: f64 = 0.01;
    /// Chance per minute that a burst ends (30 min mean length).
    pub const END_PER_MIN: f64 = 1.0 / 30.0;
    /// Offered rate during a burst, as a multiple of the mean rate.
    pub const BURST_FACTOR: f64 = 3.0;
    /// Each minute's offer is its spell's rate times a uniform factor in
    /// `[1 - JITTER, 1 + JITTER]`.
    pub const JITTER: f64 = 0.5;

    /// Offered rate in calm spells, as a multiple of the mean rate, so
    /// that the long-run mean is the spec's rate.
    #[must_use]
    pub fn calm_factor() -> f64 {
        let burst_share = ONSET_PER_MIN / (ONSET_PER_MIN + END_PER_MIN);
        (1.0 - burst_share * BURST_FACTOR) / (1.0 - burst_share)
    }
}

/// The `service_replay` feed as replay-format text: one row per minute
/// with harvested solar power and the camera streams' offer.
///
/// The streams offer `StreamSpec::video_surveillance()`'s 0.21 GB/min on
/// average (the paper's 24-camera feed), in calm spells and bursts (see
/// [`stream_bursts`]). Even a burst minute offers far less than the
/// prototype's 10 GB per-period release, so streams never hit
/// backpressure on their own.
#[must_use]
pub fn service_feed(seed: u64) -> String {
    use stream_bursts::{BURST_FACTOR, END_PER_MIN, JITTER, ONSET_PER_MIN};
    let rng = SimRng::seed(seed);
    let weather = weather_mix(&mut rng.fork("feed-weather"), FEED_DAYS as usize);
    let solar = SolarTraceBuilder::new()
        .seed(rng.fork_seed("feed-solar"))
        .build_days(&weather);
    let mean = StreamSpec::video_surveillance().rate_gb_per_min;
    let calm = stream_bursts::calm_factor();
    let mut offers = rng.fork("feed-offers");
    let mut burst = false;
    let mut out = String::from("# time_s, solar_w, work_gb\n");
    for minute in 0..FEED_DAYS * 1440 {
        let t = ins_sim::time::SimTime::from_secs(minute * 60);
        burst = if burst {
            !offers.chance(END_PER_MIN)
        } else {
            offers.chance(ONSET_PER_MIN)
        };
        let factor = if burst { BURST_FACTOR } else { calm };
        let work = mean * factor * offers.uniform(1.0 - JITTER, 1.0 + JITTER);
        out.push_str(&format!(
            "{}, {:.3}, {:.3}\n",
            minute * 60,
            solar.power_at(t).value(),
            work
        ));
    }
    out
}

/// Batch `offer`s and engine-fault `inject`s for `service_replay`,
/// keyed by the tick before which they happen.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSchedule {
    /// `(tick, GB)` batch offers, in tick order.
    pub batch: Vec<(u64, f64)>,
    /// `(tick, fault)` engine faults, in tick order.
    pub faults: Vec<(u64, EngineFault)>,
}

/// Minutes after its scheduled hour within which a survey's upload
/// starts, uniformly: an unverified assumption.
pub const SURVEY_START_SPREAD_MIN: usize = 60;

/// Mean ticks between injected engine faults: an unverified assumption
/// (one every 8 hours).
pub const ENGINE_FAULT_MEAN_TICKS: f64 = 480.0;

/// The seeded `service_replay` schedule.
///
/// Batch work is `BatchSpec::seismic()`: a 114 GB survey at 07:00 and at
/// 13:00 each day. The 40 GB intake queue cannot take a survey whole, so
/// each is offered as the fewest equal chunks that fit one period's
/// release, one chunk per period, starting a seeded number of minutes
/// after its hour. Engine panics and stalls arrive at random, one every
/// [`ENGINE_FAULT_MEAN_TICKS`] on average.
#[must_use]
pub fn service_schedule(seed: u64) -> ServiceSchedule {
    let ticks = FEED_DAYS * 1440;
    let mut rng = SimRng::seed(seed).fork("service-schedule");
    let survey = BatchSpec::seismic();
    let release = AdmissionConfig::prototype().release_per_period_gb;
    let chunks = (survey.job_gb / release).ceil() as u64;
    let chunk_gb = survey.job_gb / chunks as f64;
    let mut batch = Vec::new();
    for day in 0..FEED_DAYS {
        for &hour in &survey.arrivals {
            let start =
                day * 1440 + (hour * 60.0) as u64 + rng.next_index(SURVEY_START_SPREAD_MIN) as u64;
            batch.extend((start..start + chunks).map(|tick| (tick, chunk_gb)));
        }
    }
    batch.retain(|&(tick, _)| tick < ticks);
    batch.sort_by_key(|&(tick, _)| tick);
    let mut faults = Vec::new();
    for tick in 0..ticks {
        if rng.chance(1.0 / ENGINE_FAULT_MEAN_TICKS) {
            let fault = if rng.chance(0.5) {
                EngineFault::Panicked
            } else {
                EngineFault::Stalled
            };
            faults.push((tick, fault));
        }
    }
    ServiceSchedule { batch, faults }
}

/// Which of the three user grids a cell belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// `fault_sweep`: rate × {insure, baseline}.
    Faults,
    /// `recovery`: checkpoint interval × rate × {insure, baseline}.
    Recovery,
    /// The late-window shared-prefix grid.
    Shared,
}

impl Grid {
    /// All grids, in the order `sweep_grid` runs them.
    pub const ALL: [Grid; 3] = [Grid::Faults, Grid::Recovery, Grid::Shared];

    /// Report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Grid::Faults => "faults",
            Grid::Recovery => "recovery",
            Grid::Shared => "shared",
        }
    }
}

/// One `sweep_grid` cell: its grid, seed, coordinates and fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The grid it belongs to.
    pub grid: Grid,
    /// Grid seed (weather and fault arrivals).
    pub seed: u64,
    /// Checkpoint interval, hours (recovery grid only).
    pub checkpoint_hours: Option<f64>,
    /// Mean fault inter-arrival, hours; `None` is fault-free.
    pub rate_hours: Option<f64>,
    /// Controller short name.
    pub controller: &'static str,
    /// The cell's fault schedule.
    pub schedule: FaultSchedule,
}

fn hours(h: f64) -> SimDuration {
    SimDuration::from_secs((h * 3600.0) as u64)
}

/// Every cell of the three grids for one grid seed, in the row order the
/// public experiment functions return.
#[must_use]
pub fn sweep_cells(seed: u64) -> Vec<SweepCell> {
    let day = SimDuration::from_hours(24);
    let mut cells = Vec::new();
    for rate in faults::RATES_HOURS {
        for controller in ["insure", "baseline"] {
            let schedule = match rate {
                None => FaultSchedule::empty(),
                Some(h) => FaultSchedule::stochastic(seed, day, hours(h), TARGETS),
            };
            cells.push(SweepCell {
                grid: Grid::Faults,
                seed,
                checkpoint_hours: None,
                rate_hours: rate,
                controller,
                schedule,
            });
        }
    }
    for ckpt in recovery::CHECKPOINT_INTERVALS_HOURS {
        for rate in recovery::FAULT_RATES_HOURS {
            for controller in ["insure", "baseline"] {
                cells.push(SweepCell {
                    grid: Grid::Recovery,
                    seed,
                    checkpoint_hours: Some(ckpt),
                    rate_hours: Some(rate),
                    controller,
                    schedule: FaultSchedule::stochastic_extended(seed, day, hours(rate), TARGETS),
                });
            }
        }
    }
    for rate in faults::RATES_HOURS {
        for controller in ["insure", "baseline"] {
            cells.push(SweepCell {
                grid: Grid::Shared,
                seed,
                checkpoint_hours: None,
                rate_hours: rate,
                controller,
                schedule: faults::late_window_schedule_for(seed, rate),
            });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds = derived_seeds(1, "x", 8);
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn service_feed_parses_and_spans_the_horizon() {
        let feed = ins_sim::replay::ReplayFeed::parse(&service_feed(3)).expect("feed parses");
        assert_eq!(feed.rows().len() as u64, FEED_DAYS * 1440);
        assert!(feed.rows().iter().any(|r| r.work_gb > 0.0));
        assert!(feed.rows().iter().any(|r| r.solar_w > 100.0));
    }

    #[test]
    fn service_traffic_follows_the_paper_specs() {
        let feed = ins_sim::replay::ReplayFeed::parse(&service_feed(3)).expect("feed parses");
        let rows = feed.rows();
        let mean = rows.iter().map(|r| r.work_gb).sum::<f64>() / rows.len() as f64;
        let spec = StreamSpec::video_surveillance().rate_gb_per_min;
        assert!((mean / spec - 1.0).abs() < 0.1, "{mean} GB/min vs {spec}");

        let schedule = service_schedule(3);
        let total: f64 = schedule.batch.iter().map(|b| b.1).sum();
        let daily = BatchSpec::seismic().daily_gb();
        assert!(
            (total - daily * FEED_DAYS as f64).abs() < 1e-6,
            "{total} GB"
        );
        let release = AdmissionConfig::prototype().release_per_period_gb;
        assert!(schedule.batch.iter().all(|b| b.1 <= release));
        assert!(schedule.batch.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sweep_grid_has_the_user_grid_sizes() {
        let cells = sweep_cells(5);
        let count = |g| cells.iter().filter(|c| c.grid == g).count();
        assert_eq!(count(Grid::Faults), 10);
        assert_eq!(count(Grid::Recovery), 18);
        assert_eq!(count(Grid::Shared), 10);
    }
}
