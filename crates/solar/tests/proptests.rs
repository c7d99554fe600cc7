//! Property tests for the solar supply model.

use proptest::prelude::*;

use std::hint::black_box;

use ins_sim::rng::SimRng;
use ins_sim::time::{SimDuration, SimTime, SECONDS_PER_DAY};
use ins_sim::trace::{interpolate, Sample};
use ins_sim::units::{WattHours, Watts};
use ins_solar::irradiance::{clear_sky_fraction, DaylightWindow};
use ins_solar::mppt::MpptTracker;
use ins_solar::panel::SolarPanel;
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::{CloudField, CloudStep, DayWeather};

/// The per-sample generation loop `SolarTraceBuilder::build_days` ran
/// before generated traces stored only their daylight values: every 10 s
/// sample of every day, each through the envelope, the cloud field, the
/// panel and the tracker, which is carried across days. The oracle for
/// the compact form.
fn reference_samples(panel: SolarPanel, days: &[DayWeather], seed: u64, mppt: bool) -> Vec<Sample> {
    // Opaque, as the builder's sample interval field was.
    let dt = black_box(SimDuration::from_secs(10));
    let window = DaylightWindow::prototype();
    let steps = SECONDS_PER_DAY / dt.as_secs();
    let rng_root = SimRng::seed(seed);
    let mut tracker = MpptTracker::new();
    let mut samples = Vec::new();
    for (day_idx, &weather) in days.iter().enumerate() {
        let mut clouds = CloudField::new(weather, rng_root.fork(&format!("clouds-day{day_idx}")));
        let day_start = day_idx as u64 * SECONDS_PER_DAY;
        for i in 0..steps {
            let t = SimTime::from_secs(day_start + i * dt.as_secs());
            let envelope = clear_sky_fraction(&window, t.time_of_day_hours());
            let transmission = clouds.step(CloudStep::new(dt.as_secs() as f64));
            let available = panel.output(envelope, transmission);
            let out = if mppt {
                tracker.step(available)
            } else {
                available
            };
            samples.push(Sample {
                time: t,
                value: out.value(),
            });
        }
    }
    samples
}

/// `SolarTrace::mean_power_between` as it read the full sample list.
fn reference_mean(samples: &[Sample], from_h: f64, to_h: f64) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for s in samples {
        let h = s.time.time_of_day_hours();
        if h >= from_h && h < to_h {
            sum += s.value;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The clear-sky envelope is bounded, zero at night and positive in
    /// the middle of the day for any sane window.
    #[test]
    fn envelope_bounded(
        sunrise in 4.0f64..10.0,
        length in 6.0f64..14.0,
        hour in 0.0f64..24.0
    ) {
        let sunset = (sunrise + length).min(24.0);
        let w = DaylightWindow::new(sunrise, sunset);
        let f = clear_sky_fraction(&w, hour);
        prop_assert!((0.0..=1.0).contains(&f));
        if !w.is_daytime(hour) {
            prop_assert_eq!(f, 0.0);
        }
        let noon = (sunrise + sunset) / 2.0;
        prop_assert!(clear_sky_fraction(&w, noon) > 0.99);
    }

    /// Panel output is bounded by the derated nameplate and is monotone
    /// in both inputs.
    #[test]
    fn panel_output_bounded(
        rated in 100.0f64..10_000.0,
        derate in 0.5f64..1.0,
        sky in 0.0f64..=1.0,
        cloud in 0.0f64..=1.0
    ) {
        let p = SolarPanel::new(Watts::new(rated), derate);
        let out = p.output(sky, cloud);
        prop_assert!(out.value() >= 0.0);
        prop_assert!(out.value() <= rated * derate + 1e-9);
        let brighter = p.output((sky + 0.1).min(1.0), cloud);
        prop_assert!(brighter >= out);
    }

    /// Every generated trace sample is within the array's physical range,
    /// and night samples are zero.
    #[test]
    fn generated_traces_physical(seed in 0u64..50) {
        for weather in DayWeather::ALL {
            let t = SolarTraceBuilder::new()
                .weather(weather)
                .seed(seed)
                .build_day();
            for s in t.trace() {
                prop_assert!(s.value >= 0.0);
                prop_assert!(s.value <= 1600.0);
                let h = s.time.time_of_day_hours();
                if !(6.9..19.98).contains(&h) {
                    prop_assert_eq!(s.value, 0.0, "light at {} h", h);
                }
            }
            prop_assert!(t.total_energy().value() > 0.0);
        }
    }

    /// Sunny days always out-produce rainy days under the same seed.
    #[test]
    fn weather_energy_ordering(seed in 0u64..30) {
        let energy = |w: DayWeather| {
            SolarTraceBuilder::new()
                .weather(w)
                .seed(seed)
                .build_day()
                .total_energy()
                .value()
        };
        prop_assert!(energy(DayWeather::Sunny) > energy(DayWeather::Rainy));
    }

    /// Interpolated power queries never exceed the trace's sample range.
    #[test]
    fn power_at_is_interpolation(seed in 0u64..20, secs in 0u64..86_400) {
        let t = SolarTraceBuilder::new()
            .seed(seed)
            .build_day();
        let p = t.power_at(SimTime::from_secs(secs)).value();
        let max = t.trace().fold(f64::NEG_INFINITY, |m, s| m.max(s.value));
        prop_assert!(p >= 0.0 && p <= max + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A generated trace is bit-identical to the per-sample reference
    /// loop: every sample it yields, `power_at` against `interpolate`
    /// over the reference samples (at 0, on and off the grid, across
    /// midnights, at sunrise and sunset, at and past the last sample),
    /// the peak, the total energy and windowed means.
    #[test]
    fn generated_trace_matches_the_per_sample_loop(
        seed in any::<u64>(),
        kinds in collection::vec(0usize..3, 1..=5),
        mppt in any::<bool>(),
        rated in 200.0f64..6_400.0,
        window in (0.0f64..24.0, 0.0f64..24.0),
        offsets in collection::vec(0u64..5 * 86_400, 200),
    ) {
        let weather: Vec<DayWeather> = kinds.iter().map(|&k| DayWeather::ALL[k]).collect();
        let panel = SolarPanel::prototype_1_6kw().scaled_to(Watts::new(rated));
        let trace = SolarTraceBuilder::new()
            .panel(panel)
            .seed(seed)
            .mppt(mppt)
            .build_days(&weather);
        let reference = reference_samples(panel, &weather, seed, mppt);

        prop_assert_eq!(trace.trace().len(), reference.len());
        prop_assert_eq!(trace.trace().last(), reference.last().copied());
        for (got, want) in trace.trace().zip(&reference) {
            prop_assert_eq!(got.time, want.time);
            prop_assert_eq!(got.value.to_bits(), want.value.to_bits(), "at {:?}", want.time);
        }

        let last_s = reference.last().map_or(0, |s| s.time.as_secs());
        let mut queries: Vec<u64> = vec![0, 1, 5, 9, 10, 11, last_s - 1, last_s, last_s + 1];
        queries.extend([last_s + 10, last_s + 86_400, u64::MAX / 2]);
        for day in 0..weather.len() as u64 {
            let midnight = day * SECONDS_PER_DAY;
            for clock in [0, 24_830, 24_840, 24_845, 71_920, 71_925, 71_930] {
                queries.push(midnight + clock);
            }
            queries.extend([midnight.saturating_sub(10), midnight.saturating_sub(3), midnight + 7]);
        }
        queries.extend(offsets.iter().map(|&o| o % (last_s + 20)));
        queries.extend(offsets.iter().map(|&o| (o % (last_s + 20)) / 10 * 10));
        for secs in queries {
            let t = SimTime::from_secs(secs);
            let want = interpolate(&reference, t).unwrap_or(0.0);
            prop_assert_eq!(trace.power_at(t).value().to_bits(), want.to_bits(), "at {} s", secs);
        }

        let peak = reference.iter().fold(0.0, |m: f64, s| m.max(s.value));
        prop_assert_eq!(trace.peak().value().to_bits(), peak.to_bits());
        let dt_h = SimDuration::from_secs(10).as_hours();
        let energy: WattHours = reference.iter().map(|s| Watts::new(s.value) * dt_h).sum();
        prop_assert_eq!(trace.total_energy().value().to_bits(), energy.value().to_bits());
        let (a, b) = window;
        for (from_h, to_h) in [(7.0, 20.0), (0.0, 24.0), (a.min(b), a.max(b)), (a, b)] {
            let want = reference_mean(&reference, from_h, to_h);
            let got = trace.mean_power_between(from_h, to_h).value();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "window {}–{} h", from_h, to_h);
        }
    }
}
