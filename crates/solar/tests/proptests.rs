//! Property tests for the solar supply model.

use proptest::prelude::*;

use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::Watts;
use ins_solar::irradiance::{clear_sky_fraction, DaylightWindow};
use ins_solar::panel::SolarPanel;
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;

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
                .sample_interval(SimDuration::from_secs(60))
                .build_day();
            for s in t.trace().iter() {
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
                .sample_interval(SimDuration::from_secs(60))
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
            .sample_interval(SimDuration::from_secs(60))
            .build_day();
        let p = t.power_at(SimTime::from_secs(secs)).value();
        let max = t.trace().iter().fold(f64::NEG_INFINITY, |m, s| m.max(s.value));
        prop_assert!(p >= 0.0 && p <= max + 1e-9);
    }
}
