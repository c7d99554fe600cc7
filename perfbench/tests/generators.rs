//! The workload inputs are a pure function of the seed.

use perfbench::gen;
use perfbench::workloads::fleet;

#[test]
fn same_seed_gives_byte_identical_inputs() {
    for seed in [gen::DEFAULT_SEED, gen::HELD_OUT_SEED, 3] {
        assert_eq!(gen::service_feed(seed), gen::service_feed(seed));
        assert_eq!(gen::service_schedule(seed), gen::service_schedule(seed));
        assert_eq!(gen::sweep_cells(seed), gen::sweep_cells(seed));
        assert_eq!(gen::endurance_weather(seed), gen::endurance_weather(seed));
        assert_eq!(fleet::configs(seed), fleet::configs(seed));
        assert_eq!(
            gen::derived_seeds(seed, "sweep", 3),
            gen::derived_seeds(seed, "sweep", 3)
        );
    }
}

#[test]
fn different_seeds_give_different_inputs() {
    let (a, b) = (gen::DEFAULT_SEED, gen::HELD_OUT_SEED);
    assert_ne!(gen::service_feed(a), gen::service_feed(b));
    assert_ne!(gen::service_schedule(a), gen::service_schedule(b));
    assert_ne!(gen::sweep_cells(a), gen::sweep_cells(b));
    assert_ne!(gen::endurance_weather(a), gen::endurance_weather(b));
    assert_ne!(fleet::configs(a), fleet::configs(b));
}

#[test]
fn endurance_weather_has_the_same_mix_for_every_seed() {
    let count = |seed| {
        let w = gen::endurance_weather(seed);
        let n = |d| w.iter().filter(|&&x| x == d).count();
        (
            n(ins_solar::DayWeather::Sunny),
            n(ins_solar::DayWeather::Cloudy),
            n(ins_solar::DayWeather::Rainy),
        )
    };
    assert_eq!(count(1), (36, 36, 18));
    assert_eq!(count(2), count(1));
}
