//! The traced fleet split re-drives `Fleet::step_tick` through public
//! `Site` and `Router` calls; it must reproduce the fleet's metrics.

use ins_fleet::Fleet;
use perfbench::spans::Spans;
use perfbench::workloads::fleet;

#[test]
fn traced_replay_equals_step_tick_metrics() {
    for config in fleet::configs(5).into_iter().take(2) {
        let mut reference = Fleet::new(config.clone());
        reference.run_to_horizon();
        let mut spans = Spans::new();
        let replayed = fleet::replay_traced(&config, &mut spans);
        assert_eq!(replayed, reference.metrics());
        assert!(
            replayed.fleet_faults > 0,
            "the grid point injects fleet faults"
        );
        let ticks = spans.durations("fleet.tick").len();
        assert_eq!(
            ticks as u64,
            config.horizon.as_secs() / config.tick.as_secs()
        );
    }
}
