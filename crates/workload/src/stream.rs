//! Continuous data streams (the video-surveillance workload).
//!
//! §5: "video surveillance analysis … based on videos generated from 24
//! cameras (0.21 GB/minute)". Data arrives at a constant rate and queues
//! when the cluster cannot keep up; Table 3 reports the resulting per-job
//! service delay, which this module reproduces via backlog accounting
//! (delay = backlog / service rate, by Little's law for a fluid queue).

use ins_sim::stats::RunningStats;
use ins_sim::time::SimDuration;

/// Arrival process of a continuous stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Arrival rate in GB per minute.
    pub rate_gb_per_min: f64,
}

impl StreamSpec {
    /// The prototype's 24-camera feed: 1280×720 @ 5 fps ⇒ 0.21 GB/min.
    #[must_use]
    pub fn video_surveillance() -> Self {
        Self {
            rate_gb_per_min: 0.21,
        }
    }

    /// Arrival rate in GB/hour.
    #[must_use]
    pub fn rate_gb_per_hour(&self) -> f64 {
        self.rate_gb_per_min * 60.0
    }
}

/// The stream workload: fluid arrivals, a backlog, and delay statistics.
///
/// # Examples
///
/// ```
/// use ins_workload::stream::{StreamSpec, StreamWorkload};
/// use ins_sim::time::SimDuration;
///
/// let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
/// // An hour at full capacity: everything processed as it arrives.
/// for _ in 0..60 {
///     w.step(SimDuration::from_minutes(1), 12.6);
/// }
/// assert!(w.backlog_gb() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWorkload {
    spec: StreamSpec,
    backlog_gb: f64,
    arrived_gb: f64,
    processed_gb: f64,
    delay_stats: RunningStats,
}

impl StreamWorkload {
    /// Creates an empty stream.
    #[must_use]
    pub fn new(spec: StreamSpec) -> Self {
        Self {
            spec,
            backlog_gb: 0.0,
            arrived_gb: 0.0,
            processed_gb: 0.0,
            delay_stats: RunningStats::new(),
        }
    }

    /// The stream's arrival spec.
    #[must_use]
    pub fn spec(&self) -> &StreamSpec {
        &self.spec
    }

    /// Advances by `dt`: new data arrives at the spec rate, the cluster
    /// drains the backlog at `gb_per_hour`, and the instantaneous service
    /// delay is sampled.
    pub fn step(&mut self, dt: SimDuration, gb_per_hour: f64) {
        let dt_h = dt.as_hours().value();
        let arrived = self.spec.rate_gb_per_hour() * dt_h;
        self.arrived_gb += arrived;
        self.backlog_gb += arrived;
        let service_rate = gb_per_hour.max(0.0);
        let capacity = service_rate * dt_h;
        let drained = capacity.min(self.backlog_gb);
        self.backlog_gb -= drained;
        self.processed_gb += drained;
        // Delay a newly arrived chunk will experience: time to drain the
        // backlog ahead of it at the current service rate. With no service
        // the delay is unbounded; sample the backlog age instead.
        let delay_min = if service_rate > 1e-9 {
            self.backlog_gb / service_rate * 60.0
        } else {
            self.backlog_gb / self.spec.rate_gb_per_hour() * 60.0
        };
        self.delay_stats.push(delay_min);
    }

    /// Re-queues `gb` of work lost to a crash: it rejoins the backlog and
    /// will be drained alongside new
    /// arrivals. Replayed data is *not* added to `arrived_gb` — it already
    /// arrived once — so `processed + backlog` may exceed `arrived` after
    /// a requeue; the surplus is exactly the replayed volume.
    pub fn requeue_gb(&mut self, gb: f64) {
        if gb <= 0.0 {
            return;
        }
        self.backlog_gb += gb;
    }

    /// Unprocessed data currently queued, GB.
    #[must_use]
    pub fn backlog_gb(&self) -> f64 {
        self.backlog_gb
    }

    /// Total data arrived so far, GB.
    #[must_use]
    pub fn arrived_gb(&self) -> f64 {
        self.arrived_gb
    }

    /// Total data processed so far, GB.
    #[must_use]
    pub fn processed_gb(&self) -> f64 {
        self.processed_gb
    }

    /// Mean sampled service delay, minutes.
    #[must_use]
    pub fn mean_delay_minutes(&self) -> f64 {
        self.delay_stats.mean()
    }

    /// Worst sampled service delay, minutes.
    #[must_use]
    pub fn max_delay_minutes(&self) -> f64 {
        self.delay_stats.max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &mut StreamWorkload, minutes: u64, gb_per_hour: f64) {
        for _ in 0..minutes {
            w.step(SimDuration::from_minutes(1), gb_per_hour);
        }
    }

    #[test]
    fn full_capacity_keeps_zero_delay() {
        // Table 3's 8-VM row: capacity matches the arrival rate, delay 0.
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 120, 12.6);
        assert!(w.backlog_gb() < 0.05);
        assert!(w.mean_delay_minutes() < 0.2);
        assert!((w.arrived_gb() - 0.21 * 120.0).abs() < 1e-9);
    }

    #[test]
    fn undersized_cluster_builds_delay() {
        // Table 3's 2-VM row: ≈ 0.07 GB/min service on 0.21 GB/min
        // arrivals ⇒ delay grows without bound.
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 60, 0.07 * 60.0);
        let after_1h = w.mean_delay_minutes();
        run(&mut w, 60, 0.07 * 60.0);
        assert!(w.mean_delay_minutes() > after_1h, "delay must keep growing");
        assert!(w.backlog_gb() > 10.0);
    }

    #[test]
    fn moderate_deficit_shows_table3_scale_delays() {
        // The 6-VM row (0.17 GB/min) shows sub-minute delays early on.
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 10, 0.17 * 60.0);
        assert!(w.mean_delay_minutes() < 2.0);
        assert!(w.mean_delay_minutes() > 0.0);
    }

    #[test]
    fn conservation_of_data() {
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 500, 7.0);
        let total = w.processed_gb() + w.backlog_gb();
        assert!((total - w.arrived_gb()).abs() < 1e-9);
    }

    #[test]
    fn requeue_rejoins_the_backlog_without_new_arrivals() {
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 60, 12.6);
        let arrived = w.arrived_gb();
        w.requeue_gb(5.0);
        assert!((w.backlog_gb() - 5.0).abs() < 0.1);
        assert!((w.arrived_gb() - arrived).abs() < 1e-12);
        run(&mut w, 60, 20.0);
        assert!(w.backlog_gb() < 0.1, "replayed work drains");
        w.requeue_gb(-3.0);
        assert!(w.backlog_gb() >= 0.0, "negative requeue is ignored");
    }

    #[test]
    fn outage_then_recovery_drains_backlog() {
        let mut w = StreamWorkload::new(StreamSpec::video_surveillance());
        run(&mut w, 30, 0.0); // power outage
        let peak = w.backlog_gb();
        assert!((peak - 0.21 * 30.0).abs() < 1e-9);
        run(&mut w, 60, 20.0); // over-provisioned catch-up
        assert!(w.backlog_gb() < 0.1, "backlog must drain after recovery");
        assert!(w.max_delay_minutes() >= 30.0 * 0.9);
    }
}
