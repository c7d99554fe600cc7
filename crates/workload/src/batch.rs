//! Intermittent batch jobs (the oil-exploration workload).
//!
//! §2.1: "An oil exploration project may involve tens of thousands of
//! micro-seismic tests and each test can generate multiple terabytes of
//! data"; the prototype's case study processes a 114 GB survey job twice a
//! day. Jobs queue when the cluster is power-starved, and the queue's
//! waiting time is the latency metric of Fig. 20.

use ins_sim::time::{SimDuration, SimTime};

use std::collections::VecDeque;

/// [`BatchWorkload::pending_gb`] of an empty queue: the value
/// `Iterator::sum` gives an empty `f64` iterator, so an idle queue reads
/// the same whether its total is folded or maintained.
const EMPTY_GB: f64 = -0.0;

/// Arrival schedule and size of a recurring batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Data volume per job, GB.
    pub job_gb: f64,
    /// Hours-of-day at which jobs arrive, strictly increasing within
    /// `[0, 24)` (e.g. two surveys per day).
    pub arrivals: Vec<f64>,
}

impl BatchSpec {
    /// The paper's seismic case study: 114 GB per job, collected twice a
    /// day (morning and afternoon survey).
    #[must_use]
    pub fn seismic() -> Self {
        Self {
            job_gb: 114.0,
            arrivals: vec![7.0, 13.0],
        }
    }

    /// Creates a spec with a custom daily arrival schedule.
    ///
    /// # Panics
    ///
    /// Panics if `job_gb` is not positive, `arrivals` is empty, any hour
    /// falls outside `[0, 24)`, or the hours are not strictly increasing.
    #[must_use]
    pub fn with_arrivals(job_gb: f64, arrivals: Vec<f64>) -> Self {
        assert!(job_gb > 0.0, "job size must be positive");
        assert!(!arrivals.is_empty(), "at least one arrival required");
        assert!(
            arrivals.iter().all(|&h| (0.0..24.0).contains(&h)),
            "arrival hours must lie in [0, 24)"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] < w[1]),
            "arrival hours must be strictly increasing"
        );
        Self { job_gb, arrivals }
    }

    /// Daily data volume implied by the schedule, GB.
    #[must_use]
    pub fn daily_gb(&self) -> f64 {
        self.job_gb * self.arrivals.len() as f64
    }
}

/// One queued or running job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Job {
    arrived: SimTime,
    remaining_gb: f64,
}

/// A completed job's statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedJob {
    /// When the job's data arrived.
    pub arrived: SimTime,
    /// When processing finished.
    pub finished: SimTime,
}

impl CompletedJob {
    /// Total turnaround (arrival to completion).
    #[must_use]
    pub fn turnaround(&self) -> SimDuration {
        self.finished - self.arrived
    }
}

/// The batch workload: job generation, FIFO processing, completion stats.
///
/// # Examples
///
/// ```
/// use ins_workload::batch::{BatchSpec, BatchWorkload};
/// use ins_sim::time::{SimDuration, SimTime};
///
/// let mut w = BatchWorkload::new(BatchSpec::seismic());
/// // Step across the 07:00 arrival with a 20 GB/h cluster.
/// let mut t = SimTime::from_hms(6, 59, 0);
/// for _ in 0..120 {
///     w.step(t, SimDuration::from_minutes(1), 20.0);
///     t += SimDuration::from_minutes(1);
/// }
/// assert!(w.processed_gb() > 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BatchWorkload {
    spec: BatchSpec,
    queue: VecDeque<Job>,
    /// The sum of `queue`'s remaining data, GB, updated by every queue
    /// change so that reading it never walks the queue.
    pending_gb: f64,
    completed: Vec<CompletedJob>,
    processed_gb: f64,
    last_arrival_day_slot: Option<(u64, usize)>,
}

impl BatchWorkload {
    /// Creates an empty workload with the given schedule.
    #[must_use]
    pub fn new(spec: BatchSpec) -> Self {
        Self {
            spec,
            queue: VecDeque::new(),
            pending_gb: EMPTY_GB,
            completed: Vec::new(),
            processed_gb: 0.0,
            last_arrival_day_slot: None,
        }
    }

    /// The workload's schedule.
    #[must_use]
    pub fn spec(&self) -> &BatchSpec {
        &self.spec
    }

    /// Advances time: enqueues any job whose arrival time was crossed,
    /// then processes the queue head at `gb_per_hour` for `dt`.
    pub fn step(&mut self, now: SimTime, dt: SimDuration, gb_per_hour: f64) {
        self.admit_arrivals(now, dt);
        let mut budget_gb = gb_per_hour.max(0.0) * dt.as_hours().value();
        let end = now + dt;
        while budget_gb > 0.0 {
            let Some(job) = self.queue.front_mut() else {
                break;
            };
            if job.remaining_gb > budget_gb {
                job.remaining_gb -= budget_gb;
                self.processed_gb += budget_gb;
                self.served(budget_gb);
                break;
            }
            let Job {
                arrived,
                remaining_gb,
            } = *job;
            self.processed_gb += remaining_gb;
            budget_gb -= remaining_gb;
            self.queue.pop_front();
            self.served(remaining_gb);
            self.completed.push(CompletedJob {
                arrived,
                finished: end,
            });
        }
    }

    fn admit_arrivals(&mut self, now: SimTime, dt: SimDuration) {
        let end = now + dt;
        for (slot, &hour) in self.spec.arrivals.iter().enumerate() {
            // An arrival lands in this step if its absolute time on the
            // current day falls inside [now, end).
            for day in now.day()..=end.day() {
                let arrival = SimTime::from_secs(
                    day * ins_sim::time::SECONDS_PER_DAY + (hour * 3600.0) as u64,
                );
                if arrival >= now && arrival < end {
                    // Guard against double admission at step boundaries.
                    if self.last_arrival_day_slot != Some((day, slot)) {
                        self.queue.push_back(Job {
                            arrived: arrival,
                            remaining_gb: self.spec.job_gb,
                        });
                        self.pending_gb += self.spec.job_gb;
                        self.last_arrival_day_slot = Some((day, slot));
                    }
                }
            }
        }
    }

    /// Re-queues `gb` of work lost to a crash at the *front* of the
    /// queue: after restoring from a checkpoint, the job replays the work
    /// done since the snapshot before anything newer runs. The replayed
    /// data will be counted in `processed_gb` a second time — throughput
    /// double-counts replay, which is exactly why the system tracks
    /// goodput separately.
    pub fn requeue_gb(&mut self, now: SimTime, gb: f64) {
        if gb <= 0.0 {
            return;
        }
        self.queue.push_front(Job {
            arrived: now,
            remaining_gb: gb,
        });
        self.pending_gb += gb;
    }

    /// Takes `gb` of processed work off the pending total. Rounding can
    /// leave the total a hair below zero while a sliver of work is still
    /// queued, so it is floored at `+0.0` there; an empty queue reads
    /// exactly [`EMPTY_GB`].
    fn served(&mut self, gb: f64) {
        self.pending_gb = if self.queue.is_empty() {
            EMPTY_GB
        } else {
            (self.pending_gb - gb).max(0.0)
        };
    }

    /// Data processed so far, GB.
    #[must_use]
    pub fn processed_gb(&self) -> f64 {
        self.processed_gb
    }

    /// Data still queued, GB: `-0.0` when the queue is empty, otherwise
    /// the maintained total, which can differ from re-summing the queue
    /// in the last bits because it adds and subtracts in event order.
    #[must_use]
    pub fn pending_gb(&self) -> f64 {
        self.pending_gb
    }

    /// Jobs waiting or in progress.
    #[must_use]
    pub fn queued_jobs(&self) -> usize {
        self.queue.len()
    }

    /// Completed jobs, in completion order.
    #[must_use]
    pub fn completed(&self) -> &[CompletedJob] {
        &self.completed
    }

    /// Mean job turnaround in minutes over completed jobs (0 if none).
    #[must_use]
    pub fn mean_turnaround_minutes(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed
            .iter()
            .map(|j| j.turnaround().as_minutes())
            .sum::<f64>()
            / self.completed.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &mut BatchWorkload, from: SimTime, minutes: u64, rate: f64) -> SimTime {
        let mut t = from;
        for _ in 0..minutes {
            w.step(t, SimDuration::from_minutes(1), rate);
            t += SimDuration::from_minutes(1);
        }
        t
    }

    #[test]
    fn jobs_arrive_on_schedule() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        let t = run(&mut w, SimTime::ZERO, 6 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 0, "nothing before 07:00");
        run(&mut w, t, 2 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 1, "07:00 job landed");
        run(&mut w, SimTime::from_hms(12, 0, 0), 2 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 2, "13:00 job landed");
        assert!((w.pending_gb() - 228.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_are_not_duplicated() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        // Step in tiny increments across the arrival instant.
        let mut t = SimTime::from_hms(6, 59, 58);
        for _ in 0..10 {
            w.step(t, SimDuration::from_secs(1), 0.0);
            t += SimDuration::from_secs(1);
        }
        assert_eq!(w.queued_jobs(), 1);
    }

    #[test]
    fn processing_drains_the_queue_fifo() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        let t = run(&mut w, SimTime::from_hms(6, 59, 0), 2, 0.0);
        assert_eq!(w.queued_jobs(), 1);
        // 114 GB at 57 GB/h = 2 h.
        run(&mut w, t, 121, 57.0);
        assert_eq!(w.queued_jobs(), 0);
        assert_eq!(w.completed().len(), 1);
        assert!((w.processed_gb() - 114.0).abs() < 1e-6);
        let turnaround = w.completed()[0].turnaround().as_minutes();
        assert!(
            (turnaround - 120.0).abs() < 2.0,
            "turnaround {turnaround} min"
        );
    }

    #[test]
    fn zero_capacity_accumulates_backlog() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        run(&mut w, SimTime::ZERO, 24 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 2);
        assert_eq!(w.processed_gb(), 0.0);
        assert_eq!(w.mean_turnaround_minutes(), 0.0);
    }

    #[test]
    fn fast_cluster_completes_both_daily_jobs() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        run(&mut w, SimTime::ZERO, 24 * 60, 24.6);
        assert_eq!(w.completed().len(), 2);
        assert!(w.mean_turnaround_minutes() > 0.0);
    }

    #[test]
    fn custom_arrival_schedules_are_honoured() {
        let spec = BatchSpec::with_arrivals(30.0, vec![6.0, 12.0, 18.0]);
        assert!((spec.daily_gb() - 90.0).abs() < 1e-9);
        let mut w = BatchWorkload::new(spec);
        run(&mut w, SimTime::ZERO, 24 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 3);
        assert!((w.pending_gb() - 90.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "arrival hours must be strictly increasing")]
    fn rejects_unordered_arrivals() {
        let _ = BatchSpec::with_arrivals(10.0, vec![12.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "arrival hours must lie in [0, 24)")]
    fn rejects_out_of_range_arrivals() {
        let _ = BatchSpec::with_arrivals(10.0, vec![25.0]);
    }

    #[test]
    fn requeued_work_replays_before_newer_jobs() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        // Land the 07:00 job, process 50 GB of it, then lose 20 GB.
        let t = run(&mut w, SimTime::from_hms(6, 59, 0), 2, 0.0);
        run(&mut w, t, 60, 50.0);
        assert!((w.processed_gb() - 50.0).abs() < 1e-6);
        w.requeue_gb(SimTime::from_hms(8, 1, 0), 20.0);
        assert_eq!(w.queued_jobs(), 2, "replay job joins the queue");
        assert!((w.pending_gb() - (114.0 - 50.0 + 20.0)).abs() < 1e-6);
        // The replay job is at the queue front: draining a little over
        // 20 GB completes it while the original survey job remains.
        run(&mut w, SimTime::from_hms(8, 1, 0), 61, 20.0);
        assert_eq!(w.completed().len(), 1, "replay job finished first");
        let drained = 20.0 * 61.0 / 60.0;
        assert!((w.pending_gb() - (84.0 - drained)).abs() < 1e-6);
        w.requeue_gb(SimTime::from_hms(9, 2, 0), 0.0);
        assert_eq!(w.queued_jobs(), 1, "zero requeue is ignored");
    }

    #[test]
    fn multi_day_schedule_repeats() {
        let mut w = BatchWorkload::new(BatchSpec::seismic());
        run(&mut w, SimTime::ZERO, 3 * 24 * 60, 0.0);
        assert_eq!(w.queued_jobs(), 6, "two jobs per day for three days");
    }

    mod maintained_total {
        use super::*;
        use proptest::prelude::*;

        /// The reference pending total: the queue's remaining data
        /// re-summed front to back.
        fn resummed(w: &BatchWorkload) -> f64 {
            w.queue.iter().map(|j| j.remaining_gb).sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Through any interleaving of service and requeues, the
            /// maintained total stays within the recursive-summation
            /// error bound of the re-summed queue, carries a sign bit
            /// exactly when the queue is empty, and with the processed
            /// total accounts for everything admitted.
            #[test]
            fn pending_total_tracks_the_queue(
                ops in collection::vec((0u8..3, -20.0f64..200.0, 0.0f64..1.0), 1..300)
            ) {
                let spec = BatchSpec::seismic();
                let mut w = BatchWorkload::new(spec.clone());
                let mut now = SimTime::ZERO;
                let mut admitted = 0.0;
                let mut events = 0;
                for (kind, x, y) in ops {
                    if kind < 2 {
                        // `x` GB/h (negative serves nothing) for 1-180 min.
                        let dt = SimDuration::from_minutes(1 + (y * 180.0) as u64);
                        let (jobs, done) = (w.queued_jobs(), w.completed().len());
                        w.step(now, dt, x);
                        now += dt;
                        let completions = w.completed().len() - done;
                        let arrivals = w.queued_jobs() + completions - jobs;
                        for _ in 0..arrivals {
                            admitted += spec.job_gb;
                        }
                        events += arrivals + completions + 1;
                    } else {
                        // Zero and negative requeues must be ignored.
                        let gb = if y < 0.2 { 0.0 } else { x };
                        w.requeue_gb(now, gb);
                        if gb > 0.0 {
                            admitted += gb;
                            events += 1;
                        }
                    }
                    // Every queue event (arrival, requeue, partial service,
                    // completion) rounds at most four quantities bounded by
                    // `admitted` (pending and processed totals, the job's
                    // remainder, this test's `admitted`) once each, by at
                    // most unit roundoff u = EPSILON / 2 relative; the fold
                    // adds len - 1 roundings and the checks two more.
                    let len = w.queued_jobs();
                    let bound = f64::EPSILON / 2.0 * admitted * (4 * events + len + 2) as f64;
                    let pending = w.pending_gb();
                    let reference = resummed(&w);
                    prop_assert!(
                        (pending - reference).abs() <= bound,
                        "pending {pending} vs re-summed {reference} (bound {bound})"
                    );
                    prop_assert_eq!(
                        pending.is_sign_negative(),
                        w.queue.is_empty(),
                        "pending {} with {} jobs queued",
                        pending,
                        len
                    );
                    let balance = w.processed_gb() + pending - admitted;
                    prop_assert!(
                        balance.abs() <= bound,
                        "processed + pending - admitted = {balance} (bound {bound})"
                    );
                }
            }
        }
    }
}
