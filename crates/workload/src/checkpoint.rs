//! Crash-consistent job checkpoints and restart backoff.
//!
//! The paper's TPM emergency path (Fig. 11) is "checkpoint VM state and
//! shut servers down"; its uptime and throughput wins assume the system
//! comes back cleanly afterwards. This module models that job state as
//! first-class data: a [`CheckpointStore`] holds at most one *durable*
//! checkpoint plus at most one *in-flight* write, enforces the torn-write
//! rule (a crash mid-write discards the artifact — recovery falls back to
//! the previous durable state and can never observe a torn checkpoint),
//! and a [`RestartBackoff`] retries failed restores with the same
//! exponential backoff the server-level crash cooldown uses, quarantining
//! the job as *poison* after too many consecutive failures.
//!
//! Everything here is pure, cloneable data driven by simulated time, so
//! crash/recovery trajectories are bit-replayable from a seed.

use ins_sim::backoff::{Backoff, BackoffOutcome};
use ins_sim::time::{SimDuration, SimTime};
use ins_sim::units::Watts;

/// How often job state is persisted. A write takes
/// [`WRITE_DURATION`] and draws [`WRITE_POWER`] on the storage path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    /// Target interval between periodic checkpoint writes.
    pub interval: SimDuration,
}

impl CheckpointPolicy {
    /// The prototype policy: hourly checkpoints.
    #[must_use]
    pub fn prototype() -> Self {
        Self::with_interval(SimDuration::from_hours(1))
    }

    /// The policy at a periodic interval.
    #[must_use]
    pub fn with_interval(interval: SimDuration) -> Self {
        Self { interval }
    }
}

/// Wall-clock duration of one checkpoint write.
pub const WRITE_DURATION: SimDuration = SimDuration::from_minutes(2);

/// Extra power the storage path draws while a write is in flight, drawn
/// from the same budget that feeds the servers.
pub const WRITE_POWER: Watts = Watts::new(30.0);

/// Consecutive failed restore attempts after which the job is quarantined
/// as poison (its replayed work is abandoned).
const MAX_RESTART_ATTEMPTS: u32 = 5;

/// Base delay between restore retries; doubles per consecutive failure,
/// mirroring the server crash cooldown.
const RETRY_BACKOFF: SimDuration = SimDuration::from_secs(60);

/// One durable, checksum-verified checkpoint of job progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Instant the write began (the progress snapshot is from here).
    pub taken_at: SimTime,
    /// Instant the write completed and the artifact became durable.
    pub completed_at: SimTime,
    /// Job progress captured, GB processed since the job epoch.
    pub progress_gb: f64,
}

/// A checkpoint write still in flight; torn (discarded) if a crash lands
/// before `completes_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlightWrite {
    started: SimTime,
    completes_at: SimTime,
    progress_gb: f64,
}

/// Counters a store accumulates over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointCounters {
    /// Writes that completed and became durable.
    pub written: u64,
    /// In-flight writes torn by a crash (never restorable).
    pub torn: u64,
    /// Durable checkpoints lost to corruption or an unwritable path.
    pub lost: u64,
    /// Successful restores from a durable checkpoint.
    pub restored: u64,
}

/// The per-job checkpoint store: at most one durable artifact, at most
/// one write in flight.
///
/// The torn-write rule is enforced structurally: an in-flight write lives
/// in a separate slot and is *discarded* by [`CheckpointStore::crash`],
/// so [`CheckpointStore::restore`] can only ever observe state that was
/// durable before the crash.
///
/// # Examples
///
/// ```
/// use ins_workload::checkpoint::CheckpointStore;
/// use ins_sim::time::{SimDuration, SimTime};
///
/// let mut store = CheckpointStore::new();
/// store.begin_write(SimTime::from_secs(0), SimDuration::from_minutes(2), 10.0);
/// store.step(SimTime::from_secs(120)); // write completes
/// store.begin_write(SimTime::from_secs(600), SimDuration::from_minutes(2), 25.0);
/// store.crash(); // tears the 25 GB write
/// assert!((store.durable_progress_gb() - 10.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointStore {
    durable: Option<Checkpoint>,
    in_flight: Option<InFlightWrite>,
    /// Progress credited without a durable artifact: the job epoch (0) or
    /// the progress reinstated by the last successful restore.
    baseline_gb: f64,
    counters: CheckpointCounters,
}

impl CheckpointStore {
    /// An empty store at the job epoch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a checkpoint write capturing `progress_gb`. Returns `false`
    /// (and does nothing) if a write is already in flight.
    pub fn begin_write(&mut self, now: SimTime, duration: SimDuration, progress_gb: f64) -> bool {
        if self.in_flight.is_some() {
            return false;
        }
        self.in_flight = Some(InFlightWrite {
            started: now,
            completes_at: now + duration,
            progress_gb,
        });
        true
    }

    /// `true` while a write is in flight.
    #[must_use]
    pub fn writing(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Advances the store: an in-flight write whose completion instant has
    /// passed becomes the durable checkpoint. Returns `true` if a write
    /// completed this call.
    pub fn step(&mut self, now: SimTime) -> bool {
        let Some(w) = self.in_flight else {
            return false;
        };
        if now < w.completes_at {
            return false;
        }
        self.in_flight = None;
        self.durable = Some(Checkpoint {
            taken_at: w.started,
            completed_at: w.completes_at,
            progress_gb: w.progress_gb,
        });
        self.counters.written += 1;
        true
    }

    /// A crash lands: the in-flight write (if any) is torn and discarded.
    /// The durable checkpoint is unaffected. Returns `true` if a write was
    /// torn.
    pub fn crash(&mut self) -> bool {
        if self.in_flight.take().is_some() {
            self.counters.torn += 1;
            return true;
        }
        false
    }

    /// Silent corruption of the durable artifact: the next restore's
    /// checksum check will have nothing to fall back on beyond the
    /// baseline. Returns `true` if a durable checkpoint was present.
    pub fn corrupt_durable(&mut self) -> bool {
        if self.durable.take().is_some() {
            self.counters.lost += 1;
            return true;
        }
        false
    }

    /// Progress recovery would reinstate right now: the durable
    /// checkpoint's snapshot, or the baseline when none exists.
    #[must_use]
    pub fn durable_progress_gb(&self) -> f64 {
        self.durable
            .as_ref()
            .map_or(self.baseline_gb, |c| c.progress_gb)
    }

    /// The durable checkpoint, if one exists.
    #[must_use]
    pub fn durable(&self) -> Option<&Checkpoint> {
        self.durable.as_ref()
    }

    /// Restores from the durable checkpoint (or the baseline), returning
    /// the reinstated progress. A torn write can never be restored: only
    /// the durable slot is consulted. The restored progress becomes the
    /// new baseline, so a later corruption falls back here, not to zero.
    pub fn restore(&mut self) -> f64 {
        let progress = self.durable_progress_gb();
        if self.durable.is_some() {
            self.counters.restored += 1;
        }
        self.baseline_gb = progress;
        progress
    }

    /// Lifetime counters.
    #[must_use]
    pub fn counters(&self) -> CheckpointCounters {
        self.counters
    }

    /// Graceful-drain flush: writes a final durable checkpoint capturing
    /// `progress_gb` synchronously at `now`.
    ///
    /// Unlike a crash, a drain *waits* for the artifact to land before
    /// power-off, so no torn write is possible: any write still in flight
    /// is superseded by the final snapshot (which captures at least as
    /// much progress) rather than torn. Returns the durable checkpoint.
    pub fn flush(&mut self, now: SimTime, progress_gb: f64) -> Checkpoint {
        self.in_flight = None;
        let c = Checkpoint {
            taken_at: now,
            completed_at: now,
            progress_gb,
        };
        self.durable = Some(c);
        self.counters.written += 1;
        c
    }
}

/// Restore retry backoff — the shared exponential primitive from
/// `ins_sim::backoff`. This logic originated here as a bespoke
/// `RestartBackoff`; the alias keeps the original name working for
/// existing callers.
pub type RestartBackoff = Backoff;

/// Outcome of recording a failed restore attempt. An alias of the shared
/// [`BackoffOutcome`]: `Exhausted` is what this module historically
/// called "quarantined" (the job is poison, its replayed work abandoned
/// and counted as data loss).
pub type RestartOutcome = BackoffOutcome;

/// A fresh restore-retry backoff: delays start at one minute and double
/// per consecutive failure, and the job is quarantined as poison at the
/// fifth straight failure. No doubling cap is needed: the attempt limit
/// ends every streak, so the longest delay is 2³ minutes.
#[must_use]
pub fn restart_backoff() -> Backoff {
    Backoff::new(RETRY_BACKOFF, u32::MAX, MAX_RESTART_ATTEMPTS)
}

/// The per-job recovery bundle a system carries: policy, store, backoff.
#[derive(Debug, Clone, PartialEq)]
pub struct JobCheckpointer {
    /// The installed policy.
    pub policy: CheckpointPolicy,
    /// Durable/in-flight checkpoint state.
    pub store: CheckpointStore,
    /// Restore retry state.
    pub backoff: RestartBackoff,
}

impl JobCheckpointer {
    /// Creates the bundle from a policy.
    #[must_use]
    pub fn new(policy: CheckpointPolicy) -> Self {
        Self {
            policy,
            store: CheckpointStore::new(),
            backoff: restart_backoff(),
        }
    }

    /// Graceful-drain flush: see [`CheckpointStore::flush`].
    pub fn flush(&mut self, now: SimTime, progress_gb: f64) -> Checkpoint {
        self.store.flush(now, progress_gb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn write_becomes_durable_after_its_duration() {
        let mut s = CheckpointStore::new();
        assert!(s.begin_write(t(0), SimDuration::from_minutes(2), 42.0));
        assert!(s.writing());
        assert!(!s.step(t(60)), "write still in flight");
        assert!(s.step(t(120)));
        assert!(!s.writing());
        assert!((s.durable_progress_gb() - 42.0).abs() < 1e-12);
        assert_eq!(s.counters().written, 1);
    }

    #[test]
    fn concurrent_writes_are_rejected() {
        let mut s = CheckpointStore::new();
        assert!(s.begin_write(t(0), SimDuration::from_minutes(2), 1.0));
        assert!(!s.begin_write(t(30), SimDuration::from_minutes(2), 2.0));
        s.step(t(120));
        assert!((s.durable_progress_gb() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crash_mid_write_tears_and_falls_back_to_durable() {
        let mut s = CheckpointStore::new();
        s.begin_write(t(0), SimDuration::from_minutes(2), 10.0);
        s.step(t(120));
        s.begin_write(t(600), SimDuration::from_minutes(2), 25.0);
        assert!(s.crash(), "in-flight write must tear");
        assert_eq!(s.counters().torn, 1);
        // The torn 25 GB artifact is unreachable: restore sees 10 GB.
        assert!((s.restore() - 10.0).abs() < 1e-12);
        assert_eq!(s.counters().restored, 1);
    }

    #[test]
    fn crash_with_no_write_in_flight_tears_nothing() {
        let mut s = CheckpointStore::new();
        s.begin_write(t(0), SimDuration::from_minutes(1), 5.0);
        s.step(t(60));
        assert!(!s.crash());
        assert_eq!(s.counters().torn, 0);
        assert!((s.durable_progress_gb() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn corruption_falls_back_to_last_restored_baseline() {
        let mut s = CheckpointStore::new();
        s.begin_write(t(0), SimDuration::from_minutes(1), 8.0);
        s.step(t(60));
        assert!((s.restore() - 8.0).abs() < 1e-12);
        s.begin_write(t(600), SimDuration::from_minutes(1), 20.0);
        s.step(t(660));
        assert!(s.corrupt_durable());
        // The corrupted 20 GB artifact is gone; the 8 GB baseline from the
        // last successful restore survives.
        assert!((s.durable_progress_gb() - 8.0).abs() < 1e-12);
        assert_eq!(s.counters().lost, 1);
        assert!(!s.corrupt_durable(), "nothing left to corrupt");
    }

    #[test]
    fn restore_never_observes_a_torn_checkpoint() {
        // Property-style sweep: whatever prefix of the write completes,
        // a crash then restore must yield a progress that was durable
        // strictly before the crash.
        for crash_at in [0u64, 30, 59, 60, 61, 119] {
            let mut s = CheckpointStore::new();
            s.begin_write(t(0), SimDuration::from_minutes(1), 7.0);
            s.step(t(crash_at));
            let durable_before = s.durable_progress_gb();
            s.crash();
            let restored = s.restore();
            assert!(
                (restored - durable_before).abs() < 1e-12,
                "crash at {crash_at}s restored {restored} vs durable {durable_before}"
            );
        }
    }

    #[test]
    fn backoff_doubles_and_caps_like_the_server_cooldown() {
        let mut b = restart_backoff();
        let base = RETRY_BACKOFF.as_secs();
        let mut delays = Vec::new();
        let mut now = t(0);
        for _ in 0..MAX_RESTART_ATTEMPTS - 1 {
            delays.push(b.current_backoff().as_secs());
            match b.record_failure(now) {
                RestartOutcome::Retry { next_attempt } => {
                    assert!(!b.ready(now));
                    now = next_attempt;
                    assert!(b.ready(now));
                }
                RestartOutcome::Exhausted => panic!("quarantined too early"),
            }
        }
        assert_eq!(delays[0], base);
        assert_eq!(delays[1], base * 2);
        for pair in delays.windows(2) {
            assert!(pair[1] >= pair[0], "backoff never shrinks");
        }
        assert_eq!(
            b.record_failure(now),
            RestartOutcome::Exhausted,
            "attempt #{MAX_RESTART_ATTEMPTS} must quarantine"
        );
    }

    /// The attempt limit is the cap: the longest delay a streak ever
    /// waits is the one before the last retry, 2³ × the base.
    #[test]
    fn backoff_cap_bounds_the_delay() {
        let mut b = restart_backoff();
        let mut now = t(0);
        let mut waits = Vec::new();
        while let RestartOutcome::Retry { next_attempt } = b.record_failure(now) {
            waits.push(next_attempt.as_secs() - now.as_secs());
            now = next_attempt;
        }
        let longest = RETRY_BACKOFF.as_secs() << (MAX_RESTART_ATTEMPTS - 2);
        assert_eq!(waits.len() as u32, MAX_RESTART_ATTEMPTS - 1);
        assert_eq!(waits.iter().max(), Some(&longest));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut b = restart_backoff();
        let _ = b.record_failure(t(0));
        let _ = b.record_failure(t(100));
        assert_eq!(b.consecutive_failures(), 2);
        b.record_success();
        assert_eq!(b.consecutive_failures(), 0);
        assert!(b.ready(t(0)));
        assert_eq!(
            b.current_backoff(),
            RETRY_BACKOFF,
            "backoff returns to base after a success"
        );
    }

    #[test]
    fn flush_supersedes_in_flight_writes_without_tearing() {
        let mut s = CheckpointStore::new();
        s.begin_write(t(0), SimDuration::from_minutes(2), 10.0);
        s.step(t(120));
        // A periodic write is mid-flight when the drain begins.
        s.begin_write(t(600), SimDuration::from_minutes(2), 25.0);
        let c = s.flush(t(630), 26.5);
        assert_eq!(c.completed_at, t(630));
        assert!(!s.writing(), "flush leaves nothing in flight");
        assert!((s.durable_progress_gb() - 26.5).abs() < 1e-12);
        assert_eq!(s.counters().torn, 0, "a drain never tears");
        assert_eq!(s.counters().written, 2);
        // Restart after the drain resumes from the flushed snapshot.
        assert!((s.restore() - 26.5).abs() < 1e-12);
    }

    #[test]
    fn checkpointer_bundles_policy_store_and_backoff() {
        let c = JobCheckpointer::new(CheckpointPolicy::with_interval(SimDuration::from_minutes(
            30,
        )));
        assert_eq!(c.policy.interval, SimDuration::from_minutes(30));
        assert!(!c.store.writing());
        assert!(c.backoff.ready(t(0)));
    }
}
