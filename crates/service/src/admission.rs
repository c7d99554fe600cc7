//! Admission control for streaming ingest: a bounded intake queue with
//! batch-first shedding and fully resolved accounting.
//!
//! Every request offered to the service resolves to exactly one of
//! four fates — served, served degraded, shed, or failed — mirroring
//! the fleet tier's ladder (`ins_fleet`): cheap degradation before
//! shedding, shedding before failure, and *nothing silent*. The
//! invariant `offered ≡ served + degraded + shed + failed` (plus the
//! still-queued remainder mid-run) is checked by tests and holds at
//! drain time with an empty queue.
//!
//! Pressure policy:
//! * a full queue first evicts queued **batch** work (newest first) to
//!   make room — batch replays from checkpoints, streams do not;
//! * if no batch can be evicted, an incoming batch request is shed and
//!   an incoming stream request *fails explicitly* (backpressure made
//!   visible, never a dropped message);
//! * while the plant runs on safe mode, new batch work is shed at the
//!   door and stream work is admitted as *degraded*.

use core::fmt;
use std::collections::VecDeque;

use ins_sim::ledger::ClassCounters;

/// The two request classes of the paper's case studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Continuous ingest (video surveillance): latency-sensitive,
    /// cannot be replayed by the source.
    Stream,
    /// Batch analysis (seismic surveys): replayable, first to shed.
    Batch,
}

impl WorkClass {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Stream => "stream",
            Self::Batch => "batch",
        }
    }

    /// Parses a label produced by [`WorkClass::label`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "stream" => Some(Self::Stream),
            "batch" => Some(Self::Batch),
            _ => None,
        }
    }
}

impl fmt::Display for WorkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How an offer resolved at the door (queued offers resolve later, at
/// release or eviction time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Accepted into the intake queue.
    Queued,
    /// Dropped by policy (batch under pressure / safe mode / drain).
    Shed,
    /// Could not be accepted and is not replayable: explicit failure.
    Failed,
}

impl AdmissionVerdict {
    /// Stable lower-case label used in protocol replies.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Shed => "shed",
            Self::Failed => "failed",
        }
    }
}

/// Admission tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Intake queue capacity, GB.
    pub queue_capacity_gb: f64,
    /// Work released into the plant per control period, GB.
    pub release_per_period_gb: f64,
}

impl AdmissionConfig {
    /// Prototype defaults: a 40 GB intake buffer releasing up to 10 GB
    /// per control period.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            queue_capacity_gb: 40.0,
            release_per_period_gb: 10.0,
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    class: WorkClass,
    gb: f64,
    degraded: bool,
}

/// The bounded intake queue and its ledger.
#[derive(Debug, Clone)]
pub struct AdmissionController {
    config: AdmissionConfig,
    queue: VecDeque<Pending>,
    queued_gb: f64,
    stream: ClassCounters,
    batch: ClassCounters,
    intake_open: bool,
}

impl AdmissionController {
    /// Creates an open admission controller.
    #[must_use]
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            queue: VecDeque::new(),
            queued_gb: 0.0,
            stream: ClassCounters::default(),
            batch: ClassCounters::default(),
            intake_open: true,
        }
    }

    /// Per-class counters.
    #[must_use]
    pub fn counters(&self, class: WorkClass) -> ClassCounters {
        match class {
            WorkClass::Stream => self.stream,
            WorkClass::Batch => self.batch,
        }
    }

    /// Work currently queued, GB.
    #[must_use]
    pub fn queued_gb(&self) -> f64 {
        self.queued_gb
    }

    /// Requests currently queued.
    #[must_use]
    pub fn queued_requests(&self) -> u64 {
        self.queue.len() as u64
    }

    /// `true` while new offers are accepted.
    #[must_use]
    pub fn intake_open(&self) -> bool {
        self.intake_open
    }

    /// Stops accepting new work (graceful drain). Further offers are
    /// shed — counted, not silently dropped.
    pub fn close_intake(&mut self) {
        self.intake_open = false;
    }

    /// `offered ≡ served + served_degraded + shed + failed + queued` — the
    /// no-silent-drops invariant, valid at every instant. At drain time
    /// the queue is empty and the pure four-way form holds.
    #[must_use]
    pub fn fully_accounted(&self) -> bool {
        let offered = self.stream.offered + self.batch.offered;
        let resolved = self.stream.resolved() + self.batch.resolved();
        offered == resolved + self.queued_requests()
    }

    fn ledger_mut(&mut self, class: WorkClass) -> &mut ClassCounters {
        match class {
            WorkClass::Stream => &mut self.stream,
            WorkClass::Batch => &mut self.batch,
        }
    }

    /// Resolves a released entry as served, or served degraded if it was
    /// admitted under safe mode.
    fn record_served(&mut self, entry: Pending) {
        let ledger = self.ledger_mut(entry.class);
        if entry.degraded {
            ledger.served_degraded += 1;
        } else {
            ledger.served += 1;
        }
        ledger.served_gb += entry.gb;
    }

    /// Evicts queued batch work, newest first, until at least `need_gb`
    /// of room exists or no batch remains. Evicted work is counted shed.
    fn evict_batch(&mut self, need_gb: f64) {
        let mut i = self.queue.len();
        while self.queued_gb + need_gb > self.config.queue_capacity_gb && i > 0 {
            i -= 1;
            let Some(entry) = self.queue.get(i).copied() else {
                break;
            };
            if entry.class == WorkClass::Batch {
                self.queue.remove(i);
                self.queued_gb -= entry.gb;
                self.batch.shed += 1;
            }
        }
        self.queued_gb = self.queued_gb.max(0.0);
    }

    /// Offers one request. `degraded` flags that the plant is currently
    /// running on safe mode: batch is shed at the door, stream is
    /// admitted but will count as degraded service.
    pub fn offer(&mut self, class: WorkClass, gb: f64, degraded: bool) -> AdmissionVerdict {
        let ledger = self.ledger_mut(class);
        ledger.offered += 1;
        ledger.offered_gb += gb;
        if !self.intake_open {
            self.ledger_mut(class).shed += 1;
            return AdmissionVerdict::Shed;
        }
        if degraded && class == WorkClass::Batch {
            // Shed-first under safe mode: replayable work yields the
            // whole budget to streams.
            self.batch.shed += 1;
            return AdmissionVerdict::Shed;
        }
        if self.queued_gb + gb > self.config.queue_capacity_gb {
            self.evict_batch(gb);
        }
        if self.queued_gb + gb > self.config.queue_capacity_gb {
            // No batch left to evict: the queue is genuinely full.
            return match class {
                WorkClass::Batch => {
                    self.batch.shed += 1;
                    AdmissionVerdict::Shed
                }
                WorkClass::Stream => {
                    self.stream.failed += 1;
                    AdmissionVerdict::Failed
                }
            };
        }
        self.queue.push_back(Pending {
            class,
            gb,
            degraded,
        });
        self.queued_gb += gb;
        AdmissionVerdict::Queued
    }

    /// Releases up to one period's budget of queued work into the
    /// plant, oldest first, and returns the released volume (GB).
    /// Released requests resolve as served (or degraded, if admitted
    /// under safe mode).
    pub fn release(&mut self) -> f64 {
        let mut released = 0.0;
        while released < self.config.release_per_period_gb {
            let Some(entry) = self.queue.front().copied() else {
                break;
            };
            if released > 0.0 && released + entry.gb > self.config.release_per_period_gb {
                break;
            }
            self.queue.pop_front();
            self.queued_gb = (self.queued_gb - entry.gb).max(0.0);
            released += entry.gb;
            self.record_served(entry);
        }
        released
    }

    /// Drain-time flush: releases *everything* still queued (the drain
    /// checkpoint preserves it durably) and returns the volume.
    pub fn flush(&mut self) -> f64 {
        let mut released = 0.0;
        while let Some(entry) = self.queue.pop_front() {
            released += entry.gb;
            self.record_served(entry);
        }
        self.queued_gb = 0.0;
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_evicted_before_stream_fails() {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_capacity_gb: 10.0,
            release_per_period_gb: 5.0,
        });
        assert_eq!(
            a.offer(WorkClass::Batch, 6.0, false),
            AdmissionVerdict::Queued
        );
        assert_eq!(
            a.offer(WorkClass::Stream, 4.0, false),
            AdmissionVerdict::Queued
        );
        // Queue full; a stream offer evicts the queued batch.
        assert_eq!(
            a.offer(WorkClass::Stream, 5.0, false),
            AdmissionVerdict::Queued
        );
        assert_eq!(a.counters(WorkClass::Batch).shed, 1);
        // Now only streams queue (9 GB); another big stream fails
        // explicitly — nothing left to evict.
        assert_eq!(
            a.offer(WorkClass::Stream, 5.0, false),
            AdmissionVerdict::Failed
        );
        assert_eq!(a.counters(WorkClass::Stream).failed, 1);
        assert!(a.fully_accounted());
    }

    #[test]
    fn safe_mode_sheds_batch_and_degrades_stream() {
        let mut a = AdmissionController::new(AdmissionConfig::prototype());
        assert_eq!(a.offer(WorkClass::Batch, 2.0, true), AdmissionVerdict::Shed);
        assert_eq!(
            a.offer(WorkClass::Stream, 2.0, true),
            AdmissionVerdict::Queued
        );
        let released = a.release();
        assert!((released - 2.0).abs() < 1e-12);
        assert_eq!(a.counters(WorkClass::Stream).served_degraded, 1);
        assert_eq!(a.counters(WorkClass::Stream).served, 0);
        assert!(a.fully_accounted());
        // Degraded service still delivers its volume; shed work none.
        assert!((a.counters(WorkClass::Stream).goodput_fraction() - 1.0).abs() < 1e-12);
        assert!(a.counters(WorkClass::Batch).goodput_fraction().abs() < 1e-12);
    }

    #[test]
    fn release_respects_the_period_budget() {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_capacity_gb: 100.0,
            release_per_period_gb: 5.0,
        });
        for _ in 0..4 {
            let _ = a.offer(WorkClass::Stream, 3.0, false);
        }
        // 3 + 3 exceeds 5 only after the first entry: budget admits the
        // first, stops before the second would overrun (but always
        // releases at least one entry for progress).
        let first = a.release();
        assert!((first - 3.0).abs() < 1e-12);
        let second = a.release();
        assert!((second - 3.0).abs() < 1e-12);
        assert!(a.fully_accounted());
    }

    #[test]
    fn closed_intake_sheds_everything_and_flush_empties_the_queue() {
        let mut a = AdmissionController::new(AdmissionConfig::prototype());
        let _ = a.offer(WorkClass::Stream, 1.0, false);
        let _ = a.offer(WorkClass::Batch, 1.0, false);
        a.close_intake();
        assert_eq!(
            a.offer(WorkClass::Stream, 1.0, false),
            AdmissionVerdict::Shed
        );
        let flushed = a.flush();
        assert!((flushed - 2.0).abs() < 1e-12);
        assert_eq!(a.queued_requests(), 0);
        assert!(a.fully_accounted());
        // With the queue empty, the four-way form holds exactly.
        let s = a.counters(WorkClass::Stream);
        let b = a.counters(WorkClass::Batch);
        assert_eq!(s.offered + b.offered, s.resolved() + b.resolved());
    }
}
