//! Byte-stable telemetry lines.
//!
//! One line per control period, `key=value` fields in a fixed order,
//! floats always formatted to three decimals. The line is the unit of
//! the kill-resume determinism contract: a resumed run must reproduce
//! the uninterrupted run's lines *byte-identically* from the restore
//! point onward, so nothing wall-clock, locale- or pointer-dependent
//! may appear here.

use ins_sim::ledger::ClassCounters;
use ins_sim::time::SimTime;

/// Everything one telemetry line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Control-period index (0-based; monotonic over the service's
    /// life, surviving kill/resume).
    pub tick: u64,
    /// Simulated instant at the period's end.
    pub now: SimTime,
    /// Engine registry key (e.g. `insure`).
    pub engine: String,
    /// Decision provenance label (see
    /// [`crate::supervisor::DecisionSource::label`]); `init` before the
    /// first decision.
    pub source: &'static str,
    /// Classified state label; `unknown` before the first decision.
    pub state: &'static str,
    /// Active VMs at period end.
    pub active_vms: u32,
    /// Duty-cycle fraction at period end.
    pub duty: f64,
    /// Harvested solar power at period end, W.
    pub solar_w: f64,
    /// Mean unit state of charge at period end.
    pub mean_soc: f64,
    /// Work waiting in the plant, GB.
    pub pending_gb: f64,
    /// Work processed so far, GB.
    pub processed_gb: f64,
    /// Stream-class ledger.
    pub stream: ClassCounters,
    /// Batch-class ledger.
    pub batch: ClassCounters,
    /// Requests still queued at the intake.
    pub queued: u64,
    /// Brownouts so far.
    pub brownouts: u64,
    /// Durable checkpoints written so far.
    pub checkpoints: u64,
    /// Control periods served by safe mode so far.
    pub safe_periods: u64,
    /// Engine restarts so far.
    pub restarts: u64,
}

impl TelemetrySnapshot {
    /// Formats the line. Field order and float precision are frozen —
    /// CI diffs these bytes across kill/resume runs.
    #[must_use]
    pub fn line(&self) -> String {
        let offered = self.stream.offered + self.batch.offered;
        let served = self.stream.served + self.batch.served;
        let degraded = self.stream.served_degraded + self.batch.served_degraded;
        let shed = self.stream.shed + self.batch.shed;
        let failed = self.stream.failed + self.batch.failed;
        format!(
            "tick={} t={} engine={} source={} state={} vms={} duty={:.3} \
             solar_w={:.3} soc={:.3} pending_gb={:.3} processed_gb={:.3} \
             offered={} served={} degraded={} shed={} failed={} queued={} \
             brownouts={} ckpt={} safe_periods={} restarts={}",
            self.tick,
            self.now.as_secs(),
            self.engine,
            self.source,
            self.state,
            self.active_vms,
            self.duty,
            self.solar_w,
            self.mean_soc,
            self.pending_gb,
            self.processed_gb,
            offered,
            served,
            degraded,
            shed,
            failed,
            self.queued,
            self.brownouts,
            self.checkpoints,
            self.safe_periods,
            self.restarts,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            tick: 3,
            now: SimTime::from_secs(240),
            engine: "insure".to_string(),
            source: "primary",
            state: "surplus",
            active_vms: 4,
            duty: 1.0,
            solar_w: 1023.4567,
            mean_soc: 0.61234,
            pending_gb: 12.0,
            processed_gb: 3.5,
            stream: ClassCounters {
                offered: 5,
                served: 4,
                ..ClassCounters::default()
            },
            batch: ClassCounters {
                offered: 1,
                shed: 1,
                ..ClassCounters::default()
            },
            queued: 1,
            brownouts: 0,
            checkpoints: 2,
            safe_periods: 0,
            restarts: 0,
        }
    }

    #[test]
    fn line_format_is_frozen() {
        assert_eq!(
            snapshot().line(),
            "tick=3 t=240 engine=insure source=primary state=surplus vms=4 \
             duty=1.000 solar_w=1023.457 soc=0.612 pending_gb=12.000 \
             processed_gb=3.500 offered=6 served=4 degraded=0 shed=1 failed=0 \
             queued=1 brownouts=0 ckpt=2 safe_periods=0 restarts=0"
        );
    }

    #[test]
    fn identical_snapshots_format_identically() {
        assert_eq!(snapshot().line(), snapshot().line());
    }
}
