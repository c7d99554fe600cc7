//! Capped exponential backoff with attempt exhaustion.
//!
//! One retry primitive shared by every layer that re-tries a failing
//! operation against simulated time: checkpoint restores in
//! `ins-workload` (where this logic originated as `RestartBackoff`),
//! the server-level crash cooldown it mirrors, and the fleet router's
//! per-site retry throttle and circuit-breaker open windows in
//! `ins-fleet`. The delay after the *n*-th consecutive failure is
//! `base << min(n, max_doublings)`; after `max_attempts` straight
//! failures the operation is declared exhausted (quarantined /
//! abandoned — the caller decides what that means).
//!
//! Pure, cloneable data driven by [`SimTime`], so retry trajectories
//! replay bit-identically from a seed.

use crate::time::{SimDuration, SimTime};

/// Outcome of recording a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackoffOutcome {
    /// Retry after the returned backoff delay.
    Retry {
        /// Earliest instant the next attempt may run.
        next_attempt: SimTime,
    },
    /// Too many consecutive failures: the operation is exhausted and the
    /// caller should give up (quarantine the job, abandon the request).
    Exhausted,
}

/// Capped exponential backoff state.
///
/// # Examples
///
/// ```
/// use ins_sim::backoff::{Backoff, BackoffOutcome};
/// use ins_sim::time::{SimDuration, SimTime};
///
/// let mut b = Backoff::new(SimDuration::from_secs(60), 5, 3);
/// let t0 = SimTime::from_secs(0);
/// assert!(b.ready(t0));
/// // First failure: retry 60 s out. Second: 120 s. Third: exhausted.
/// assert_eq!(
///     b.record_failure(t0),
///     BackoffOutcome::Retry { next_attempt: SimTime::from_secs(60) }
/// );
/// assert!(!b.ready(t0));
/// assert!(b.ready(SimTime::from_secs(60)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: SimDuration,
    max_doublings: u32,
    max_attempts: u32,
    consecutive_failures: u32,
    next_attempt: Option<SimTime>,
}

impl Backoff {
    /// Creates a backoff: delays start at `base`, double per consecutive
    /// failure up to `max_doublings`, and [`BackoffOutcome::Exhausted`]
    /// is returned once `max_attempts` straight failures accumulate.
    /// Use `u32::MAX` for `max_attempts` when exhaustion never applies
    /// (e.g. a circuit breaker's escalating open window), and for
    /// `max_doublings` when the attempt limit ends every streak first.
    #[must_use]
    pub fn new(base: SimDuration, max_doublings: u32, max_attempts: u32) -> Self {
        Self {
            base,
            max_doublings,
            max_attempts,
            consecutive_failures: 0,
            next_attempt: None,
        }
    }

    /// `true` when an attempt may run at `now`.
    #[must_use]
    pub fn ready(&self, now: SimTime) -> bool {
        self.next_attempt.is_none_or(|t| now >= t)
    }

    /// Consecutive failures recorded since the last success.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// The delay the *next* failure would impose.
    ///
    /// Saturating: a long-lived process (a supervised service restarting
    /// a poisoned engine for months) can push the streak and the
    /// configured doubling cap to absurd values, and the delay must
    /// plateau rather than overflow the shift or the multiply.
    #[must_use]
    pub fn current_backoff(&self) -> SimDuration {
        let doublings = self.consecutive_failures.min(self.max_doublings);
        let base = self.base.as_secs();
        let secs = if doublings >= 64 {
            if base == 0 {
                0
            } else {
                u64::MAX
            }
        } else {
            base.saturating_mul(1u64 << doublings)
        };
        SimDuration::from_secs(secs)
    }

    /// Records a failed attempt at `now`: doubles the backoff (capped) or
    /// declares the operation exhausted after `max_attempts` straight
    /// failures. The streak counter and the next-attempt instant both
    /// saturate, so unbounded failure histories never overflow.
    pub fn record_failure(&mut self, now: SimTime) -> BackoffOutcome {
        let delay = self.current_backoff();
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= self.max_attempts {
            BackoffOutcome::Exhausted
        } else {
            let next = SimTime::from_secs(now.as_secs().saturating_add(delay.as_secs()));
            self.next_attempt = Some(next);
            BackoffOutcome::Retry { next_attempt: next }
        }
    }

    /// Records a success: the failure streak and any pending delay reset.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.next_attempt = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn delays_double_from_base_and_never_shrink() {
        let mut b = Backoff::new(SimDuration::from_secs(60), 5, u32::MAX);
        let mut delays = Vec::new();
        let mut now = t(0);
        for _ in 0..8 {
            delays.push(b.current_backoff().as_secs());
            match b.record_failure(now) {
                BackoffOutcome::Retry { next_attempt } => {
                    assert!(!b.ready(now));
                    now = next_attempt;
                    assert!(b.ready(now));
                }
                BackoffOutcome::Exhausted => panic!("u32::MAX attempts never exhaust"),
            }
        }
        assert_eq!(delays[0], 60);
        assert_eq!(delays[1], 120);
        for pair in delays.windows(2) {
            assert!(pair[1] >= pair[0], "backoff never shrinks");
        }
    }

    #[test]
    fn doubling_cap_bounds_the_delay() {
        let mut b = Backoff::new(SimDuration::from_secs(30), 3, u32::MAX);
        let mut now = t(0);
        for _ in 0..20 {
            if let BackoffOutcome::Retry { next_attempt } = b.record_failure(now) {
                now = next_attempt;
            }
        }
        assert_eq!(b.current_backoff().as_secs(), 30 << 3);
    }

    #[test]
    fn exhausts_after_max_attempts_straight_failures() {
        let mut b = Backoff::new(SimDuration::from_secs(10), 5, 3);
        assert!(matches!(
            b.record_failure(t(0)),
            BackoffOutcome::Retry { .. }
        ));
        assert!(matches!(
            b.record_failure(t(100)),
            BackoffOutcome::Retry { .. }
        ));
        assert_eq!(b.record_failure(t(200)), BackoffOutcome::Exhausted);
    }

    #[test]
    fn success_resets_streak_delay_and_gate() {
        let mut b = Backoff::new(SimDuration::from_secs(60), 5, u32::MAX);
        let _ = b.record_failure(t(0));
        let _ = b.record_failure(t(100));
        assert_eq!(b.consecutive_failures(), 2);
        b.record_success();
        assert_eq!(b.consecutive_failures(), 0);
        assert!(b.ready(t(0)));
        assert_eq!(b.current_backoff(), SimDuration::from_secs(60));
    }
}
