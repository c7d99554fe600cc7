//! # `ins-sim` — simulation kernel for the InSURE reproduction
//!
//! This crate is the substrate every other crate in the workspace builds
//! on. It provides:
//!
//! * [`units`] — compile-time-checked physical quantities ([`units::Watts`],
//!   [`units::Volts`], [`units::AmpHours`], …),
//! * [`time`] — integer-second simulated time ([`time::SimTime`],
//!   [`time::SimDuration`], [`time::SimClock`]),
//! * [`trace`] — time-series recording ([`trace::Trace`]),
//! * [`stats`] — streaming statistics ([`stats::RunningStats`]),
//! * [`rng`] — reproducible, forkable randomness ([`rng::SimRng`]),
//! * [`backoff`] — capped exponential retry backoff
//!   ([`backoff::Backoff`]), shared by checkpoint restores, server
//!   cooldowns and the fleet router,
//! * [`pool`] — deterministic scoped worker pool ([`pool::scoped_map`]),
//! * [`snapshot`] — shared-prefix planning for copy-on-write sweep
//!   forking ([`snapshot::plan_prefix_groups`]),
//! * [`log`] — typed event logs ([`log::EventLog`]),
//! * [`ledger`] — per-class request accounting shared by the fleet
//!   router and service admission ([`ledger::ClassCounters`]),
//! * [`fault`] — seeded, deterministic fault injection
//!   ([`fault::FaultSchedule`], [`fault::FaultKind`]),
//! * [`replay`] — line-oriented input feeds for service mode
//!   ([`replay::ReplayFeed`]).
//!
//! The InSURE paper (Li et al., ISCA 2015) evaluates a physical prototype
//! by replaying recorded solar traces through a real battery array and
//! server rack. This workspace replaces the hardware with a deterministic
//! fixed-timestep co-simulation; the kernel here is deliberately tiny so
//! the physics and policy crates stay testable in isolation.
//!
//! # Examples
//!
//! ```
//! use ins_sim::prelude::*;
//!
//! let mut clock = SimClock::new(SimDuration::from_secs(1));
//! let mut trace = Trace::new("load W");
//! for _ in 0..60 {
//!     let t = clock.tick();
//!     trace.record(t, 450.0);
//! }
//! assert_eq!(trace.stats().mean(), 450.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod backoff;
pub mod fault;
pub mod ledger;
pub mod log;
pub mod pool;
pub mod replay;
pub mod rng;
pub mod snapshot;
pub mod stats;
pub mod time;
pub mod trace;
pub mod units;

/// Convenient re-exports of the types nearly every dependent crate needs.
pub mod prelude {
    pub use crate::backoff::{Backoff, BackoffOutcome};
    pub use crate::fault::{FaultClass, FaultEvent, FaultKind, FaultSchedule, FaultTargets};
    pub use crate::log::EventLog;
    pub use crate::rng::SimRng;
    pub use crate::stats::RunningStats;
    pub use crate::time::{SimClock, SimDuration, SimTime};
    pub use crate::trace::{Sample, Trace};
    pub use crate::units::{AmpHours, Amps, Hours, Ohms, Volts, WattHours, Watts};
}
