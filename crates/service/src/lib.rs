//! # `ins-service` — supervised live-service runtime for InSURE
//!
//! Every other crate in the workspace runs the control loop as a batch
//! job: build a system, call `run_until`, read the metrics. A field
//! deployment of the paper's prototype (§4) is not a batch job — it is a
//! long-running daemon that must survive a misbehaving policy, shed load
//! under pressure, drain gracefully, and come back from a crash with its
//! telemetry intact. This crate adds that runtime:
//!
//! * [`safe_mode`] — [`safe_mode::SafeModePolicy`], the built-in
//!   conservative fallback engine (tightened discharge set, shed-first
//!   load control, Fig. 8 mode transitions),
//! * [`supervisor`] — the crash/stall supervisor: a faulting engine is
//!   replaced by safe mode *within the same control period*, restarted
//!   under [`ins_sim::backoff::Backoff`], and quarantined as poison
//!   after repeated failures,
//! * [`admission`] — bounded-queue admission control; under pressure
//!   batch work is shed before stream work, and every offered request is
//!   explicitly resolved in an [`ins_sim::ledger::ClassCounters`] ledger
//!   (`offered ≡ served + served_degraded + shed + failed`),
//! * [`telemetry`] — byte-stable telemetry lines (the unit of the
//!   kill-resume determinism contract),
//! * [`harness`] — [`harness::ServiceCore`], the deterministic
//!   in-process service used by chaos tests and hosted by the daemon,
//! * [`resume`] — crash-only resume tokens (atomic write, content
//!   digest),
//! * [`protocol`] — the line-oriented control protocol,
//! * [`daemon`] — the real daemon: engine on a crash-isolated worker
//!   thread with a wall-clock watchdog, Unix-domain-socket control
//!   plane, checkpoint-flushing graceful drain.
//!
//! The simulated plant itself stays byte-deterministic: the daemon's
//! threads only decide *which* engine answers, never reorder the
//! simulation, so a `(engine, seed, feed)` triple fully determines the
//! telemetry stream — killed and resumed or not.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod admission;
pub mod daemon;
pub mod harness;
pub mod protocol;
pub mod resume;
pub mod safe_mode;
pub mod supervisor;
pub mod telemetry;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, WorkClass};
pub use daemon::{DaemonOptions, DaemonReport, ThreadedExecutor};
pub use harness::{DrainReport, ServiceCore, ServiceError, ServiceSpec};
pub use resume::ResumeToken;
pub use safe_mode::SafeModePolicy;
pub use supervisor::{
    DecisionSource, EngineExecutor, EngineFault, EngineStatus, InlineExecutor, SupervisedDecision,
    Supervisor, SupervisorCounters,
};
pub use telemetry::TelemetrySnapshot;
