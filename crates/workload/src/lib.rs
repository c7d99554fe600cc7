//! # `ins-workload` — in-situ workload models
//!
//! The data-processing side of the InSURE evaluation:
//!
//! * [`benchmark`] — the Table 5/Table 7 micro-benchmark catalog with the
//!   paper's measured (time, power) points on both server classes,
//! * [`scaling`] — cluster throughput vs VM count, fitted to Tables 2–3,
//! * [`batch`] — intermittent batch jobs (114 GB seismic surveys, twice a
//!   day) with FIFO queueing and turnaround statistics,
//! * [`stream`] — continuous data streams (24-camera video at
//!   0.21 GB/min) with backlog and service-delay accounting,
//! * [`checkpoint`] — crash-consistent job checkpoints (torn-write rule,
//!   restart backoff, poison-job quarantine) backing the recovery path.
//!
//! # Examples
//!
//! ```
//! use ins_workload::scaling::ScalingModel;
//! use ins_workload::stream::{StreamSpec, StreamWorkload};
//! use ins_sim::time::SimDuration;
//!
//! let capacity = ScalingModel::video_surveillance().gb_per_hour(8, 1.0);
//! let mut stream = StreamWorkload::new(StreamSpec::video_surveillance());
//! stream.step(SimDuration::from_minutes(5), capacity);
//! assert!(stream.mean_delay_minutes() < 1.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod benchmark;
pub mod checkpoint;
pub mod scaling;
pub mod stream;

pub use batch::{BatchSpec, BatchWorkload};
pub use benchmark::{catalog, MicroBenchmark, PerfPoint};
pub use checkpoint::{CheckpointPolicy, CheckpointStore, JobCheckpointer, RestartBackoff};
pub use scaling::ScalingModel;
pub use stream::{StreamSpec, StreamWorkload};
