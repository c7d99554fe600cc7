//! The InSURE simulator benchmark: four workloads, end-to-end metrics
//! from an untraced run and per-layer metrics from a traced run, with the
//! outputs checked on every run. See `README.md` next to this crate.

pub mod gen;
pub mod host;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
