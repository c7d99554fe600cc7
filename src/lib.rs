//! # InSURE — sustainable in-situ server systems, reproduced in Rust
//!
//! A full-system reproduction of *Towards Sustainable In-Situ Server
//! Systems in the Big Data Era* (Li, Hu, Liu et al., ISCA 2015): a
//! standalone, solar-powered micro server cluster with a reconfigurable
//! lead-acid energy buffer and a joint spatio-temporal power-management
//! scheme, co-simulated end to end.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `ins-sim` | units, simulated time, traces, seeded RNG |
//! | [`battery`] | `ins-battery` | KiBaM kinetics, charging, wear |
//! | [`solar`] | `ins-solar` | irradiance, weather, MPPT, day traces |
//! | [`powernet`] | `ins-powernet` | relays, switch matrix, charger, bus |
//! | [`cluster`] | `ins-cluster` | servers, DVFS, VM slots and targets |
//! | [`workload`] | `ins-workload` | batch/stream workloads, benchmarks |
//! | [`core`] | `ins-core` | SPM + TPM controllers, full co-simulation |
//! | [`service`] | `ins-service` | supervised daemon: safe-mode fallback, admission, drain |
//! | [`fleet`] | `ins-fleet` | fleet federation: routing, breakers, blackouts |
//! | [`cost`] | `ins-cost` | every TCO analysis in the paper |
//!
//! # Quick start
//!
//! ```
//! use insure::core::controller::InsureController;
//! use insure::core::metrics::RunMetrics;
//! use insure::core::system::InSituSystem;
//! use insure::sim::time::{SimDuration, SimTime};
//! use insure::solar::trace::high_generation_day;
//!
//! let mut system = InSituSystem::builder(
//!     high_generation_day(1),
//!     Box::new(InsureController::default()),
//! )
//! .time_step(SimDuration::from_secs(60))
//! .build();
//! system.run_until(SimTime::from_hms(20, 0, 0));
//! let metrics = RunMetrics::collect(&system);
//! assert!(metrics.processed_gb > 0.0);
//! ```

#![warn(missing_docs)]

pub use ins_battery as battery;
pub use ins_cluster as cluster;
pub use ins_core as core;
pub use ins_cost as cost;
pub use ins_fleet as fleet;
pub use ins_powernet as powernet;
pub use ins_service as service;
pub use ins_sim as sim;
pub use ins_solar as solar;
pub use ins_workload as workload;
