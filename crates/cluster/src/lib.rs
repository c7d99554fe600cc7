//! # `ins-cluster` — in-situ server cluster model
//!
//! Models the compute side of the InSURE prototype: four HP ProLiant Xeon
//! machines hosting eight Xen VMs, with DVFS duty-cycle capping and the
//! paper's measured transition overheads (≈ 15 min per on/off power cycle,
//! ≈ 5 min of VM checkpoint management).
//!
//! * [`profiles`] — hardware profiles (Xeon ProLiant, low-power Core i7),
//! * [`dvfs`] — clock duty cycles, the TPM's batch-workload knob,
//! * [`server`] — the per-machine power-state machine with total vs
//!   *effective* energy accounting,
//! * [`rack`] — the rack aggregate: the VM target, its mapping onto
//!   machine power states, and the control-action counters that feed
//!   Table 6.
//!
//! # Examples
//!
//! ```
//! use ins_cluster::rack::Rack;
//! use ins_sim::time::SimDuration;
//!
//! let mut rack = Rack::prototype();
//! rack.set_target_vms(4);
//! for _ in 0..15 {
//!     rack.step(SimDuration::from_minutes(1), 1.0);
//! }
//! assert_eq!(rack.active_vms(), 4);
//! assert!(rack.power_demand(1.0).value() > 800.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod dvfs;
pub mod profiles;
pub mod rack;
pub mod server;

pub use dvfs::DutyCycle;
pub use profiles::{ProfileError, ServerProfile};
pub use rack::Rack;
pub use server::{PowerState, Server};
