//! # `ins-battery` — lead-acid energy buffer model
//!
//! Models the green energy buffer (e-Buffer) of the InSURE prototype: six
//! UPG UB1280 12 V / 35 Ah VRLA batteries arranged as three independently
//! switchable 24 V cabinets.
//!
//! The model layers are:
//!
//! * [`kibam`] — two-well Kinetic Battery Model giving the rate-capacity
//!   and recovery effects the paper's temporal power management exploits,
//! * [`voltage`] — open-circuit + ohmic terminal voltage, the signal the
//!   prototype's transducers feed to the PLC,
//! * [`charge`] — CC–CV acceptance envelope and SoC-dependent gassing
//!   losses, the basis for spatial (concentrated) charging,
//! * [`wear`] — ampere-hour throughput lifetime accounting (Fig. 19),
//! * [`mod@unit`] / [`pack`] — the switchable [`BatteryUnit`] façade and
//!   pack-level aggregation.
//!
//! # Examples
//!
//! ```
//! use ins_battery::{BatteryUnit, BatteryId, BatteryParams};
//! use ins_sim::units::{Amps, Hours};
//!
//! // Discharge a cabinet hard, then watch it recover at rest.
//! let mut cab = BatteryUnit::new(BatteryId(0), BatteryParams::cabinet_24v());
//! cab.discharge(Amps::new(30.0), Hours::new(0.4));
//! let sagged = cab.open_circuit_voltage();
//! cab.rest(Hours::new(1.0));
//! assert!(cab.open_circuit_voltage() > sagged);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod charge;
pub mod kibam;
pub mod pack;
pub mod params;
pub mod unit;
pub mod voltage;
pub mod wear;

pub use params::{BatteryParams, ParamsError};
pub use unit::{BatteryId, BatteryUnit, ChargeOutcome, DischargeOutcome, UnitHealth};
