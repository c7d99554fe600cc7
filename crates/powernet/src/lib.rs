//! # `ins-powernet` — reconfigurable power delivery network
//!
//! Models the power path between the InSURE prototype's solar supply, its
//! battery e-Buffer and its server rack (the Fig. 6 schematic):
//!
//! * [`relay`] — IDEC-style relays with cycle-wear accounting,
//! * [`matrix`] — the PLC-driven switch matrix attaching each battery unit
//!   to the charge bus, the load bus, or neither, with the
//!   never-both-closed safety invariant,
//! * [`converter`] — DC/DC stages with fixed overhead + proportional loss
//!   (the light-load penalty that motivates concentrated charging),
//! * [`charger`] — the multi-channel solar charge controller,
//! * [`bus`] — solar-first load settlement with battery makeup.
//!
//! # Examples
//!
//! ```
//! use ins_powernet::matrix::{Attachment, SwitchMatrix};
//! use ins_battery::BatteryId;
//!
//! let mut matrix = SwitchMatrix::new(3);
//! matrix.attach(BatteryId(2), Attachment::ChargeBus)?;
//! assert_eq!(matrix.charging_units(), vec![BatteryId(2)]);
//! # Ok::<(), ins_powernet::matrix::UnknownUnitError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bus;
pub mod charger;
pub mod converter;
pub mod matrix;
pub mod relay;

pub use bus::{LoadBus, LoadSettlement};
pub use charger::{ChargeController, ChargeStep};
pub use converter::Converter;
pub use matrix::{Attachment, SwitchMatrix, UnknownUnitError};
pub use relay::{Relay, RelayFault};
