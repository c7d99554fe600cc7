//! The reconfigurable battery switch matrix.
//!
//! Each battery cabinet in the prototype "is managed independently using a
//! pair of two relays (charging and discharging switch)" driven by the
//! Siemens PLC (§4). [`SwitchMatrix`] models that relay network and
//! enforces its safety invariant: a unit's charge and discharge paths are
//! never closed at the same time.
//!
//! With mechanical relay faults in play ([`RelayFault`]) that invariant
//! becomes best-effort: the matrix never *commands* a cross-tie, but two
//! welded contacts can force one. [`SwitchMatrix::attach`] therefore
//! reports the attachment actually achieved instead of panicking, and the
//! matrix exposes which units are cross-tied or unreachable so the
//! control layer can route around them.

use core::fmt;

use ins_battery::BatteryId;
use ins_sim::fault::RelayRole;

use crate::relay::{Relay, RelayFault};

/// Electrical attachment of one battery unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attachment {
    /// Both relays open: the unit floats disconnected.
    Isolated,
    /// Charge relay closed: the unit hangs on the charging bus.
    ChargeBus,
    /// Discharge relay closed: the unit feeds the load bus.
    DischargeBus,
}

impl fmt::Display for Attachment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Attachment::Isolated => "isolated",
            Attachment::ChargeBus => "charge-bus",
            Attachment::DischargeBus => "discharge-bus",
        };
        f.write_str(s)
    }
}

/// Error returned for an unknown battery id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownUnitError(pub BatteryId);

impl fmt::Display for UnknownUnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no such battery unit in the switch matrix: {}", self.0)
    }
}

impl std::error::Error for UnknownUnitError {}

/// One unit's relay pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct RelayPair {
    charge: Relay,
    discharge: Relay,
}

impl RelayPair {
    /// The attachment this pair's contacts currently realise. Both closed
    /// (possible only when both relays are welded) reads as the discharge
    /// bus: the load path electrically dominates, and the unit is also
    /// reported by [`SwitchMatrix::cross_tied_units`].
    fn attachment(&self) -> Attachment {
        match self.contacts() {
            (false, false) => Attachment::Isolated,
            (true, false) => Attachment::ChargeBus,
            (_, true) => Attachment::DischargeBus,
        }
    }

    /// The `(charge, discharge)` contact positions.
    fn contacts(&self) -> (bool, bool) {
        (self.charge.is_closed(), self.discharge.is_closed())
    }

    fn relay_mut(&mut self, role: RelayRole) -> &mut Relay {
        match role {
            RelayRole::Charge => &mut self.charge,
            RelayRole::Discharge => &mut self.discharge,
        }
    }

    fn relay(&self, role: RelayRole) -> &Relay {
        match role {
            RelayRole::Charge => &self.charge,
            RelayRole::Discharge => &self.discharge,
        }
    }
}

/// The PLC-driven relay network attaching each unit to the charge bus, the
/// discharge (load) bus, or neither.
///
/// # Examples
///
/// ```
/// use ins_powernet::matrix::{Attachment, SwitchMatrix};
/// use ins_battery::BatteryId;
///
/// let mut m = SwitchMatrix::new(3);
/// m.attach(BatteryId(0), Attachment::ChargeBus)?;
/// m.attach(BatteryId(1), Attachment::DischargeBus)?;
/// assert_eq!(m.charging_units(), vec![BatteryId(0)]);
/// assert_eq!(m.discharging_units(), vec![BatteryId(1)]);
/// # Ok::<(), ins_powernet::matrix::UnknownUnitError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchMatrix {
    pairs: Vec<RelayPair>,
    /// Bumped whenever a relay contact may have moved, so callers
    /// polling the bus membership every simulation step recompute it
    /// only after a real reconfiguration.
    generation: u64,
}

impl SwitchMatrix {
    /// Creates a matrix for `units` battery units, all isolated.
    #[must_use]
    pub fn new(units: usize) -> Self {
        Self {
            pairs: vec![RelayPair::default(); units],
            generation: 0,
        }
    }

    /// A counter that changes whenever a relay contact may have moved:
    /// an [`SwitchMatrix::attach`] that actually switches a contact, a
    /// fault injection or a fault repair. An `attach` that re-requests
    /// the present attachment leaves it alone. Two reads returning the
    /// same value guarantee the bus memberships
    /// ([`SwitchMatrix::charging_units`] etc.) are unchanged between
    /// them, so per-step callers can cache those lists.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of units managed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when the matrix manages no units.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Current attachment of a unit.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if `id` is out of range.
    pub fn attachment(&self, id: BatteryId) -> Result<Attachment, UnknownUnitError> {
        let pair = self.pairs.get(id.0).ok_or(UnknownUnitError(id))?;
        Ok(pair.attachment())
    }

    /// Moves a unit toward the requested attachment, sequencing the relay
    /// pair break-before-make so a cross-tie is never *commanded*: if the
    /// relay that must open is welded closed, the opposite relay is not
    /// closed. Returns the attachment actually achieved, which under
    /// relay faults may differ from the request.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if `id` is out of range.
    pub fn attach(
        &mut self,
        id: BatteryId,
        to: Attachment,
    ) -> Result<Attachment, UnknownUnitError> {
        let pair = self.pairs.get_mut(id.0).ok_or(UnknownUnitError(id))?;
        let before = pair.contacts();
        match to {
            Attachment::Isolated => {
                pair.charge.open();
                pair.discharge.open();
            }
            Attachment::ChargeBus => {
                pair.discharge.open();
                if !pair.discharge.is_closed() {
                    pair.charge.close();
                }
            }
            Attachment::DischargeBus => {
                pair.charge.open();
                if !pair.charge.is_closed() {
                    pair.discharge.close();
                }
            }
        }
        // Only two welded contacts can leave both paths closed.
        debug_assert!(
            !(pair.charge.is_closed() && pair.discharge.is_closed())
                || (pair.charge.is_faulted() && pair.discharge.is_faulted())
        );
        if pair.contacts() != before {
            self.generation += 1;
        }
        Ok(pair.attachment())
    }

    /// Injects a mechanical fault into one relay of a unit's pair. If
    /// welding a contact closed would cross-tie the unit, the matrix trips
    /// the opposite relay open first (PLC protection) — unless that relay
    /// is itself welded, in which case the unit becomes cross-tied.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if `id` is out of range.
    pub fn inject_relay_fault(
        &mut self,
        id: BatteryId,
        role: RelayRole,
        fault: RelayFault,
    ) -> Result<(), UnknownUnitError> {
        let pair = self.pairs.get_mut(id.0).ok_or(UnknownUnitError(id))?;
        self.generation += 1;
        pair.relay_mut(role).inject_fault(fault);
        if fault == RelayFault::StuckClosed {
            let other = match role {
                RelayRole::Charge => RelayRole::Discharge,
                RelayRole::Discharge => RelayRole::Charge,
            };
            pair.relay_mut(other).open();
        }
        Ok(())
    }

    /// Clears any fault on one relay of a unit's pair (field service).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if `id` is out of range.
    pub fn clear_relay_fault(
        &mut self,
        id: BatteryId,
        role: RelayRole,
    ) -> Result<(), UnknownUnitError> {
        let pair = self.pairs.get_mut(id.0).ok_or(UnknownUnitError(id))?;
        self.generation += 1;
        pair.relay_mut(role).clear_fault();
        Ok(())
    }

    /// The fault on one relay of a unit's pair, if any.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownUnitError`] if `id` is out of range.
    pub fn relay_fault(
        &self,
        id: BatteryId,
        role: RelayRole,
    ) -> Result<Option<RelayFault>, UnknownUnitError> {
        let pair = self.pairs.get(id.0).ok_or(UnknownUnitError(id))?;
        Ok(pair.relay(role).fault())
    }

    /// Units currently on the charge bus, in id order. A cross-tied unit
    /// is *not* listed here (it reads as discharge-bus), so a unit never
    /// appears to charge and discharge at once.
    #[must_use]
    pub fn charging_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| p.charge.is_closed() && !p.discharge.is_closed())
    }

    /// Units currently on the discharge bus, in id order.
    #[must_use]
    pub fn discharging_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| p.discharge.is_closed())
    }

    /// Units currently isolated, in id order.
    #[must_use]
    pub fn isolated_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| !p.charge.is_closed() && !p.discharge.is_closed())
    }

    /// Units whose welded relay pair ties both buses together, in id
    /// order. These are reported (and treated) as discharge-bus units.
    #[must_use]
    pub fn cross_tied_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| p.charge.is_closed() && p.discharge.is_closed())
    }

    /// Units that can no longer reach *any* bus — both relays stuck open —
    /// in id order. They stay electrically absent until serviced.
    #[must_use]
    pub fn unreachable_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| {
            p.charge.fault() == Some(RelayFault::StuckOpen)
                && p.discharge.fault() == Some(RelayFault::StuckOpen)
        })
    }

    /// Units with at least one faulted relay, in id order.
    #[must_use]
    pub fn faulted_units(&self) -> Vec<BatteryId> {
        self.units_where(|p| p.charge.is_faulted() || p.discharge.is_faulted())
    }

    /// Total relay switching operations so far (both relays, all units) —
    /// the paper's "Power Ctrl. Times" log statistic includes these.
    #[must_use]
    pub fn total_switch_operations(&self) -> u64 {
        self.pairs
            .iter()
            .map(|p| p.charge.switch_count() + p.discharge.switch_count())
            .sum()
    }

    /// Worst relay wear fraction across the matrix.
    #[must_use]
    pub fn max_relay_wear(&self) -> f64 {
        self.pairs
            .iter()
            .flat_map(|p| [p.charge.wear_fraction(), p.discharge.wear_fraction()])
            .fold(0.0, f64::max)
    }

    fn units_where(&self, pred: impl Fn(&RelayPair) -> bool) -> Vec<BatteryId> {
        self.pairs
            .iter()
            .enumerate()
            .filter(|(_, p)| pred(p))
            .map(|(i, _)| BatteryId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_isolated() {
        let m = SwitchMatrix::new(3);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.isolated_units().len(), 3);
        assert!(m.charging_units().is_empty());
        assert!(m.discharging_units().is_empty());
    }

    #[test]
    fn attach_moves_between_buses() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(2);
        m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::ChargeBus);
        m.attach(BatteryId(0), Attachment::DischargeBus)?;
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::DischargeBus);
        m.attach(BatteryId(0), Attachment::Isolated)?;
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::Isolated);
        // Unit 1 untouched throughout.
        assert_eq!(m.attachment(BatteryId(1))?, Attachment::Isolated);
        Ok(())
    }

    #[test]
    fn charge_and_discharge_never_overlap() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        for to in [
            Attachment::ChargeBus,
            Attachment::DischargeBus,
            Attachment::ChargeBus,
            Attachment::Isolated,
            Attachment::DischargeBus,
        ] {
            m.attach(BatteryId(0), to)?;
            let charging = m.charging_units().contains(&BatteryId(0));
            let discharging = m.discharging_units().contains(&BatteryId(0));
            assert!(!(charging && discharging), "invariant violated at {to}");
        }
        Ok(())
    }

    #[test]
    fn unknown_unit_is_an_error() {
        let mut m = SwitchMatrix::new(2);
        let err = m.attach(BatteryId(5), Attachment::ChargeBus).unwrap_err();
        assert_eq!(err, UnknownUnitError(BatteryId(5)));
        assert!(err.to_string().contains("battery#5"));
        assert!(m.attachment(BatteryId(2)).is_err());
    }

    #[test]
    fn switch_operations_are_counted() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        m.attach(BatteryId(0), Attachment::ChargeBus)?; // +1
        m.attach(BatteryId(0), Attachment::ChargeBus)?; // no-op
        m.attach(BatteryId(0), Attachment::DischargeBus)?; // +2
        m.attach(BatteryId(0), Attachment::Isolated)?; // +1
        assert_eq!(m.total_switch_operations(), 4);
        assert!(m.max_relay_wear() > 0.0);
        Ok(())
    }

    #[test]
    fn attach_reports_achieved_attachment() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        let got = m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_eq!(got, Attachment::ChargeBus);
        Ok(())
    }

    #[test]
    fn stuck_open_relay_blocks_that_bus() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(2);
        m.inject_relay_fault(BatteryId(0), RelayRole::Charge, RelayFault::StuckOpen)?;
        let got = m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_eq!(got, Attachment::Isolated, "charge path is unreachable");
        // The discharge path still works.
        let got = m.attach(BatteryId(0), Attachment::DischargeBus)?;
        assert_eq!(got, Attachment::DischargeBus);
        assert_eq!(m.faulted_units(), vec![BatteryId(0)]);
        assert!(m.unreachable_units().is_empty());
        Ok(())
    }

    #[test]
    fn stuck_closed_relay_pins_the_unit_and_blocks_the_other_bus() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        m.inject_relay_fault(BatteryId(0), RelayRole::Discharge, RelayFault::StuckClosed)?;
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::DischargeBus);
        // Requesting the charge bus must NOT cross-tie: the weld keeps the
        // discharge path closed, so the charge relay stays open.
        let got = m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_eq!(got, Attachment::DischargeBus);
        assert!(m.cross_tied_units().is_empty());
        assert!(m.charging_units().is_empty());
        Ok(())
    }

    #[test]
    fn double_weld_cross_ties_without_panicking() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        m.inject_relay_fault(BatteryId(0), RelayRole::Charge, RelayFault::StuckClosed)?;
        m.inject_relay_fault(BatteryId(0), RelayRole::Discharge, RelayFault::StuckClosed)?;
        // attachment() must not panic; cross-tie reads as discharge bus.
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::DischargeBus);
        assert_eq!(m.cross_tied_units(), vec![BatteryId(0)]);
        assert!(m.charging_units().is_empty());
        assert_eq!(m.discharging_units(), vec![BatteryId(0)]);
        Ok(())
    }

    #[test]
    fn weld_on_one_relay_trips_the_other_open_first() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        m.attach(BatteryId(0), Attachment::ChargeBus)?;
        m.inject_relay_fault(BatteryId(0), RelayRole::Discharge, RelayFault::StuckClosed)?;
        // Protection opened the (healthy) charge relay: no cross-tie.
        assert!(m.cross_tied_units().is_empty());
        assert_eq!(m.attachment(BatteryId(0))?, Attachment::DischargeBus);
        Ok(())
    }

    #[test]
    fn both_stuck_open_is_unreachable() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(2);
        m.inject_relay_fault(BatteryId(1), RelayRole::Charge, RelayFault::StuckOpen)?;
        m.inject_relay_fault(BatteryId(1), RelayRole::Discharge, RelayFault::StuckOpen)?;
        assert_eq!(m.unreachable_units(), vec![BatteryId(1)]);
        for to in [Attachment::ChargeBus, Attachment::DischargeBus] {
            assert_eq!(m.attach(BatteryId(1), to)?, Attachment::Isolated);
        }
        Ok(())
    }

    #[test]
    fn clearing_relay_fault_restores_control() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(1);
        m.inject_relay_fault(BatteryId(0), RelayRole::Charge, RelayFault::StuckOpen)?;
        assert_eq!(
            m.relay_fault(BatteryId(0), RelayRole::Charge)?,
            Some(RelayFault::StuckOpen)
        );
        m.clear_relay_fault(BatteryId(0), RelayRole::Charge)?;
        let got = m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_eq!(got, Attachment::ChargeBus);
        Ok(())
    }

    #[test]
    fn fault_api_rejects_unknown_units() {
        let mut m = SwitchMatrix::new(1);
        assert!(m
            .inject_relay_fault(BatteryId(9), RelayRole::Charge, RelayFault::StuckOpen)
            .is_err());
        assert!(m
            .clear_relay_fault(BatteryId(9), RelayRole::Charge)
            .is_err());
        assert!(m.relay_fault(BatteryId(9), RelayRole::Charge).is_err());
    }

    #[test]
    fn generation_tracks_every_relay_touching_operation() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(2);
        let g0 = m.generation();
        // Pure reads never bump.
        let _ = m.charging_units();
        let _ = m.attachment(BatteryId(0));
        assert_eq!(m.generation(), g0);
        m.attach(BatteryId(0), Attachment::ChargeBus)?;
        let g1 = m.generation();
        assert_ne!(g1, g0);
        m.inject_relay_fault(BatteryId(1), RelayRole::Charge, RelayFault::StuckOpen)?;
        let g2 = m.generation();
        assert_ne!(g2, g1);
        m.clear_relay_fault(BatteryId(1), RelayRole::Charge)?;
        assert_ne!(m.generation(), g2);
        // Failed operations on unknown units don't bump.
        let g3 = m.generation();
        assert!(m.attach(BatteryId(9), Attachment::ChargeBus).is_err());
        assert_eq!(m.generation(), g3);
        Ok(())
    }

    #[test]
    fn generation_moves_only_when_a_contact_moves() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(2);
        m.attach(BatteryId(0), Attachment::DischargeBus)?;
        let g = m.generation();
        // Re-requesting present attachments switches nothing.
        m.attach(BatteryId(0), Attachment::DischargeBus)?;
        m.attach(BatteryId(1), Attachment::Isolated)?;
        assert_eq!(m.generation(), g);
        // A request the hardware cannot honour moves nothing either.
        m.inject_relay_fault(BatteryId(1), RelayRole::Charge, RelayFault::StuckOpen)?;
        let g = m.generation();
        assert_eq!(
            m.attach(BatteryId(1), Attachment::ChargeBus)?,
            Attachment::Isolated
        );
        assert_eq!(m.generation(), g);
        // A real reconfiguration does.
        m.attach(BatteryId(0), Attachment::ChargeBus)?;
        assert_ne!(m.generation(), g);
        Ok(())
    }

    #[test]
    fn id_ordering_of_group_queries() -> Result<(), UnknownUnitError> {
        let mut m = SwitchMatrix::new(4);
        m.attach(BatteryId(3), Attachment::ChargeBus)?;
        m.attach(BatteryId(1), Attachment::ChargeBus)?;
        assert_eq!(m.charging_units(), vec![BatteryId(1), BatteryId(3)]);
        assert_eq!(m.isolated_units(), vec![BatteryId(0), BatteryId(2)]);
        Ok(())
    }
}
