//! Spatial power management (SPM).
//!
//! The paper's Fig. 9 and Fig. 10 algorithms:
//!
//! * **Screening** — at each coarse interval, compute the discharge budget
//!   threshold `δD = DU + DL · T / TL` (Eq. 1) and move units whose
//!   aggregated discharge exceeds it into the offline group, balancing
//!   wear across the e-Buffer.
//! * **Batch sizing** — compute `N = PG / PPC`, the number of units the
//!   current renewable budget can charge at near-peak rate, and pick the
//!   `N` neediest eligible units (priority to low state of charge,
//!   Fig. 14-a; ties broken toward low lifetime usage, Fig. 14-b).
//! * **Discharge selection** — pick enough charged units to carry the
//!   load under the per-unit current cap, preferring full, lightly-used
//!   units (discharge balancing).

use ins_battery::BatteryId;
use ins_sim::time::SimDuration;
use ins_sim::units::{AmpHours, Amps, Soc, Volts, Watts};

/// Controller-visible state of one battery unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitView {
    /// The unit's id.
    pub id: BatteryId,
    /// Total state of charge.
    pub soc: Soc,
    /// Fill level of the KiBaM available well in `[0, 1]` — the early
    /// warning of an imminent terminal-voltage collapse.
    pub available_fraction: f64,
    /// Lifetime discharge throughput (the paper's `AhT[i]`).
    pub discharge_throughput: AmpHours,
    /// `true` when the unit's protection cutoff tripped this period.
    pub at_cutoff: bool,
    /// Terminal voltage as the sense line reads it (at the reference
    /// load current). An open-circuit failure reads 0 V here while the
    /// coulomb-counted `soc` still claims charge — the divergence the
    /// health monitor keys on.
    pub terminal_voltage: Volts,
    /// Age of this unit's telemetry: zero when fresh, growing while a
    /// sense line is down and the controller sees frozen data.
    pub telemetry_age: SimDuration,
}

/// The discharge budget threshold of Eq. 1: `δD = DU + DL · T / TL`.
///
/// `unused_budget` is the budget left over from the previous control
/// period (`DU`), `lifetime_discharge` the designated total (`DL`),
/// `elapsed_days` the age of the deployment (`T`) and
/// `desired_lifetime_days` the design life (`TL`).
#[must_use]
pub fn discharge_threshold(
    unused_budget: AmpHours,
    lifetime_discharge: AmpHours,
    elapsed_days: f64,
    desired_lifetime_days: f64,
) -> AmpHours {
    let ratio = (elapsed_days / desired_lifetime_days).max(0.0);
    unused_budget + lifetime_discharge * ratio
}

/// Screens units against the discharge threshold (Fig. 9): refills
/// `eligible` with the units under it, usable in the coming cycle (the
/// rest are over-used and rest for the period), and returns the
/// threshold actually applied.
///
/// With `elastic` set (§3.3's lifetime-for-throughput trade), the
/// threshold is relaxed in 10 % steps until at least `min_eligible` units
/// qualify, so a long stretch of high demand cannot strand the system with
/// an empty eligible set.
pub fn screen(
    units: &[UnitView],
    threshold: AmpHours,
    elastic: bool,
    min_eligible: usize,
    eligible: &mut Vec<BatteryId>,
) -> AmpHours {
    let mut applied = threshold;
    loop {
        eligible.clear();
        eligible.extend(
            units
                .iter()
                .filter(|u| u.discharge_throughput < applied || applied.value() <= 0.0)
                .map(|u| u.id),
        );
        let enough = eligible.len() >= min_eligible.min(units.len());
        if enough || !elastic {
            return applied;
        }
        // Relax by 10 % of the designated threshold (or a floor when the
        // threshold started at zero).
        let bump = (threshold.value() * 0.1).max(1.0);
        applied = AmpHours::new(applied.value() + bump);
    }
}

/// Fig. 10's batch size: how many units the renewable budget `pg` can
/// charge at near-peak per-unit power `ppc`. At least one whenever any
/// usable budget exists.
///
/// Total on its whole domain: a non-positive `ppc` means no unit can be
/// charged at peak, so the batch size is zero. (The controller passes
/// the positive [`crate::controller::PEAK_CHARGE_POWER`]; this keeps the
/// SPM panic-free for any caller.)
#[must_use]
pub fn charge_batch_size(pg: Watts, ppc: Watts) -> usize {
    if ppc.value() <= 0.0 || pg.value() <= 0.0 {
        return 0;
    }
    let n = (pg.value() / ppc.value()).floor() as usize;
    n.max(1)
}

/// Refills `ranked` with the indices of the `units` that pass `keep`,
/// in a stable sort by `order`.
fn rank(
    ranked: &mut Vec<usize>,
    units: &[UnitView],
    keep: impl Fn(&UnitView) -> bool,
    order: impl Fn(&UnitView, &UnitView) -> std::cmp::Ordering,
) {
    ranked.clear();
    ranked.extend((0..units.len()).filter(|&i| keep(&units[i])));
    ranked.sort_by(|&a, &b| order(&units[a], &units[b]));
}

/// Picks up to `n` units to charge into `chosen`: lowest state of charge
/// first (fast-charging priority, Fig. 14-a), ties toward the least-used
/// unit (balance, Fig. 14-b). Only units below `target_soc` are
/// candidates.
///
/// `ranked` and `chosen` are the caller's reused working lists; nothing
/// in them carries over from an earlier call.
pub fn select_for_charging(
    units: &[UnitView],
    eligible: &[BatteryId],
    n: usize,
    target_soc: Soc,
    ranked: &mut Vec<usize>,
    chosen: &mut Vec<BatteryId>,
) {
    rank(
        ranked,
        units,
        |u| eligible.contains(&u.id) && u.soc < target_soc,
        |a, b| {
            a.soc
                .total_cmp(&b.soc)
                .then(a.discharge_throughput.total_cmp(&b.discharge_throughput))
        },
    );
    chosen.clear();
    chosen.extend(ranked.iter().take(n).map(|&i| units[i].id));
}

/// Picks units into `chosen` to carry a total discharge `needed` under a
/// per-unit current cap: fullest and least-used units first, adding units
/// until the per-unit share fits under the cap (or candidates run out).
/// An empty `chosen` means no unit can serve.
///
/// `ranked` and `chosen` are the caller's reused working lists; nothing
/// in them carries over from an earlier call.
pub fn select_for_discharge(
    units: &[UnitView],
    eligible: &[BatteryId],
    needed: Amps,
    per_unit_cap: Amps,
    min_usable_soc: Soc,
    ranked: &mut Vec<usize>,
    chosen: &mut Vec<BatteryId>,
) {
    chosen.clear();
    if needed.value() <= 0.0 {
        return;
    }
    // Fullest first; among equals, least lifetime usage first.
    rank(
        ranked,
        units,
        |u| eligible.contains(&u.id) && u.soc > min_usable_soc && !u.at_cutoff,
        |a, b| {
            b.soc
                .total_cmp(&a.soc)
                .then(a.discharge_throughput.total_cmp(&b.discharge_throughput))
        },
    );
    for &i in ranked.iter() {
        chosen.push(units[i].id);
        let per_unit = needed / chosen.len() as f64;
        if per_unit <= per_unit_cap {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: usize, soc: f64, throughput: f64) -> UnitView {
        UnitView {
            id: BatteryId(id),
            soc: Soc::new(soc),
            available_fraction: soc,
            discharge_throughput: AmpHours::new(throughput),
            at_cutoff: false,
            terminal_voltage: Volts::new(24.0),
            telemetry_age: SimDuration::ZERO,
        }
    }

    /// [`screen`] into a fresh list: the eligible ids, the rested ids
    /// (the complement) and the applied threshold.
    fn screened(
        units: &[UnitView],
        threshold: AmpHours,
        elastic: bool,
        min_eligible: usize,
    ) -> (Vec<BatteryId>, Vec<BatteryId>, AmpHours) {
        let mut eligible = Vec::new();
        let applied = screen(units, threshold, elastic, min_eligible, &mut eligible);
        let rested = units
            .iter()
            .map(|u| u.id)
            .filter(|id| !eligible.contains(id))
            .collect();
        (eligible, rested, applied)
    }

    /// [`select_for_charging`] into fresh working lists.
    fn charging(
        units: &[UnitView],
        eligible: &[BatteryId],
        n: usize,
        target_soc: Soc,
    ) -> Vec<BatteryId> {
        let (mut ranked, mut chosen) = (Vec::new(), Vec::new());
        select_for_charging(units, eligible, n, target_soc, &mut ranked, &mut chosen);
        chosen
    }

    /// [`select_for_discharge`] at the prototype's 17.5 A cap and 30 %
    /// usable floor, into fresh working lists.
    fn discharging(units: &[UnitView], eligible: &[BatteryId], needed: Amps) -> Vec<BatteryId> {
        let (mut ranked, mut chosen) = (Vec::new(), Vec::new());
        select_for_discharge(
            units,
            eligible,
            needed,
            Amps::new(17.5),
            Soc::new(0.3),
            &mut ranked,
            &mut chosen,
        );
        chosen
    }

    #[test]
    fn threshold_grows_linearly_with_age() {
        let dl = AmpHours::new(8750.0);
        let t0 = discharge_threshold(AmpHours::ZERO, dl, 0.0, 1460.0);
        assert_eq!(t0, AmpHours::ZERO);
        let t1 = discharge_threshold(AmpHours::ZERO, dl, 146.0, 1460.0);
        assert!((t1.value() - 875.0).abs() < 1e-9);
        // Unused budget carries forward.
        let t2 = discharge_threshold(AmpHours::new(100.0), dl, 146.0, 1460.0);
        assert!((t2.value() - 975.0).abs() < 1e-9);
    }

    #[test]
    fn screening_separates_overused_units() {
        let units = [view(0, 0.8, 10.0), view(1, 0.8, 200.0), view(2, 0.8, 50.0)];
        let (eligible, rested, applied) = screened(&units, AmpHours::new(100.0), false, 0);
        assert_eq!(eligible, vec![BatteryId(0), BatteryId(2)]);
        assert_eq!(rested, vec![BatteryId(1)]);
        assert_eq!(applied, AmpHours::new(100.0));
    }

    #[test]
    fn elastic_screening_relaxes_until_enough() {
        // All units above threshold; elastic mode must still find two.
        let units = [
            view(0, 0.8, 150.0),
            view(1, 0.8, 120.0),
            view(2, 0.8, 180.0),
        ];
        let (rigid, _, _) = screened(&units, AmpHours::new(100.0), false, 2);
        assert!(rigid.is_empty());
        let (elastic, _, applied) = screened(&units, AmpHours::new(100.0), true, 2);
        assert!(elastic.len() >= 2);
        assert!(applied > AmpHours::new(100.0));
    }

    #[test]
    fn batch_size_follows_budget() {
        let ppc = Watts::new(230.0);
        assert_eq!(charge_batch_size(Watts::ZERO, ppc), 0);
        assert_eq!(charge_batch_size(Watts::new(100.0), ppc), 1);
        assert_eq!(charge_batch_size(Watts::new(460.0), ppc), 2);
        assert_eq!(charge_batch_size(Watts::new(800.0), ppc), 3);
    }

    #[test]
    fn batch_size_is_total_in_degenerate_inputs() {
        // A non-positive peak charge power can charge nothing; the SPM
        // stays panic-free rather than asserting (service-mode sweep).
        assert_eq!(charge_batch_size(Watts::new(100.0), Watts::ZERO), 0);
        assert_eq!(charge_batch_size(Watts::new(100.0), Watts::new(-5.0)), 0);
    }

    #[test]
    fn charging_selection_prefers_low_soc() {
        let units = [view(0, 0.9, 0.0), view(1, 0.2, 0.0), view(2, 0.5, 0.0)];
        let all = [BatteryId(0), BatteryId(1), BatteryId(2)];
        let picked = charging(&units, &all, 2, Soc::new(0.9));
        assert_eq!(picked, vec![BatteryId(1), BatteryId(2)]);
    }

    #[test]
    fn charging_selection_ignores_already_charged() {
        let units = [view(0, 0.95, 0.0), view(1, 0.92, 0.0)];
        let all = [BatteryId(0), BatteryId(1)];
        assert!(charging(&units, &all, 2, Soc::new(0.9)).is_empty());
    }

    #[test]
    fn charging_selection_breaks_ties_by_usage() {
        let units = [view(0, 0.5, 500.0), view(1, 0.5, 10.0)];
        let all = [BatteryId(0), BatteryId(1)];
        let picked = charging(&units, &all, 1, Soc::new(0.9));
        assert_eq!(picked, vec![BatteryId(1)]);
    }

    #[test]
    fn charging_selection_respects_eligibility() {
        let units = [view(0, 0.1, 0.0), view(1, 0.2, 0.0)];
        let only_one = [BatteryId(1)];
        let picked = charging(&units, &only_one, 2, Soc::new(0.9));
        assert_eq!(picked, vec![BatteryId(1)]);
    }

    #[test]
    fn discharge_selection_adds_units_until_cap_fits() {
        let units = [view(0, 0.9, 0.0), view(1, 0.85, 0.0), view(2, 0.8, 0.0)];
        let all = [BatteryId(0), BatteryId(1), BatteryId(2)];
        // 40 A needed at a 17.5 A cap → 3 units.
        let picked = discharging(&units, &all, Amps::new(40.0));
        assert_eq!(picked.len(), 3);
        // 15 A needed → a single (fullest) unit suffices.
        let picked = discharging(&units, &all, Amps::new(15.0));
        assert_eq!(picked, vec![BatteryId(0)]);
    }

    #[test]
    fn discharge_selection_skips_depleted_and_cutoff_units() {
        let mut low = view(0, 0.2, 0.0);
        low.at_cutoff = false;
        let mut tripped = view(1, 0.9, 0.0);
        tripped.at_cutoff = true;
        let good = view(2, 0.7, 0.0);
        let all = [BatteryId(0), BatteryId(1), BatteryId(2)];
        let picked = discharging(&[low, tripped, good], &all, Amps::new(10.0));
        assert_eq!(picked, vec![BatteryId(2)]);
    }

    #[test]
    fn discharge_selection_zero_need_is_empty() {
        let units = [view(0, 0.9, 0.0)];
        let all = [BatteryId(0)];
        assert!(discharging(&units, &all, Amps::ZERO).is_empty());
    }

    #[test]
    fn reused_lists_keep_no_picks_from_the_previous_call() {
        // One pair of working lists for both selections, as the
        // controller keeps them: a three-unit pick, then a call with a
        // single candidate, must return exactly that one unit.
        let units = [view(0, 0.9, 0.0), view(1, 0.5, 0.0), view(2, 0.2, 0.0)];
        let all = [BatteryId(0), BatteryId(1), BatteryId(2)];
        let (mut ranked, mut chosen) = (Vec::new(), Vec::new());
        let discharge = |eligible: &[BatteryId], ranked: &mut Vec<usize>, chosen: &mut Vec<_>| {
            select_for_discharge(
                &units,
                eligible,
                Amps::new(100.0),
                Amps::new(17.5),
                Soc::new(0.1),
                ranked,
                chosen,
            );
        };
        discharge(&all, &mut ranked, &mut chosen);
        assert_eq!(chosen, [BatteryId(0), BatteryId(1), BatteryId(2)]);
        discharge(&[BatteryId(1)], &mut ranked, &mut chosen);
        assert_eq!(chosen, [BatteryId(1)]);

        select_for_charging(&units, &all, 3, Soc::new(0.95), &mut ranked, &mut chosen);
        assert_eq!(chosen, [BatteryId(2), BatteryId(1), BatteryId(0)]);
        select_for_charging(
            &units,
            &[BatteryId(0)],
            3,
            Soc::new(0.95),
            &mut ranked,
            &mut chosen,
        );
        assert_eq!(chosen, [BatteryId(0)]);
    }

    #[test]
    fn selection_order_is_total_even_with_nan_throughput() {
        // Regression for the old `partial_cmp(..).unwrap_or(Equal)`
        // comparators: a NaN throughput (corrupted telemetry) used to
        // compare Equal to everything, so the ranking depended on the
        // incoming slice order. Under `total_cmp`, NaN ranks above every
        // finite value — least-used-first still prefers healthy ledgers —
        // and the result is identical on every call.
        let mut units = vec![
            view(0, 0.8, f64::NAN),
            view(1, 0.8, 50.0),
            view(2, 0.8, 10.0),
        ];
        let all = vec![BatteryId(0), BatteryId(1), BatteryId(2)];
        let first = discharging(&units, &all, Amps::new(40.0));
        assert_eq!(first, vec![BatteryId(2), BatteryId(1), BatteryId(0)]);
        // Same candidates presented in a different order: same ranking.
        units.swap(0, 2);
        let again = discharging(&units, &all, Amps::new(40.0));
        assert_eq!(first, again);
    }
}
