//! Ablation studies of InSURE's design choices.
//!
//! The DESIGN.md call-outs: the TPM discharge cap level, the elastic
//! screening threshold (§3.3), and SPM's solar-adaptive charge batch size
//! (`N = PG/PPC`, Fig. 10) vs a fixed batch.

use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_core::config::InsureConfig;
use ins_core::controller::InsureController;
use ins_core::metrics::RunMetrics;
use ins_core::system::WorkloadModel;
use ins_powernet::charger::ChargeController;
use ins_sim::units::{Amps, Hours, Soc, Watts};
use ins_solar::trace::low_generation_day;

use super::{day, run_day};

/// One point of the discharge-cap sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CapSweepPoint {
    /// Per-unit discharge current cap, A.
    pub cap_amps: f64,
    /// Run metrics under that cap.
    pub metrics: RunMetrics,
}

/// Sweeps the TPM per-unit discharge cap on a low-generation seismic day.
///
/// Low caps protect the buffer (life, voltage σ) at the cost of delivered
/// throughput; high caps do the opposite — the §3.4 trade-off.
#[must_use]
pub fn discharge_cap_sweep(seed: u64, caps: &[f64]) -> Vec<CapSweepPoint> {
    caps.iter()
        .map(|&cap| {
            let mut config = InsureConfig::prototype();
            config.discharge_current_cap = Amps::new(cap);
            let controller = Box::new(InsureController::new(config));
            CapSweepPoint {
                cap_amps: cap,
                metrics: run_day(
                    &mut day(low_generation_day(seed), controller)
                        .workload(WorkloadModel::seismic())
                        .build(),
                ),
            }
        })
        .collect()
}

/// Result of the elastic-threshold ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticAblation {
    /// Metrics with the elastic (relaxing) threshold.
    pub elastic: RunMetrics,
    /// Metrics with the rigid threshold.
    pub rigid: RunMetrics,
}

/// §3.3's trade: with a rigid screening threshold a long high-demand
/// stretch can strand the system with too few eligible units; the elastic
/// threshold trades a little battery life for continued throughput.
#[must_use]
pub fn elastic_threshold_ablation(seed: u64) -> ElasticAblation {
    let run = |elastic: bool| -> RunMetrics {
        let mut config = InsureConfig::prototype();
        config.elastic_threshold = elastic;
        // A deliberately tight lifetime budget so screening actually bites
        // within a single simulated day.
        config.lifetime_discharge = ins_sim::units::AmpHours::new(100.0);
        config.desired_lifetime_days = 1000.0;
        let controller = Box::new(InsureController::new(config));
        run_day(
            &mut day(low_generation_day(seed), controller)
                .workload(WorkloadModel::seismic())
                .build(),
        )
    };
    ElasticAblation {
        elastic: run(true),
        rigid: run(false),
    }
}

/// One point of the batch-size ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSizePoint {
    /// Strategy label.
    pub strategy: &'static str,
    /// Hours until the *first* unit reached 90 % (time-to-first-ready —
    /// what determines how soon servers can come online, §3.3).
    pub hours_to_first_ready: f64,
    /// Hours until *all* units reached 90 %.
    pub hours_to_all_ready: f64,
}

/// Fig. 10's `N = PG/PPC` adaptive batch vs always charging all three
/// units, at a given solar budget.
#[must_use]
pub fn batch_size_ablation(budget: Watts) -> Vec<BatchSizePoint> {
    let run = |adaptive: bool| -> BatchSizePoint {
        let ctrl = ChargeController::prototype();
        let mut units: Vec<BatteryUnit> = (0..3)
            .map(|i| {
                BatteryUnit::with_soc(BatteryId(i), BatteryParams::cabinet_24v(), Soc::new(0.3))
            })
            .collect();
        let dt = Hours::new(1.0 / 60.0);
        let target = 0.9;
        let ppc = Watts::new(230.0);
        let mut hours = 0.0;
        let mut first_ready = f64::INFINITY;
        while units.iter().any(|u| u.soc() < target) && hours < 80.0 {
            if adaptive {
                let n = ((budget.value() / ppc.value()).floor() as usize).max(1);
                let mut idx: Vec<usize> = (0..units.len())
                    .filter(|&i| units[i].soc() < target)
                    .collect();
                idx.sort_by(|&a, &b| units[a].soc().total_cmp(&units[b].soc()));
                idx.truncate(n);
                // Split the borrow so only the selected units charge.
                let mut selected: Vec<&mut BatteryUnit> = units
                    .iter_mut()
                    .enumerate()
                    .filter(|(i, _)| idx.contains(i))
                    .map(|(_, u)| u)
                    .collect();
                ctrl.charge(&mut selected, budget, dt);
            } else {
                let mut all: Vec<&mut BatteryUnit> = units.iter_mut().collect();
                ctrl.charge(&mut all, budget, dt);
            }
            hours += dt.value();
            if first_ready.is_infinite() && units.iter().any(|u| u.soc() >= target) {
                first_ready = hours;
            }
        }
        BatchSizePoint {
            strategy: if adaptive {
                "adaptive N = PG/PPC"
            } else {
                "fixed N = all units"
            },
            hours_to_first_ready: first_ready,
            hours_to_all_ready: if units.iter().all(|u| u.soc() >= target) {
                hours
            } else {
                f64::INFINITY
            },
        }
    };
    vec![run(true), run(false)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_sweep_changes_the_operating_point() {
        // The sweep's interesting (and physically correct) outcome: a
        // loose cap lets current spike, the available well collapses, and
        // the TPM's emergency path fires earlier — so *gentler* capping
        // actually extracts at least comparable total charge via the
        // recovery effect, exactly the §3.4 argument for capping at all.
        let points = discharge_cap_sweep(4, &[8.75, 35.0]);
        let tight = &points[0];
        let loose = &points[1];
        assert!(tight.metrics.processed_gb > 0.0);
        assert!(loose.metrics.processed_gb > 0.0);
        assert!(
            tight.metrics.discharge_throughput_ah
                >= loose.metrics.discharge_throughput_ah * 0.8,
            "tight cap {} Ah vs loose cap {} Ah — capping must not strand              usable charge",
            tight.metrics.discharge_throughput_ah,
            loose.metrics.discharge_throughput_ah
        );
        // The two caps genuinely steer the system differently.
        assert!(
            (tight.metrics.discharge_throughput_ah - loose.metrics.discharge_throughput_ah).abs()
                > 1.0
                || tight.metrics.power_ctrl_times != loose.metrics.power_ctrl_times,
            "sweep had no effect"
        );
    }

    #[test]
    fn elastic_threshold_recovers_throughput() {
        let ab = elastic_threshold_ablation(4);
        // With a rigid, exhausted budget the system stalls; elastic
        // screening keeps processing.
        assert!(
            ab.elastic.processed_gb >= ab.rigid.processed_gb,
            "elastic {:.1} GB vs rigid {:.1} GB",
            ab.elastic.processed_gb,
            ab.rigid.processed_gb
        );
    }

    #[test]
    fn adaptive_batch_readies_first_unit_sooner() {
        // At a tight budget the adaptive rule concentrates power: the
        // first unit comes online much sooner than with batch charging.
        let points = batch_size_ablation(Watts::new(120.0));
        let adaptive = &points[0];
        let fixed = &points[1];
        assert!(
            adaptive.hours_to_first_ready < 0.7 * fixed.hours_to_first_ready,
            "adaptive first-ready {:.1} h vs fixed {:.1} h",
            adaptive.hours_to_first_ready,
            fixed.hours_to_first_ready
        );
    }

    #[test]
    fn ample_budget_makes_strategies_equivalent() {
        let points = batch_size_ablation(Watts::new(800.0));
        let adaptive = &points[0];
        let fixed = &points[1];
        // With PG ≥ 3 × PPC the adaptive rule charges all three anyway.
        assert!(
            (adaptive.hours_to_all_ready - fixed.hours_to_all_ready).abs()
                < 0.25 * fixed.hours_to_all_ready,
            "adaptive {:.1} h vs fixed {:.1} h",
            adaptive.hours_to_all_ready,
            fixed.hours_to_all_ready
        );
    }
}
