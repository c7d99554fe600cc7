//! Figures 1, 3, 22, 23, 24 and 25: the cost analyses.
//!
//! Thin experiment wrappers over `ins-cost` that produce exactly the
//! series each figure charts, plus renderers for the experiment binaries.

use ins_cost::energy::GenTech;
use ins_cost::params::{CommsCosts, GenerationCosts, ItCosts, SystemSizing};
use ins_cost::scale::{
    cloud_tco_5yr, crossover_rate_gb_per_day, fig23_series, insitu_tco_5yr, Fig23Row,
    REFERENCE_SUNSHINE_FRACTION,
};
use ins_cost::scenario::{cloud_cost, insitu_cost, saving, scenarios, Scenario};
use ins_cost::system_cost::{fig22_comparison, full_breakdown, TechComparison};
use ins_cost::tco::{cumulative_cost as it_tco, Strategy};
use ins_cost::transfer::{aws_avg_cost_per_tb, link_classes, transfer_hours};

use crate::table::{dollars, pct, TextTable};

/// Fig. 1-a rows: hours to move 1 TB per link class.
#[must_use]
pub fn fig1a() -> Vec<(&'static str, f64)> {
    link_classes()
        .into_iter()
        .map(|l| (l.name, transfer_hours(1024.0, l.mbps)))
        .collect()
}

/// Fig. 1-b rows: average $/TB at each monthly volume.
#[must_use]
pub fn fig1b() -> Vec<(f64, f64)> {
    [10.0, 50.0, 150.0, 250.0, 500.0]
        .into_iter()
        .map(|tb| (tb, aws_avg_cost_per_tb(tb)))
        .collect()
}

/// Fig. 3-a matrix: cumulative IT TCO per strategy per year.
#[must_use]
pub fn fig3a() -> Vec<(Strategy, Vec<f64>)> {
    let (c, it, s) = (
        CommsCosts::paper(),
        ItCosts::paper(),
        SystemSizing::prototype(),
    );
    Strategy::ALL
        .iter()
        .map(|&st| {
            let series = (1..=5)
                .map(|y| it_tco(st, f64::from(y), &c, &it, &s))
                .collect();
            (st, series)
        })
        .collect()
}

/// Fig. 3-b matrix: cumulative energy TCO per technology per odd year.
#[must_use]
pub fn fig3b() -> Vec<(GenTech, Vec<f64>)> {
    let (g, s) = (GenerationCosts::paper(), SystemSizing::prototype());
    [GenTech::SolarBattery, GenTech::FuelCell, GenTech::Diesel]
        .into_iter()
        .map(|tech| {
            let series = (0..6)
                .map(|i| ins_cost::energy::cumulative_cost(tech, f64::from(i * 2 + 1), &g, &s))
                .collect();
            (tech, series)
        })
        .collect()
}

/// Fig. 22: annual depreciation comparison with component breakdowns.
#[must_use]
pub fn fig22() -> (Vec<TechComparison>, String) {
    let (it, g, s) = (
        ItCosts::paper(),
        GenerationCosts::paper(),
        SystemSizing::prototype(),
    );
    let comparison = fig22_comparison(&it, &g, &s);
    let mut out = String::new();
    for tech in [GenTech::SolarBattery, GenTech::Diesel, GenTech::FuelCell] {
        out.push_str(&format!("{tech}\n"));
        let mut t = TextTable::new(vec!["component", "annual"]);
        for line in full_breakdown(tech, &it, &g, &s) {
            t.row(vec![line.component.to_string(), dollars(line.annual)]);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    (comparison, out)
}

/// Fig. 23: the scale-out vs cloud series at the paper's demand point.
#[must_use]
pub fn fig23() -> Vec<Fig23Row> {
    fig23_series(
        5.5,
        &CommsCosts::paper(),
        &ItCosts::paper(),
        &SystemSizing::prototype(),
    )
}

/// One Fig. 24 row: `(rate GB/day, cloud TCO, in-situ TCO per sunshine
/// fraction)`.
pub type Fig24Row = (f64, f64, Vec<f64>);

/// Fig. 24: TCO vs data rate for the cloud and four sunshine fractions,
/// plus the crossover rate (`None` if no crossover in the searched
/// range — callers must fail loudly, not print NaN).
#[must_use]
pub fn fig24() -> (Vec<Fig24Row>, Option<f64>) {
    let (c, it, s) = (
        CommsCosts::paper(),
        ItCosts::paper(),
        SystemSizing::prototype(),
    );
    let fractions = [0.4, 0.6, 0.8, 1.0];
    let rows = [0.5, 5.0, 50.0, 500.0]
        .into_iter()
        .map(|rate| {
            let cloud = cloud_tco_5yr(rate, &c);
            let insitu: Vec<f64> = fractions
                .iter()
                .map(|&sf| insitu_tco_5yr(rate, sf, &c, &it, &s))
                .collect();
            (rate, cloud, insitu)
        })
        .collect();
    // `None` (no crossover in the searched range) is propagated, not
    // masked as NaN — callers must report it and fail loudly.
    let crossover = crossover_rate_gb_per_day(REFERENCE_SUNSHINE_FRACTION, &c, &it, &s);
    (rows, crossover)
}

/// Fig. 25 rows: per-scenario costs and savings.
#[must_use]
pub fn fig25() -> Vec<(Scenario, f64, f64, f64)> {
    let (c, it, s) = (
        CommsCosts::paper(),
        ItCosts::paper(),
        SystemSizing::prototype(),
    );
    scenarios()
        .into_iter()
        .map(|sc| {
            let cloud = cloud_cost(&sc, &c);
            let insitu = insitu_cost(&sc, &c, &it, &s);
            let save = saving(&sc, &c, &it, &s);
            (sc, cloud, insitu, save)
        })
        .collect()
}

/// Renders the Fig. 25 table.
#[must_use]
pub fn render_fig25(rows: &[(Scenario, f64, f64, f64)]) -> String {
    let mut t = TextTable::new(vec![
        "id", "scenario", "GB/day", "days", "cloud", "in-situ", "saving", "paper",
    ]);
    for (sc, cloud, insitu, save) in rows {
        t.row(vec![
            sc.label.to_string(),
            sc.name.to_string(),
            format!("{:.0}", sc.rate_gb_per_day),
            format!("{:.0}", sc.deployment_days),
            dollars(*cloud),
            dollars(*insitu),
            pct(*save),
            format!("{}–{}", pct(sc.paper_saving.0), pct(sc.paper_saving.1)),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_series_are_sane() {
        let a = fig1a();
        assert_eq!(a.len(), 6);
        assert!(
            a.windows(2).all(|w| w[0].1 > w[1].1),
            "faster links take less time"
        );
        let b = fig1b();
        assert!(b.windows(2).all(|w| w[0].1 >= w[1].1), "bulk discounts");
    }

    #[test]
    fn fig3a_in_situ_strategies_stay_lowest() {
        for (strategy, series) in fig3a() {
            assert_eq!(series.len(), 5);
            assert!(series.windows(2).all(|w| w[0] < w[1]), "{strategy} grows");
        }
        let all = fig3a();
        let year5 = |s: Strategy| {
            all.iter()
                .find(|(st, _)| *st == s)
                .map(|(_, v)| v[4])
                .expect("strategy present")
        };
        assert!(year5(Strategy::InSituCellular) < year5(Strategy::Satellite));
        assert!(year5(Strategy::InSituSatellite) < year5(Strategy::Cellular));
    }

    #[test]
    fn fig3b_solar_wins_late() {
        let series = fig3b();
        let last = |tech: GenTech| {
            series
                .iter()
                .find(|(t, _)| *t == tech)
                .map(|(_, v)| *v.last().expect("non-empty"))
                .expect("tech present")
        };
        assert!(last(GenTech::SolarBattery) < last(GenTech::FuelCell));
        assert!(last(GenTech::SolarBattery) < last(GenTech::Diesel));
    }

    #[test]
    fn fig22_relative_costs() {
        let (cmp, text) = fig22();
        assert_eq!(cmp.len(), 3);
        assert!(cmp.iter().all(|c| c.vs_insure >= 1.0));
        assert!(text.contains("Server") && text.contains("Fuel"));
    }

    #[test]
    fn fig24_crossover_near_paper_value() {
        let (rows, crossover) = fig24();
        let crossover = crossover.expect("crossover exists at the reference sunshine fraction");
        assert!((0.5..1.5).contains(&crossover), "crossover {crossover:.2}");
        // At 500 GB/day every in-situ curve crushes the cloud.
        let (_, cloud, insitu) = &rows[3];
        assert!(insitu.iter().all(|c| c < cloud));
    }

    #[test]
    fn fig25_renders_all_scenarios() {
        let rows = fig25();
        assert_eq!(rows.len(), 5);
        let text = render_fig25(&rows);
        for label in ["A", "B", "C", "D", "E"] {
            assert!(text.contains(label));
        }
    }
}
