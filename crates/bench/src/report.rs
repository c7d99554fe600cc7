//! One text report per experiment binary.
//!
//! [`REPORTS`] lists every figure, table and sweep binary in paper order
//! with its `all_experiments` heading and the one function that renders
//! what the binary prints. A figure or table binary, and
//! `endurance_weeks`, is a call to [`main`]; `fault_sweep`, `recovery`
//! and `fleet_resilience` parse their own flags and print through
//! [`fault_sweep`], [`recovery`] and [`fleet_resilience`];
//! `all_experiments` prints every body under its heading. So a section
//! of `all_experiments` is byte for byte its binary's output.

use std::fmt::Write as _;
use std::process::ExitCode;

use ins_sim::units::WattHours;

use crate::experiments::{
    buffer, costs, endurance, faults, fleet, fullsys, hetero, logs, micro, recovery, sizing, traces,
};
use crate::runner::{Flag, SweepArgs};
use crate::table::{dollars, TextTable};

/// An experiment binary's report.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// The binary's name.
    pub bin: &'static str,
    /// The binary's section heading in `all_experiments`.
    pub heading: &'static str,
    /// Renders the binary's stdout at its default flags, given a thread
    /// count (`0` = available parallelism); `Err` is a failed
    /// experiment.
    pub body: fn(usize) -> Result<String, String>,
}

/// Every experiment binary's report, in paper order.
pub const REPORTS: &[Report] = &[
    report(
        "fig01_transfer",
        "Fig. 1 — bulk data movement overhead",
        fig01,
    ),
    report(
        "fig03_tco",
        "Fig. 3 — cost benefits of standalone in-situ systems",
        fig03,
    ),
    report("fig04_buffer", "Fig. 4 — energy buffer properties", fig04),
    report(
        "table02_seismic",
        "Table 2 — seismic throughput under a 2 kWh budget",
        table02,
    ),
    report(
        "table03_video",
        "Table 3 — video throughput by VM count",
        table03,
    ),
    report(
        "fig05_switchout",
        "Fig. 5 — unified buffer switch-out snapshot",
        fig05,
    ),
    report("fig14_behavior", "Fig. 14 — InSURE power behaviour", fig14),
    report("fig15_solar", "Fig. 15 — solar evaluation days", fig15),
    report("fig16_daylong", "Fig. 16 — full-day InSURE trace", fig16),
    report("table06_logs", "Table 6 — day-long operation logs", table06),
    report(
        "table07_hetero",
        "Table 7 — heterogeneous servers, and §6.2's low-power rack over a full day",
        table07,
    ),
    report(
        "fig17_19_micro",
        "Figs. 17–19 — micro-benchmark effectiveness",
        fig17_19,
    ),
    report(
        "fig20_21_full",
        "Figs. 20–21 — full-system evaluation",
        fig20_21,
    ),
    report("fig22_depreciation", "Fig. 22 — annual depreciation", fig22),
    report(
        "fig23_scaleout",
        "Fig. 23 — scale-out vs cloud by sunshine fraction",
        fig23,
    ),
    report("fig24_crossover", "Fig. 24 — TCO crossover", fig24),
    report("fig25_scenarios", "Fig. 25 — application scenarios", fig25),
    report(
        "fault_sweep",
        "Robustness extension — fault-rate sweep",
        |threads| Ok(fault_sweep(&defaults(threads), &faults::RATES_HOURS)),
    ),
    report(
        "recovery",
        "Robustness extension — recovery sweep (checkpoint interval × fault rate)",
        |threads| Ok(recovery(&defaults(threads))),
    ),
    report(
        "fleet_resilience",
        "Robustness extension — fleet resilience (sites × fault rate × breaker)",
        |threads| Ok(fleet_resilience(&defaults(threads))),
    ),
    report(
        "endurance_weeks",
        "Extension — two-week endurance and sunshine sweep",
        endurance_weeks,
    ),
];

const fn report(
    bin: &'static str,
    heading: &'static str,
    body: fn(usize) -> Result<String, String>,
) -> Report {
    Report { bin, heading, body }
}

/// A sweep binary's flags when it is given none but `--threads`.
fn defaults(threads: usize) -> SweepArgs {
    SweepArgs {
        threads,
        ..SweepArgs::default()
    }
}

/// Runs report `bin` as its binary's `main`. The binary takes only
/// `flags`: none, or [`Flag::Threads`] when its body fans out. Prints
/// the body and exits 0, prints the error to stderr and exits 1, or
/// exits 2 with the usage line on any other argument.
#[must_use]
pub fn main(bin: &str, flags: &[Flag]) -> ExitCode {
    let mut usage = format!("usage: {bin}");
    if flags.contains(&Flag::Threads) {
        usage.push_str(" [--threads N]");
    }
    let args = match SweepArgs::from_env(&usage, flags, |_, _| Ok(false)) {
        Ok(args) => args,
        Err(code) => return code,
    };
    let result = match REPORTS.iter().find(|r| r.bin == bin) {
        Some(report) => (report.body)(args.threads),
        None => Err(format!("no report for '{bin}'")),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `fault_sweep`'s stdout for `args` over the `rates` grid: the rows as
/// JSON under `--json`, the text report otherwise. The rows come from
/// the shared-prefix runner the benchmark's `sweep_grid` times;
/// `tests/incremental_sweep.rs` holds them equal to
/// [`faults::sweep_rates_with`]'s.
#[must_use]
pub fn fault_sweep(args: &SweepArgs, rates: &[Option<f64>]) -> String {
    let rows = faults::sweep_rates_incremental(args.seed, rates, args.threads);
    if args.json {
        return faults::to_json(&rows) + "\n";
    }
    format!(
        "Fault sweep — one day, stochastic fault schedule per rate (seed {})\n{}\n\
         (same seed per rate: both controllers face identical fault arrivals)\n",
        args.seed,
        faults::render(&rows)
    )
}

/// `recovery`'s stdout for `args`: the rows as JSON under `--json`, the
/// text report otherwise. Like [`fault_sweep`], it runs the shared-prefix
/// runner, held equal to [`recovery::sweep_grid_with`].
#[must_use]
pub fn recovery(args: &SweepArgs) -> String {
    let rows = recovery::sweep_grid_incremental(
        args.seed,
        &recovery::CHECKPOINT_INTERVALS_HOURS,
        &recovery::FAULT_RATES_HOURS,
        args.threads,
    );
    if args.json {
        return recovery::to_json(&rows) + "\n";
    }
    format!(
        "Recovery sweep — checkpoint interval × fault rate (seed {})\n{}\n\
         (goodput counts each GB once; throughput double-counts replayed work)\n",
        args.seed,
        recovery::render(&rows)
    )
}

/// `fleet_resilience`'s stdout for `args`: the rows as JSON under
/// `--json`, the text report otherwise.
#[must_use]
pub fn fleet_resilience(args: &SweepArgs) -> String {
    let rows = fleet::sweep_grid_with(
        args.seed,
        &fleet::FLEET_SIZES,
        &fleet::FAULT_RATES_HOURS,
        &fleet::BREAKER_POLICIES,
        args.threads,
    );
    if args.json {
        return fleet::to_json(&rows) + "\n";
    }
    format!(
        "Fleet resilience — sites × fault rate × breaker policy (seed {})\n{}\n\
         (goodput = served/offered volume; every request resolves: no silent drops)\n",
        args.seed,
        fleet::render(&rows)
    )
}

/// Rounds each value to one decimal, for the per-unit Ah lists.
fn tenths(values: &[f64]) -> Vec<f64> {
    values.iter().map(|v| (v * 10.0).round() / 10.0).collect()
}

fn fig01(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 1-a — transfer time for 1 TB by link class");
    let mut t = TextTable::new(vec!["link", "hours per TB"]);
    for (name, hours) in costs::fig1a() {
        t.row(vec![name.to_string(), format!("{hours:.1}")]);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Fig. 1-b — average $/TB transferred out of AWS (Jan 2014 tiers)"
    );
    let mut t = TextTable::new(vec!["volume (TB)", "avg $/TB"]);
    for (tb, cost) in costs::fig1b() {
        t.row(vec![format!("{tb:.0}"), format!("{cost:.2}")]);
    }
    let _ = writeln!(out, "{}", t.render());
    Ok(out)
}

fn fig03(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 3-a — IT-related TCO (cumulative, years 1–5)");
    let mut t = TextTable::new(vec!["strategy", "1 yr", "2 yr", "3 yr", "4 yr", "5 yr"]);
    for (strategy, series) in costs::fig3a() {
        let mut row = vec![strategy.to_string()];
        row.extend(series.iter().map(|&v| dollars(v)));
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    let _ = writeln!(
        out,
        "Fig. 3-b — energy-related TCO (cumulative, years 1–11)"
    );
    let mut t = TextTable::new(vec![
        "technology",
        "1 yr",
        "3 yr",
        "5 yr",
        "7 yr",
        "9 yr",
        "11 yr",
    ]);
    for (tech, series) in costs::fig3b() {
        let mut row = vec![tech.to_string()];
        row.extend(series.iter().map(|&v| dollars(v)));
        t.row(row);
    }
    let _ = writeln!(out, "{}", t.render());
    Ok(out)
}

fn fig04(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 4-a — individual (sequential) vs batch charging, 100 W solar budget"
    );
    let (seq, batch) = buffer::fig4a();
    for run in [&seq, &batch] {
        let _ = writeln!(
            out,
            "  {:<22} time to 80 % on all 3 cabinets: {}",
            run.strategy,
            if run.hours_to_target.is_finite() {
                format!("{:.1} h", run.hours_to_target)
            } else {
                "did not complete".to_string()
            }
        );
    }
    let _ = writeln!(
        out,
        "  → sequential completes in {:.0} % of the batch time (paper: ≈ 50 %)",
        seq.hours_to_target / batch.hours_to_target * 100.0
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Fig. 4-b — high-load capacity drop and recovery effect"
    );
    let (high, low) = buffer::fig4b();
    for run in [&high, &low] {
        let _ = writeln!(
            out,
            "  {:<16} {:>5.1} A: delivered {:>5.1} Ah before switch-out at {:>5.2} V; {:>5.2} V after 1 h rest",
            run.label,
            run.current.value(),
            run.delivered_ah,
            run.voltage_at_switchout,
            run.voltage_after_rest
        );
    }
    let _ = writeln!(
        out,
        "  → high current delivered {:.0} % of low-current capacity; rest recovered {:+.2} V",
        high.delivered_ah / low.delivered_ah * 100.0,
        high.voltage_after_rest - high.voltage_at_switchout
    );
    Ok(out)
}

fn table02(_: usize) -> Result<String, String> {
    let rows = sizing::table2(WattHours::from_kilowatt_hours(2.0), 2.5);
    Ok(format!(
        "Table 2 — data throughput of seismic analysis, 2 kWh budget\n{}\n\
         The lower (4 VM) configuration delivers more data: the high-power\n\
         configuration exhausts the budget early and pays checkpoint churn.\n",
        sizing::render_table2(&rows)
    ))
}

fn table03(_: usize) -> Result<String, String> {
    Ok(format!(
        "Table 3 — video stream service by compute capability (4 h window)\n{}\n\
         Cutting VMs from 8 to 2 drops throughput ≈ 66 % and delay grows unbounded.\n",
        sizing::render_table3(&sizing::table3(4))
    ))
}

fn fig05(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 5 — two-hour seismic snapshot, unified (baseline) buffer, low solar"
    );
    let run = traces::fig05(5);
    let _ = writeln!(out, "time        pack V    load W");
    for (v, l) in run.voltage_series.iter().zip(&run.load_series) {
        let _ = writeln!(out, "{}   {:6.2}   {:7.0}", v.time, v.value, l.value);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "service interruptions (buffer switched out): {}",
        run.interruptions.len()
    );
    for t in run.interruptions.iter().take(8) {
        let _ = writeln!(out, "  batteries switched out at {t}");
    }
    Ok(out)
}

fn fig14(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 14-a — fast-charging priority (lowest SoC first)");
    let run = buffer::fig14a();
    let _ = writeln!(out, "  starting SoC per unit : {:?}", run.start_soc);
    let _ = writeln!(
        out,
        "  completion order      : {:?} (unit indices)",
        run.completion_order
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "Fig. 14-b — discharge balancing across cabinets");
    let run = buffer::fig14b(240);
    let _ = writeln!(
        out,
        "  lifetime Ah per unit  : {:?}",
        tenths(&run.throughput_ah)
    );
    let _ = writeln!(
        out,
        "  max/min imbalance     : {:.2}× (1.0 = perfectly balanced)",
        run.imbalance
    );
    Ok(out)
}

fn fig15(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let (high, low) = traces::fig15(1);
    for day in [&high, &low] {
        let _ = writeln!(
            out,
            "Fig. 15 — {} : daytime mean {:.0} W, total {:.1} kWh",
            day.label, day.daytime_mean_w, day.energy_kwh
        );
        let _ = writeln!(out, "time        solar W");
        for s in &day.series {
            let _ = writeln!(out, "{}   {:7.0}", s.time, s.value);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(paper: 1114 W and 427 W daytime means on the 1.6 kW array)"
    );
    Ok(out)
}

fn fig16(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 16 — full-day InSURE trace (regions A–E)");
    let run = traces::fig16(3);
    let _ = writeln!(out, "time        solar W    load W    pack V");
    for ((s, l), v) in run
        .solar_series
        .iter()
        .zip(&run.load_series)
        .zip(&run.voltage_series)
    {
        let _ = writeln!(
            out,
            "{}   {:7.0}   {:7.0}   {:6.2}",
            s.time, s.value, l.value, v.value
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "region A (initial charging): stored {:.0} Wh at dawn → {:.0} Wh by 10:00",
        run.stored_dawn_wh, run.stored_mid_morning_wh
    );
    let _ = writeln!(
        out,
        "control interventions over the day: {}",
        run.interventions
    );
    let _ = writeln!(out, "data processed: {:.1} GB", run.processed_gb);
    Ok(out)
}

fn table06(_: usize) -> Result<String, String> {
    Ok(format!(
        "Table 6 — key log statistics, Opt (InSURE) vs Non-Opt, three day types\n{}\n\
         Expected relations (paper): Opt takes far more control actions, uses\n\
         slightly less effective energy, and keeps battery voltage steadier (lower σ).\n",
        logs::render_table6(&logs::table6(2))
    ))
}

fn table07(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 7 — heterogeneous server comparison (measured node points)"
    );
    let _ = writeln!(out, "{}", sizing::render_table7(&sizing::table7()));
    let _ = writeln!(out, "energy-efficiency ratio (i7 / Xeon):");
    for (name, ratio) in sizing::table7_efficiency_ratios() {
        let _ = writeln!(out, "  {name:<8} {ratio:.1}×");
    }
    let _ = writeln!(
        out,
        "(paper: low-power nodes improve data throughput per energy by 5×–15×)"
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "§6.2 system-level comparison — full InSURE day on each rack (dedup):"
    );
    let (xeon, i7) = hetero::compare("dedup", 3);
    for run in [&xeon, &i7] {
        let _ = writeln!(
            out,
            "  {:<38} {:>8.1} GB  {:>8.2} kWh  {:>9.0} GB/kWh  {:>3} on/off",
            run.server,
            run.metrics.processed_gb,
            run.metrics.load_kwh,
            run.gb_per_kwh,
            run.metrics.on_off_cycles
        );
    }
    let _ = writeln!(
        out,
        "  → system-level efficiency ratio {:.1}× (paper: 5×–15×)",
        i7.gb_per_kwh / xeon.gb_per_kwh
    );
    Ok(out)
}

fn fig17_19(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figs. 17–19 — InSURE improvement over the baseline, micro-benchmarks"
    );
    let _ = writeln!(out, "(6 benchmarks × high/low solar)");
    let _ = writeln!(out);
    let rows = micro::fig17_19(3);
    let _ = writeln!(out, "{}", micro::render(&rows));
    for high in [true, false] {
        let (avail, energy, life) = micro::averages(&rows, high);
        let _ = writeln!(
            out,
            "averages ({} solar): availability {:+.0}%, e-Buffer energy {:+.0}%, life {:+.0}%",
            if high { "high" } else { "low" },
            avail * 100.0,
            energy * 100.0,
            life * 100.0
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(paper: ≈ +41 % availability at high solar, up to +51 % at low; +41 %"
    );
    let _ = writeln!(out, " energy availability; +21–24 % service life)");
    Ok(out)
}

fn fig20_21(_: usize) -> Result<String, String> {
    Ok(format!(
        "Fig. 20 — seismic batch job: InSURE improvement over baseline\n{}\n\
         Fig. 21 — video stream: InSURE improvement over baseline\n{}\n\
         (paper: 20 % to over 60 % improvements across the six metrics)\n",
        fullsys::render(&fullsys::figure("seismic", 7)),
        fullsys::render(&fullsys::figure("video", 7))
    ))
}

fn fig22(_: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 22 — annual depreciation by configuration");
    let (comparison, breakdown) = costs::fig22();
    let _ = writeln!(out, "{breakdown}");
    for c in comparison {
        let _ = writeln!(
            out,
            "{:<28} {:>9}   ({:.2}× InSURE)",
            c.tech.to_string(),
            dollars(c.annual),
            c.vs_insure
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "(paper: diesel ≈ +20 %, fuel cell ≈ +24 % over InSURE)"
    );
    Ok(out)
}

fn fig23(_: usize) -> Result<String, String> {
    let mut t = TextTable::new(vec![
        "sunshine fraction",
        "scaling out InSURE",
        "relying on cloud",
    ]);
    for row in costs::fig23() {
        t.row(vec![
            format!("{:.0}%", row.sunshine_fraction * 100.0),
            dollars(row.scale_out),
            dollars(row.cloud),
        ]);
    }
    Ok(format!(
        "Fig. 23 — amortized annual cost vs average sunshine fraction\n{}\n\
         (paper: scaling out stays below the cloud, with up to 60 % savings)\n",
        t.render()
    ))
}

fn fig24(_: usize) -> Result<String, String> {
    let (rows, crossover) = costs::fig24();
    let mut t = TextTable::new(vec![
        "GB/day",
        "cloud",
        "insitu-40%",
        "insitu-60%",
        "insitu-80%",
        "insitu-100%",
    ]);
    for (rate, cloud, insitu) in rows {
        let mut row = vec![format!("{rate}"), dollars(cloud)];
        row.extend(insitu.iter().map(|&v| dollars(v)));
        t.row(row);
    }
    let rate = crossover.ok_or("no cloud/in-situ crossover found in the searched rate range")?;
    Ok(format!(
        "Fig. 24 — 5-year TCO vs data generation rate\n{}\n\
         crossover (60 % sunshine): {rate:.2} GB/day  (paper: ≈ 0.9 GB/day)\n",
        t.render()
    ))
}

fn fig25(_: usize) -> Result<String, String> {
    Ok(format!(
        "Fig. 25 — per-application cost savings of InSURE over the cloud\n{}\n\
         (paper: application-dependent savings from 15 % to 97 %)\n",
        costs::render_fig25(&costs::fig25())
    ))
}

fn endurance_weeks(threads: usize) -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Endurance — two weeks of mixed weather under InSURE");
    let run = endurance::endurance(14, 9);
    let _ = writeln!(
        out,
        "  {:.1} GB/day, wear imbalance {:.2}×, per-unit Ah {:?}",
        run.gb_per_day,
        run.wear_imbalance,
        tenths(&run.unit_throughput_ah)
    );
    let _ = writeln!(out, "{}", run.metrics);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "Sunshine-fraction sweep (5-day campaigns) — Fig. 23/24's premise"
    );
    let mut t = TextTable::new(vec!["sunshine fraction", "GB/day", "solar kWh/day"]);
    for p in endurance::sunshine_sweep_with(&[1.0, 0.8, 0.6, 0.4], 5, 4, threads) {
        t.row(vec![
            format!("{:.0}%", p.sunshine_fraction * 100.0),
            format!("{:.1}", p.gb_per_day),
            format!("{:.1}", p.solar_kwh_per_day),
        ]);
    }
    let _ = writeln!(out, "{}", t.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_binary_has_exactly_one_report() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
        let mut bins: Vec<String> = std::fs::read_dir(dir)
            .expect("read src/bin")
            .map(|entry| {
                let path = entry.expect("dir entry").path();
                let stem = path.file_stem().expect("file name");
                stem.to_string_lossy().into_owned()
            })
            .filter(|bin| bin != "all_experiments" && bin != "bench_report")
            .collect();
        bins.sort();
        let mut names: Vec<String> = REPORTS.iter().map(|r| r.bin.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), REPORTS.len(), "report names are unique");
        assert_eq!(names, bins, "one report per experiment binary, no other");
    }
}
