//! Runs every experiment in the reproduction, in paper order.
//!
//! ```sh
//! cargo run -p ins-bench --release --bin all_experiments -- [--threads N]
//! ```
//!
//! Sections are independent, so they fan out across a worker pool
//! (`--threads 0` or omitted = available parallelism) and print in paper
//! order regardless of which finished first — the output is
//! byte-identical at any thread count. A section that fails (panic or
//! missing result) is reported on stderr and the binary exits non-zero
//! instead of silently printing a partial report.

use std::fmt::Write as _;
use std::process::ExitCode;

use ins_bench::experiments::{
    buffer, costs, endurance, faults, fleet, fullsys, hetero, logs, micro, recovery, sizing, traces,
};
use ins_bench::runner::{run_cells, Flag, SweepArgs};
use ins_bench::table::{dollars, TextTable};
use ins_sim::units::WattHours;

type SectionFn = fn() -> Result<String, String>;

/// Every section, in paper order. Each renders its full text body.
const SECTIONS: &[(&str, SectionFn)] = &[
    ("Fig. 1 — bulk data movement overhead", sec_fig1),
    (
        "Fig. 3 — cost benefits of standalone in-situ systems",
        sec_fig3,
    ),
    ("Fig. 4 — energy buffer properties", sec_fig4),
    (
        "Table 2 — seismic throughput under a 2 kWh budget",
        sec_table2,
    ),
    ("Table 3 — video throughput by VM count", sec_table3),
    ("Fig. 5 — unified buffer switch-out snapshot", sec_fig5),
    ("Fig. 14 — InSURE power behaviour", sec_fig14),
    ("Fig. 15 — solar evaluation days", sec_fig15),
    ("Fig. 16 — full-day InSURE trace", sec_fig16),
    ("Table 6 — day-long operation logs", sec_table6),
    ("Table 7 — heterogeneous servers", sec_table7),
    (
        "Figs. 17–19 — micro-benchmark effectiveness (takes a minute)",
        sec_micro,
    ),
    ("Figs. 20–21 — full-system evaluation", sec_fullsys),
    ("Fig. 22 — annual depreciation", sec_fig22),
    (
        "Fig. 23 — scale-out vs cloud by sunshine fraction",
        sec_fig23,
    ),
    ("Fig. 24 — TCO crossover", sec_fig24),
    ("Fig. 25 — application scenarios", sec_fig25),
    (
        "§6.2 extension — low-power rack, full system (dedup)",
        sec_hetero,
    ),
    ("Robustness extension — fault-rate sweep", sec_faults),
    (
        "Robustness extension — recovery sweep (checkpoint interval × fault rate)",
        sec_recovery,
    ),
    (
        "Robustness extension — fleet resilience (sites × fault rate × breaker)",
        sec_fleet,
    ),
    (
        "Extension — two-week endurance and sunshine sweep",
        sec_endurance,
    ),
];

fn sec_fig1() -> Result<String, String> {
    let mut out = String::new();
    let mut t = TextTable::new(vec!["link", "hours per TB"]);
    for (name, hours) in costs::fig1a() {
        t.row(vec![name.to_string(), format!("{hours:.1}")]);
    }
    let _ = writeln!(out, "{}", t.render());
    let mut t = TextTable::new(vec!["volume (TB)", "avg $/TB"]);
    for (tb, cost) in costs::fig1b() {
        t.row(vec![format!("{tb:.0}"), format!("{cost:.2}")]);
    }
    let _ = write!(out, "{}", t.render());
    Ok(out)
}

fn sec_fig3() -> Result<String, String> {
    let mut out = String::new();
    let mut t = TextTable::new(vec!["strategy", "5-yr TCO"]);
    for (strategy, series) in costs::fig3a() {
        t.row(vec![strategy.to_string(), dollars(series[4])]);
    }
    let _ = writeln!(out, "{}", t.render());
    let mut t = TextTable::new(vec!["technology", "11-yr TCO"]);
    for (tech, series) in costs::fig3b() {
        t.row(vec![
            tech.to_string(),
            series
                .last()
                .map_or_else(|| "n/a".to_string(), |v| dollars(*v)),
        ]);
    }
    let _ = write!(out, "{}", t.render());
    Ok(out)
}

fn sec_fig4() -> Result<String, String> {
    let mut out = String::new();
    let (seq, batch) = buffer::fig4a();
    let _ = writeln!(
        out,
        "sequential charge: {:.1} h   batch charge: {:.1} h   (ratio {:.0} %)",
        seq.hours_to_target,
        batch.hours_to_target,
        seq.hours_to_target / batch.hours_to_target * 100.0
    );
    let (high, low) = buffer::fig4b();
    let _ = write!(
        out,
        "1C discharge delivered {:.1} Ah vs C/8's {:.1} Ah; rest recovered {:+.2} V",
        high.delivered_ah,
        low.delivered_ah,
        high.voltage_after_rest - high.voltage_at_switchout
    );
    Ok(out)
}

fn sec_table2() -> Result<String, String> {
    Ok(sizing::render_table2(&sizing::table2(
        WattHours::from_kilowatt_hours(2.0),
        2.5,
    )))
}

fn sec_table3() -> Result<String, String> {
    Ok(sizing::render_table3(&sizing::table3(4)))
}

fn sec_fig5() -> Result<String, String> {
    let run = traces::fig05(5);
    Ok(format!(
        "service interruptions in 2 h: {}",
        run.interruptions.len()
    ))
}

fn sec_fig14() -> Result<String, String> {
    let mut out = String::new();
    let p = buffer::fig14a();
    let _ = writeln!(
        out,
        "charging completion order (start SoC {:?}): {:?}",
        p.start_soc, p.completion_order
    );
    let b = buffer::fig14b(240);
    let _ = write!(out, "discharge balance imbalance: {:.2}×", b.imbalance);
    Ok(out)
}

fn sec_fig15() -> Result<String, String> {
    let (hi, lo) = traces::fig15(1);
    Ok(format!(
        "high: {:.0} W daytime mean / {:.1} kWh    low: {:.0} W / {:.1} kWh",
        hi.daytime_mean_w, hi.energy_kwh, lo.daytime_mean_w, lo.energy_kwh
    ))
}

fn sec_fig16() -> Result<String, String> {
    let day = traces::fig16(3);
    Ok(format!(
        "morning charge {:.0} → {:.0} Wh; {} interventions; {:.1} GB processed",
        day.stored_dawn_wh, day.stored_mid_morning_wh, day.interventions, day.processed_gb
    ))
}

fn sec_table6() -> Result<String, String> {
    Ok(logs::render_table6(&logs::table6(2)))
}

fn sec_table7() -> Result<String, String> {
    Ok(sizing::render_table7(&sizing::table7()))
}

fn sec_micro() -> Result<String, String> {
    Ok(micro::render(&micro::fig17_19(3)))
}

fn sec_fullsys() -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 20 (seismic):");
    let _ = writeln!(out, "{}", fullsys::render(&fullsys::figure("seismic", 7)));
    let _ = writeln!(out, "Fig. 21 (video):");
    let _ = write!(out, "{}", fullsys::render(&fullsys::figure("video", 7)));
    Ok(out)
}

fn sec_fig22() -> Result<String, String> {
    let mut out = String::new();
    let (cmp, _) = costs::fig22();
    for (i, c) in cmp.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = write!(
            out,
            "{:<28} {:>9}  ({:.2}×)",
            c.tech.to_string(),
            dollars(c.annual),
            c.vs_insure
        );
    }
    Ok(out)
}

fn sec_fig23() -> Result<String, String> {
    let mut out = String::new();
    for (i, row) in costs::fig23().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = write!(
            out,
            "SF {:>3.0}%: scale-out {:>9}   cloud {:>9}",
            row.sunshine_fraction * 100.0,
            dollars(row.scale_out),
            dollars(row.cloud)
        );
    }
    Ok(out)
}

fn sec_fig24() -> Result<String, String> {
    let (_, crossover) = costs::fig24();
    let rate = crossover.ok_or("no cloud/in-situ crossover found in the searched rate range")?;
    Ok(format!(
        "cloud/in-situ crossover: {rate:.2} GB/day (paper ≈ 0.9)"
    ))
}

fn sec_fig25() -> Result<String, String> {
    Ok(costs::render_fig25(&costs::fig25()))
}

fn sec_hetero() -> Result<String, String> {
    let (xeon, i7) = hetero::compare("dedup", 3);
    Ok(format!(
        "Xeon rack {:.0} GB at {:.0} GB/kWh; i7 rack {:.0} GB at {:.0} GB/kWh ({:.1}×)",
        xeon.metrics.processed_gb,
        xeon.gb_per_kwh,
        i7.metrics.processed_gb,
        i7.gb_per_kwh,
        i7.gb_per_kwh / xeon.gb_per_kwh
    ))
}

fn sec_faults() -> Result<String, String> {
    Ok(faults::render(&faults::sweep(11)))
}

fn sec_recovery() -> Result<String, String> {
    Ok(recovery::render(&recovery::sweep(11)))
}

fn sec_fleet() -> Result<String, String> {
    Ok(fleet::render(&fleet::sweep(11)))
}

fn sec_endurance() -> Result<String, String> {
    let mut out = String::new();
    let run = endurance::endurance(14, 9);
    let _ = writeln!(
        out,
        "14 days: {:.1} GB/day, wear imbalance {:.2}×, est. life {:.0} days",
        run.gb_per_day, run.wear_imbalance, run.metrics.expected_service_life_days
    );
    for (i, p) in endurance::sunshine_sweep(&[1.0, 0.6, 0.4], 5, 4)
        .iter()
        .enumerate()
    {
        if i > 0 {
            out.push('\n');
        }
        let _ = write!(
            out,
            "SF {:>3.0}%: {:>6.1} GB/day on {:>5.1} kWh/day",
            p.sunshine_fraction * 100.0,
            p.gb_per_day,
            p.solar_kwh_per_day
        );
    }
    Ok(out)
}

fn heading(s: &str) {
    println!();
    println!("{}", "=".repeat(72));
    println!("{s}");
    println!("{}", "=".repeat(72));
}

const USAGE: &str = "usage: all_experiments [--threads N]";

fn main() -> ExitCode {
    let threads = match SweepArgs::from_env(USAGE, &[Flag::Threads], |_, _| Ok(false)) {
        Ok(args) => args.threads,
        Err(code) => return code,
    };

    // Every section runs — a panic is caught and reported as that
    // section's failure rather than aborting the rest — and bodies print
    // in paper order once all are in.
    let results = run_cells(threads, SECTIONS, |_, &(title, f)| {
        std::panic::catch_unwind(f).unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panicked");
            Err(format!("section '{title}' panicked: {msg}"))
        })
    });

    let mut failures = 0usize;
    for (&(title, _), result) in SECTIONS.iter().zip(&results) {
        heading(title);
        match result {
            Ok(body) => println!("{body}"),
            Err(e) => {
                println!("** FAILED **");
                eprintln!("error: {title}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} section(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
