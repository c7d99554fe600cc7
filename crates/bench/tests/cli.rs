//! The bench binaries reject flags they do not know: a misspelt flag
//! exits 2 with the usage line instead of running with defaults.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `bin` with `args` in a fresh temporary directory, so a binary
/// that ignores a misspelt `--out` writes nothing into the checkout.
fn run_in_temp_dir(name: &str, bin: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("ins-bench-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run bench binary");
    (out, dir)
}

/// The figure and table binaries: none of them takes a flag.
const FIGURE_AND_TABLE_BINARIES: [(&str, &str); 17] = [
    ("fig01_transfer", env!("CARGO_BIN_EXE_fig01_transfer")),
    ("fig03_tco", env!("CARGO_BIN_EXE_fig03_tco")),
    ("fig04_buffer", env!("CARGO_BIN_EXE_fig04_buffer")),
    ("table02_seismic", env!("CARGO_BIN_EXE_table02_seismic")),
    ("table03_video", env!("CARGO_BIN_EXE_table03_video")),
    ("fig05_switchout", env!("CARGO_BIN_EXE_fig05_switchout")),
    ("fig14_behavior", env!("CARGO_BIN_EXE_fig14_behavior")),
    ("fig15_solar", env!("CARGO_BIN_EXE_fig15_solar")),
    ("fig16_daylong", env!("CARGO_BIN_EXE_fig16_daylong")),
    ("table06_logs", env!("CARGO_BIN_EXE_table06_logs")),
    ("table07_hetero", env!("CARGO_BIN_EXE_table07_hetero")),
    ("fig17_19_micro", env!("CARGO_BIN_EXE_fig17_19_micro")),
    ("fig20_21_full", env!("CARGO_BIN_EXE_fig20_21_full")),
    (
        "fig22_depreciation",
        env!("CARGO_BIN_EXE_fig22_depreciation"),
    ),
    ("fig23_scaleout", env!("CARGO_BIN_EXE_fig23_scaleout")),
    ("fig24_crossover", env!("CARGO_BIN_EXE_fig24_crossover")),
    ("fig25_scenarios", env!("CARGO_BIN_EXE_fig25_scenarios")),
];

/// The sweep binaries, which take `--seed`, `--threads` and `--json`.
const SWEEP_BINARIES: [(&str, &str); 3] = [
    ("fault_sweep", env!("CARGO_BIN_EXE_fault_sweep")),
    ("recovery", env!("CARGO_BIN_EXE_recovery")),
    ("fleet_resilience", env!("CARGO_BIN_EXE_fleet_resilience")),
];

#[test]
fn misspelt_flags_exit_2_with_the_usage_line() {
    let mut cases = vec![
        (
            "all_experiments",
            env!("CARGO_BIN_EXE_all_experiments"),
            &["--jsn"][..],
        ),
        (
            "fig25_scenarios",
            env!("CARGO_BIN_EXE_fig25_scenarios"),
            &["--thread", "2"],
        ),
        (
            "fig25_scenarios",
            env!("CARGO_BIN_EXE_fig25_scenarios"),
            &["--threads", "2"],
        ),
        (
            "endurance_weeks",
            env!("CARGO_BIN_EXE_endurance_weeks"),
            &["3"],
        ),
        (
            "endurance_weeks",
            env!("CARGO_BIN_EXE_endurance_weeks"),
            &["--no-incremental"],
        ),
        (
            "bench_report",
            env!("CARGO_BIN_EXE_bench_report"),
            &["--ot", "out"],
        ),
    ];
    cases.extend(
        FIGURE_AND_TABLE_BINARIES
            .iter()
            .map(|&(name, bin)| (name, bin, &["--seed", "5"][..])),
    );
    // Each sweep runs one path; the retired switch is an unknown flag.
    for (name, bin) in SWEEP_BINARIES {
        for args in [&["--incremental"][..], &["--no-incremental"]] {
            cases.push((name, bin, args));
        }
    }
    for (name, bin, args) in cases {
        let (out, dir) = run_in_temp_dir(name, bin, args);
        let wrote_bench_files = dir.join("BENCH_sweep.json").exists();
        let _ = std::fs::remove_dir_all(&dir);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{name} {args:?} ran anyway");
        assert!(!wrote_bench_files, "{name} {args:?} wrote BENCH files");
    }
}

#[test]
fn sweep_binaries_take_the_equals_form_of_threads() {
    let (out, dir) = run_in_temp_dir(
        "fault_sweep",
        env!("CARGO_BIN_EXE_fault_sweep"),
        &["--rates", "8", "--threads=1", "--json"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with('['));
}
