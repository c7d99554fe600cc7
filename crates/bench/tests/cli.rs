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

#[test]
fn misspelt_flags_exit_2_with_the_usage_line() {
    let cases = [
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
