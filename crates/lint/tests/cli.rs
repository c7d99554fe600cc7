//! End-to-end tests of the `ins-lint` binary: each test builds a small
//! workspace tree under the system temp dir and runs the binary there.
//!
//! Four contracts are pinned:
//!
//! 1. **No stale findings.** A run sees the current contents of every
//!    file it lints, including the units crate whose quantity catalog
//!    the token rules read.
//! 2. **No duplicate findings.** A file reached through two roots is
//!    analyzed, and reported, once.
//! 3. **Bad input fails loudly.** An option the binary does not take
//!    (`--baseline`, `--rules`, ...), a root that does not exist and an
//!    unknown rule id for `--explain` each exit 2 with the usage text,
//!    instead of being read as a path (or dropped) and reported clean.
//! 4. **`--explain` tells the whole scope.** L011's explanation names
//!    every critical file.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const UNITS: &str = "crates/units/src/lib.rs";

/// A fresh tree, unique per test and process, holding a clean units
/// crate.
fn tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ins-lint-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    write(&dir, UNITS, "quantity!(Watts, \"W\");\n");
    dir
}

fn write(dir: &Path, path: &str, text: &str) {
    let file = dir.join(path);
    fs::create_dir_all(file.parent().unwrap()).unwrap();
    fs::write(file, text).unwrap();
}

fn lint(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ins-lint"))
        .current_dir(dir)
        .args(args)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_units_crate_edit_reaches_the_next_run() {
    let dir = tree("stale-catalog");
    write(
        &dir,
        "crates/battery/src/x.rs",
        "use ins_units::{Joules, Watts};\n\
         pub fn f(e: Joules) -> Watts { Watts::new(e.value() * 2.0) }\n",
    );
    let before = lint(&dir, &["crates/"]);
    assert_eq!(
        before.status.code(),
        Some(0),
        "Joules is not a quantity yet: {}{}",
        stdout(&before),
        stderr(&before)
    );

    write(
        &dir,
        UNITS,
        "quantity!(Watts, \"W\");\nquantity!(Joules, \"J\");\n",
    );
    let after = lint(&dir, &["crates/"]);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(after.status.code(), Some(1), "{}", stderr(&after));
    assert!(
        stdout(&after).starts_with("crates/battery/src/x.rs:2: L008 raw `e.value()` (Joules)"),
        "{}",
        stdout(&after)
    );
}

#[test]
fn a_file_reached_through_two_roots_is_analyzed_once() {
    let dir = tree("two-roots");
    write(
        &dir,
        "crates/core/src/x.rs",
        "fn f(x: f64) -> bool { x == 0.0 }\n",
    );
    write(
        &dir,
        "crates/battery/src/pack.rs",
        "fn helper() { panic!(\"boom\"); }\npub fn entry() { helper(); }\n",
    );
    let once = lint(&dir, &["crates"]);
    let overlapping: [&[&str]; 3] = [
        &["crates", "crates/core/src/x.rs"],
        &["./crates", "crates"],
        &["crates", "crates/battery"],
    ];
    let outputs: Vec<Output> = overlapping.iter().map(|args| lint(&dir, args)).collect();
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(once.status.code(), Some(1), "{}", stderr(&once));
    for rule in [" L004 ", " L011 "] {
        assert_eq!(stdout(&once).matches(rule).count(), 1, "{}", stdout(&once));
    }
    for (args, out) in overlapping.iter().zip(&outputs) {
        assert_eq!(stdout(out), stdout(&once), "{args:?}");
    }
}

#[test]
fn bad_input_is_a_usage_error() {
    let dir = tree("bad-input");
    let cases: [&[&str]; 8] = [
        &["--jsn", "crates/units/src"],
        &["--no-cache", "crates/"],
        &["--cache", "lint-cache.tsv", "crates/"],
        &["--baseline", "lint-baseline.txt", "crates/"],
        &["--write-baseline", "x", "crates/"],
        &["--rules", "L001", "crates/"],
        &["crates/does-not-exist"],
        &["--explain", "L999"],
    ];
    let outputs: Vec<Output> = cases.iter().map(|args| lint(&dir, args)).collect();
    let _ = fs::remove_dir_all(&dir);
    for (args, out) in cases.iter().zip(&outputs) {
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(out));
        assert!(
            stderr(out).contains("usage: ins-lint"),
            "{args:?}: {}",
            stderr(out)
        );
        assert!(stdout(out).is_empty(), "{args:?}: {}", stdout(out));
    }
}

#[test]
fn existing_non_rust_roots_are_ignored() {
    let dir = tree("non-rust-root");
    write(&dir, "notes.txt", "not Rust\n");
    let out = lint(&dir, &["notes.txt", "crates/"]);
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stderr(&out).contains("ins-lint: clean"), "{}", stderr(&out));
}

#[test]
fn explain_l011_names_every_critical_file() {
    let out = lint(&std::env::temp_dir(), &["--explain", "L011"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    for file in [
        "crates/service/src/supervisor.rs",
        "crates/service/src/safe_mode.rs",
        "crates/sim/src/snapshot.rs",
    ] {
        assert!(stdout(&out).contains(file), "{file}: {}", stdout(&out));
    }
}
