//! Golden-file tests for the analysis engine.
//!
//! Each `tests/fixtures/*.rs.txt` file is a Rust source whose first line
//! names the *virtual* path it should be analyzed under (so dir-scoped
//! rules like L001/L008/L009 apply as they would in the real tree):
//!
//! ```text
//! // lint-fixture-path: crates/powernet/src/demo.rs
//! ```
//!
//! The file is analyzed under the analyzer's fixed rule scopes and the
//! findings — rendered one per line as `<line>: <rule> <message>`, with
//! interprocedural call paths indented below as `    via <path>:<line>:
//! <note>` — are compared byte-for-byte against the sibling `.expected`
//! file.
//!
//! A fixture may hold several virtual files: each additional
//! `// lint-fixture-file: <path>` marker line starts a new file (the
//! marker line itself stays in that file, keeping line numbers
//! honest). Multi-file fixtures pin the cross-crate rules (L011–L013)
//! and render findings with a `<path>:` prefix to disambiguate.
//!
//! Fixtures use the `.rs.txt` extension deliberately: CI lints every
//! `.rs` file under `crates/`, and these sources violate rules on
//! purpose.
//!
//! To regenerate after an intentional rule change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ins-lint --test golden
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use ins_lint::{analyze_source, analyze_sources, Finding};

const PATH_MARKER: &str = "// lint-fixture-path: ";
const FILE_MARKER: &str = "// lint-fixture-file: ";

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Findings rendered for comparison. Single-file fixtures omit the
/// (constant) path; multi-file fixtures prefix each finding with its
/// virtual path. Call paths render indented beneath their finding.
fn render(findings: &[Finding], with_path: bool) -> String {
    let mut out = String::new();
    for f in findings {
        if with_path {
            out.push_str(&format!("{}:", f.path));
        }
        out.push_str(&format!("{}: {} {}\n", f.line, f.rule.id(), f.message));
        for hop in &f.trace {
            out.push_str(&format!(
                "    via {}:{}: {}\n",
                hop.path, hop.line, hop.note
            ));
        }
    }
    out
}

/// Splits a fixture into its virtual files: everything up to the first
/// `lint-fixture-file` marker belongs to the header path, then one file
/// per marker. Marker lines stay in their file so line numbers match
/// what a reader of the fixture sees.
fn split_fixture(virtual_path: &str, src: &str) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = vec![(virtual_path.to_string(), String::new())];
    for line in src.lines() {
        if let Some(path) = line.strip_prefix(FILE_MARKER) {
            files.push((path.trim().to_string(), String::new()));
        }
        let current = &mut files.last_mut().expect("non-empty").1;
        current.push_str(line);
        current.push('\n');
    }
    files
}

#[test]
fn fixtures_match_expected_findings() {
    let dir = fixtures_dir();
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let mut fixture_paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".rs.txt"))
        .collect();
    fixture_paths.sort();
    assert!(
        fixture_paths.len() >= 6,
        "expected the fixture suite, found {} files in {}",
        fixture_paths.len(),
        dir.display()
    );

    let mut failures = Vec::new();
    for fixture in &fixture_paths {
        let src = fs::read_to_string(fixture).expect("fixture is readable");
        let first_line = src.lines().next().unwrap_or("");
        let virtual_path = first_line
            .strip_prefix(PATH_MARKER)
            .unwrap_or_else(|| {
                panic!(
                    "{} must start with `{PATH_MARKER}<virtual path>`",
                    fixture.display()
                )
            })
            .trim();
        let files = split_fixture(virtual_path, &src);
        let multi = files.len() > 1;
        let findings = if multi {
            analyze_sources(files)
        } else {
            analyze_source(virtual_path, &src)
        };
        let actual = render(&findings, multi);

        let expected_path = fixture.with_extension("").with_extension("expected");
        if update {
            fs::write(&expected_path, &actual).expect("write .expected");
            continue;
        }
        let expected = fs::read_to_string(&expected_path).unwrap_or_else(|_| {
            panic!(
                "missing {}; run with UPDATE_GOLDEN=1 to create it",
                expected_path.display()
            )
        });
        if actual != expected {
            failures.push(format!(
                "== {} ==\n-- expected --\n{expected}-- actual --\n{actual}",
                fixture.display()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (run with UPDATE_GOLDEN=1 after intentional \
         rule changes):\n{}",
        failures.join("\n")
    );
}

#[test]
fn every_expected_file_has_a_fixture() {
    let dir = fixtures_dir();
    for entry in fs::read_dir(&dir).expect("fixtures directory exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "expected") {
            let fixture = path.with_extension("rs.txt");
            assert!(
                fixture.exists(),
                "{} has no matching fixture",
                path.display()
            );
        }
    }
}
