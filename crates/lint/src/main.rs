//! CLI for the InSURE repository linter.
//!
//! ```text
//! cargo run -p ins-lint -- [--json] <path>...
//! cargo run -p ins-lint -- --explain Lxxx
//! ```
//!
//! Every run reads and analyzes every `.rs` file under the given paths,
//! each file once however many roots reach it. Exit codes: `0` clean,
//! `1` unsuppressed findings, `2` usage or I/O error (an unknown option,
//! a path that does not exist, or an unknown rule id for `--explain`).

use std::path::PathBuf;
use std::process::ExitCode;

use ins_lint::{analyze_paths, report_json, Finding, Rule, TraceHop, CRITICAL_FILES};

fn usage() -> &'static str {
    "usage: ins-lint [--json] <path>...\n\
     \x20      ins-lint --explain Lxxx\n\
     \n\
     Scans .rs files under each path for InSURE convention violations.\n\
     Rules:\n\
       L001  untyped physical-quantity parameter in a public signature\n\
       L002  unwrap/expect outside test code\n\
       L003  nondeterminism (wall clock, OS randomness)\n\
       L004  exact float comparison against a literal\n\
       L005  task marker without an issue reference\n\
       L006  threads or shared-mutable state outside ins_sim::pool\n\
       L007  NaN-unsafe comparator / unordered collection ordering\n\
       L008  raw value crossing a unit-dimension boundary\n\
       L009  panic surface in production physics/fleet code\n\
       L010  stale or unknown-rule suppression marker (unsuppressable)\n\
       L011  public entry point transitively reaches a panic\n\
       L012  serialization root tainted by nondeterministic iteration\n\
       L013  raw f64 crossing a crate boundary into a quantity slot\n\
     Suppress inline with `// ins-lint: allow(L00x) -- reason` on or\n\
     above the line. `--explain Lxxx` prints a rule's full semantics."
}

/// Prints the long-form explanation for one rule, including a rendered
/// call-path example for the interprocedural passes.
fn explain(rule: Rule) {
    println!("{}  {}", rule.id(), rule.description());
    match rule {
        Rule::TransitivePanic => {
            println!(
                "\nL011 walks the workspace call graph from every public \
                 function in a\npanic-surface crate (physics, fleet, service) \
                 and from every function in\na critical file:"
            );
            for file in CRITICAL_FILES {
                println!("    {file}");
            }
            println!(
                "If any chain of non-test calls reaches a \
                 `panic!`/`unwrap`/`expect`,\nthe entry point is flagged \
                 with the full call path. Roots documenting\n`# Panics` are \
                 exempt.\n\nExample finding:"
            );
            let mut f = Finding::new(
                "crates/fleet/src/router.rs".to_string(),
                12,
                Rule::TransitivePanic,
                "`router::route` can reach a panic: `.unwrap(…)` in \
                 `breaker::trip` (2 calls away)"
                    .to_string(),
            );
            f.trace = vec![
                TraceHop {
                    path: "crates/fleet/src/router.rs".to_string(),
                    line: 14,
                    note: "calls `breaker::arm`".to_string(),
                },
                TraceHop {
                    path: "crates/fleet/src/breaker.rs".to_string(),
                    line: 22,
                    note: "calls `breaker::trip`".to_string(),
                },
                TraceHop {
                    path: "crates/fleet/src/breaker.rs".to_string(),
                    line: 30,
                    note: "panics: `.unwrap(…)`".to_string(),
                },
            ];
            println!("\n{f}");
            println!(
                "\nFix by returning `Result` along the chain (a `try_` \
                 sibling), or\ndocument the invariant with a `# Panics` \
                 section on the root."
            );
        }
        Rule::DeterminismTaint => {
            println!(
                "\nL012 marks public serialization/telemetry roots (names \
                 containing\njson, csv, sarif, telemetry, serialize, export) \
                 whose call graph\nreaches a nondeterminism source: wall \
                 clock, OS randomness, or\niteration over an unordered \
                 HashMap/HashSet. Replays and golden\nfiles require such \
                 roots to be bit-stable; route them through\nsorted \
                 (BTreeMap) collections or injected clocks."
            );
        }
        Rule::CrossUnitFlow => {
            println!(
                "\nL013 follows raw `f64` return values across crate \
                 boundaries into\nparameters whose names claim a physical \
                 dimension (power, energy,\nvoltage, …). Inside one crate \
                 the convention is local and visible;\nacross crates the \
                 dimension must ride the type system — return a\nnewtype \
                 from the units catalog instead."
            );
        }
        _ => {}
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--explain" => {
                let Some(id) = args.next() else {
                    eprintln!("--explain needs a rule id\n\n{}", usage());
                    return ExitCode::from(2);
                };
                let Some(rule) = Rule::from_id(&id) else {
                    eprintln!("unknown rule id {id:?}\n\n{}", usage());
                    return ExitCode::from(2);
                };
                explain(rule);
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("unknown option {flag:?}\n\n{}", usage());
                return ExitCode::from(2);
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }
    if let Some(missing) = roots.iter().find(|root| !root.exists()) {
        eprintln!("no such path {}\n\n{}", missing.display(), usage());
        return ExitCode::from(2);
    }
    let findings = match analyze_paths(&roots) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ins-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        println!("{}", report_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            eprintln!("ins-lint: clean");
        } else {
            eprintln!("ins-lint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
