//! CLI for the InSURE repository linter.
//!
//! ```text
//! cargo run -p ins-lint -- [--json|--sarif] [--rules L001,L004]
//!     [--baseline FILE] [--write-baseline FILE] [--explain Lxxx] <path>...
//! ```
//!
//! Every run reads and analyzes every `.rs` file under the given paths.
//! Exit codes: `0` clean, `1` unsuppressed findings, `2` usage or I/O
//! error (an unknown option or rule id, or a path that does not exist).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use ins_lint::{analyze_paths, baseline, report_json, sarif, Config, Finding, Rule, TraceHop};

fn usage() -> &'static str {
    "usage: ins-lint [--json|--sarif] [--rules L001,L002,...]\n\
     \x20               [--baseline FILE] [--write-baseline FILE]\n\
     \x20               [--explain Lxxx] <path>...\n\
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
       L010  stale suppression marker or baseline entry (unsuppressable)\n\
       L011  public entry point transitively reaches a panic\n\
       L012  serialization root tainted by nondeterministic iteration\n\
       L013  raw f64 crossing a crate boundary into a quantity slot\n\
     Suppress inline with `// ins-lint: allow(L00x) -- reason` on or\n\
     above the line. `--explain Lxxx` prints a rule's full semantics.\n\
     --baseline subtracts findings listed in FILE (see lint-baseline.txt);\n\
     stale entries are reported as L010. --write-baseline regenerates\n\
     FILE from the current findings."
}

/// Prints the long-form explanation for one rule, including a rendered
/// call-path example for the interprocedural passes.
fn explain(rule: Rule) {
    println!("{}  {}", rule.id(), rule.description());
    println!("severity: {:?}", rule.severity());
    match rule {
        Rule::TransitivePanic => {
            println!(
                "\nL011 walks the workspace call graph from every public \
                 function in a\npanic-surface crate (physics, fleet, service) \
                 and from every function in\na critical file (supervisor.rs, \
                 safe_mode.rs). If any chain of non-test\ncalls reaches a \
                 `panic!`/`unwrap`/`expect`, the entry point is flagged \
                 with\nthe full call path. Roots documenting `# Panics` are \
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

/// Source lines of each finding's file, read once per file so baseline
/// fingerprints see the offending line text.
struct LineCache {
    files: BTreeMap<String, Vec<String>>,
}

impl LineCache {
    fn new() -> Self {
        Self {
            files: BTreeMap::new(),
        }
    }

    fn line_text(&mut self, path: &str, line: usize) -> String {
        let lines = self.files.entry(path.to_string()).or_insert_with(|| {
            fs::read_to_string(path)
                .map(|src| src.lines().map(str::to_string).collect())
                .unwrap_or_default()
        });
        lines
            .get(line.saturating_sub(1))
            .cloned()
            .unwrap_or_default()
    }

    fn fingerprint(&mut self, f: &Finding) -> String {
        let text = self.line_text(&f.path, f.line);
        baseline::fingerprint(f, &text)
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif_out = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut config = Config::default_workspace();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => sarif_out = true,
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
            "--rules" => {
                let Some(list) = args.next() else {
                    eprintln!("--rules needs a comma-separated id list\n\n{}", usage());
                    return ExitCode::from(2);
                };
                let Some(rules) = list.split(',').map(Rule::from_id).collect() else {
                    eprintln!("unknown rule id in {list:?}\n\n{}", usage());
                    return ExitCode::from(2);
                };
                config.rules = rules;
            }
            "--baseline" | "--write-baseline" => {
                let Some(file) = args.next() else {
                    eprintln!("{arg} needs a file path\n\n{}", usage());
                    return ExitCode::from(2);
                };
                if arg == "--baseline" {
                    baseline_path = Some(PathBuf::from(file));
                } else {
                    write_baseline = Some(PathBuf::from(file));
                }
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
    let mut findings = match analyze_paths(&roots, &config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ins-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut cache = LineCache::new();
    if let Some(path) = write_baseline {
        let fps: Vec<String> = findings.iter().map(|f| cache.fingerprint(f)).collect();
        if let Err(e) = fs::write(&path, baseline::render(&fps)) {
            eprintln!("ins-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ins-lint: wrote {} fingerprint(s) to {}",
            fps.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }
    let mut baselined = 0usize;
    if let Some(path) = baseline_path {
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("ins-lint: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let mut allow = baseline::Baseline::parse(&text);
        findings.retain(|f| {
            let excused = allow.take(&cache.fingerprint(f));
            baselined += usize::from(excused);
            !excused
        });
        // Entries that excused nothing have rotted: the finding they
        // pardoned is gone. Report them as L010 anchored at the
        // baseline file so the allowance gets pruned, mirroring the
        // inline stale-marker protocol.
        if config.rules.contains(&Rule::StaleSuppression) {
            for (fp, count) in allow.leftover() {
                findings.push(Finding::new(
                    path.display().to_string(),
                    1,
                    Rule::StaleSuppression,
                    format!(
                        "baseline entry `{fp}` (x{count}) no longer matches any \
                         finding; regenerate with --write-baseline"
                    ),
                ));
            }
        }
    }

    if sarif_out {
        println!("{}", sarif::report_sarif(&findings));
    } else if json {
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
    if baselined > 0 {
        eprintln!("ins-lint: {baselined} baselined finding(s) suppressed");
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
