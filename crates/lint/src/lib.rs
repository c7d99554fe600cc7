//! Static analysis for the InSURE workspace: token-stream rules plus
//! interprocedural call-graph rules.
//!
//! A deliberately dependency-free analyzer built on a real Rust lexer
//! ([`lexer`]): every file becomes a token stream (comments, string and
//! raw-string literals, char literals and lifetimes are single tokens
//! with exact byte spans), wrapped in a [`context::FileContext`] that
//! adds line mapping, token-level `#[cfg(test)]` / `#[test]` /
//! `mod tests` region tracking and suppression parsing. On top of the
//! token stream sits a recursive-descent item parser ([`parser`]) whose
//! item spans tile the file byte-exactly, and a workspace
//! [`callgraph::CallGraph`] with deterministic adjacency ordering. A
//! lightweight cross-file [`index::SymbolIndex`] contributes the
//! workspace's unit newtype catalog and `use`-import tracking.
//!
//! Each rule is one `check_*` function in [`rules`] (interprocedural
//! ones in [`rules::graph`], over the call graph), and
//! [`engine`] calls them in rule-id order:
//!
//! | Rule | Checks |
//! |------|--------|
//! | L001 | raw `f64` parameters named like physical quantities in `pub fn` signatures of physics crates — use the `ins-units` newtypes |
//! | L002 | `.unwrap()` / `.expect(` outside test code — propagate typed errors instead |
//! | L003 | nondeterminism (`SystemTime`, `Instant::now`, `thread_rng`) — simulations must be reproducible from a seed |
//! | L004 | direct `==` / `!=` against float literals — compare with a tolerance |
//! | L005 | unreferenced task markers (todo/fixme with no `#123` issue link) |
//! | L006 | parallel safety: threads, `static mut`, shared-mutable primitives and side-channel accumulation outside `ins_sim::pool` |
//! | L007 | ordering determinism: NaN-masking `partial_cmp(..).unwrap*()` comparators, unordered-collection iteration feeding serialized output |
//! | L008 | unit flow: raw `.value()` extractions crossing dimension boundaries, truncating casts off typed quantities |
//! | L009 | panic surface in production physics/fleet code: panicking macros, arithmetic indexing, narrowing casts |
//! | L010 | stale suppressions: `ins-lint: allow(...)` entries that no longer suppress anything or name no rule |
//! | L011 | transitive panic reachability: a panic-surface `pub fn` (or any fn in a critical file) from which a panicking token is reachable through non-test calls — the finding carries the full call path |
//! | L012 | determinism taint: serialization/telemetry roots transitively reaching nondeterminism sources or unordered-collection iteration |
//! | L013 | interprocedural unit flow: a raw `f64` returned by one fn feeding a quantity-named parameter in another crate |
//!
//! A finding on any line can be suppressed with an inline comment on the
//! same line or the line directly above:
//!
//! ```text
//! // ins-lint: allow(L004) -- definitional forwarding
//! ```
//!
//! Markers in doc comments are documentation, never suppressions, and a
//! marker entry that stops matching any finding, or names no rule,
//! becomes an L010 error itself — suppressions cannot rot silently.
//! L010 cannot be suppressed. The marker is the only way to excuse a
//! finding: the rule set and each rule's scope are fixed.
//!
//! Test code (a `#[cfg(test)]` / `#[test]` region, a `mod tests` block
//! even without the attribute, or any file under a `tests/` directory)
//! is exempt from the production-only rules (L002, L004, L007, L008,
//! L009): tests intentionally unwrap and compare exactly-constructed
//! values. Call-graph edges into test code are likewise never followed
//! by the interprocedural rules.
//!
//! The crate doubles as a library so rules can be unit-tested against
//! fixture snippets, and as a binary (`cargo run -p ins-lint -- <paths>`)
//! that exits non-zero when unsuppressed findings remain. Reports come
//! in plain text and JSON ([`report_json`], with each interprocedural
//! finding's call path). Every run analyzes the whole linted set
//! ([`engine`]).

pub mod callgraph;
pub mod context;
pub mod engine;
pub mod index;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;

use std::fmt;

pub use engine::{analyze_paths, analyze_source, analyze_sources, collect_rust_files};
pub use report::report_json;

/// The rule catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// Raw `f64` physical-quantity parameter in a public signature.
    UntypedQuantity,
    /// `unwrap`/`expect` outside test code.
    UnwrapInProduction,
    /// Wall-clock or OS randomness in simulation code.
    Nondeterminism,
    /// Exact float comparison.
    FloatEquality,
    /// Unreferenced task marker.
    UntrackedTodo,
    /// Threads or shared-mutable state outside the worker pool.
    ParallelSafety,
    /// NaN-unsafe comparators or unordered collections feeding output.
    OrderingDeterminism,
    /// Raw values crossing unit-dimension boundaries.
    UnitFlow,
    /// Panicking constructs in production physics/fleet code.
    PanicSurface,
    /// A suppression marker entry that no longer suppresses anything or
    /// names no rule.
    StaleSuppression,
    /// A panic-surface root from which a panicking token is reachable
    /// through the call graph.
    TransitivePanic,
    /// A serialization root transitively reaching a nondeterminism
    /// source.
    DeterminismTaint,
    /// A raw `f64` return value feeding a quantity-named parameter in
    /// another crate.
    CrossUnitFlow,
}

impl Rule {
    /// All rules, in id order.
    pub const ALL: [Rule; 13] = [
        Rule::UntypedQuantity,
        Rule::UnwrapInProduction,
        Rule::Nondeterminism,
        Rule::FloatEquality,
        Rule::UntrackedTodo,
        Rule::ParallelSafety,
        Rule::OrderingDeterminism,
        Rule::UnitFlow,
        Rule::PanicSurface,
        Rule::StaleSuppression,
        Rule::TransitivePanic,
        Rule::DeterminismTaint,
        Rule::CrossUnitFlow,
    ];

    /// The stable rule id (`L001`…`L013`).
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Rule::UntypedQuantity => "L001",
            Rule::UnwrapInProduction => "L002",
            Rule::Nondeterminism => "L003",
            Rule::FloatEquality => "L004",
            Rule::UntrackedTodo => "L005",
            Rule::ParallelSafety => "L006",
            Rule::OrderingDeterminism => "L007",
            Rule::UnitFlow => "L008",
            Rule::PanicSurface => "L009",
            Rule::StaleSuppression => "L010",
            Rule::TransitivePanic => "L011",
            Rule::DeterminismTaint => "L012",
            Rule::CrossUnitFlow => "L013",
        }
    }

    /// Parses a rule id (`"L001"`), case-insensitively.
    #[must_use]
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .find(|r| r.id().eq_ignore_ascii_case(id.trim()))
    }

    /// One-line description used in reports.
    #[must_use]
    pub const fn description(self) -> &'static str {
        match self {
            Rule::UntypedQuantity => {
                "raw f64 parameter named like a physical quantity; use an ins-units newtype"
            }
            Rule::UnwrapInProduction => {
                "unwrap/expect outside test code; propagate a typed error instead"
            }
            Rule::Nondeterminism => {
                "wall-clock or OS randomness; derive all variation from the run seed"
            }
            Rule::FloatEquality => {
                "exact float comparison against a literal; compare with a tolerance"
            }
            Rule::UntrackedTodo => "task marker without an issue reference (expected `#<digits>`)",
            Rule::ParallelSafety => {
                "threads or shared-mutable state outside ins_sim::pool; route parallelism \
                 through the pool so results stay in input order"
            }
            Rule::OrderingDeterminism => {
                "NaN-unsafe comparator or unordered collection; use total_cmp / \
                 ins_units::total_order and ordered containers"
            }
            Rule::UnitFlow => {
                "raw value crossing a unit-dimension boundary; use the typed cross-unit \
                 operators"
            }
            Rule::PanicSurface => {
                "panicking construct in production physics/fleet code; return an error or \
                 use a non-panicking alternative"
            }
            Rule::StaleSuppression => "suppression marker no longer matches any finding; remove it",
            Rule::TransitivePanic => {
                "panic-surface entry point can reach a panicking token through its calls; \
                 use a try_ sibling, document `# Panics`, or break the path"
            }
            Rule::DeterminismTaint => {
                "serialization root transitively reaches a nondeterminism source; output \
                 would diverge between identical runs"
            }
            Rule::CrossUnitFlow => {
                "raw f64 return value crosses a crate boundary into a quantity-named \
                 parameter; thread an ins-units newtype through instead"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One hop of an interprocedural call path attached to a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Path of the file the hop lives in, as given to the analyzer.
    pub path: String,
    /// 1-based line number of the hop (fn definition or offending token).
    pub line: usize,
    /// What this hop is (`fn a`, `calls b`, `panics: .unwrap()`).
    pub note: String,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, as given to the analyzer.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable detail (includes the offending token or name).
    pub message: String,
    /// For interprocedural rules: the call path from the root to the
    /// offending token, in call order. Empty for token-level rules.
    pub trace: Vec<TraceHop>,
}

impl Finding {
    /// A token-level finding with no call path.
    #[must_use]
    pub fn new(path: String, line: usize, rule: Rule, message: String) -> Self {
        Self {
            path,
            line,
            rule,
            message,
            trace: Vec::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path,
            self.line,
            self.rule.id(),
            self.message
        )?;
        for hop in &self.trace {
            write!(f, "\n    via {}:{}: {}", hop.path, hop.line, hop.note)?;
        }
        Ok(())
    }
}

/// Path fragments that mark a file as belonging to a *physics* crate
/// (L001/L008 only apply there — conversions and plumbing crates may
/// legitimately traffic in raw numbers).
pub(crate) const PHYSICS_DIRS: &[&str] = &[
    "crates/battery",
    "crates/powernet",
    "crates/solar",
    "crates/core",
    "crates/sim",
    "crates/units",
];

/// Path fragments in scope for the panic-surface rules (L009/L011):
/// physics plus the fleet and service layers, whose loops must
/// degrade, not abort.
pub(crate) const PANIC_SURFACE_DIRS: &[&str] = &[
    "crates/battery",
    "crates/powernet",
    "crates/solar",
    "crates/core",
    "crates/sim",
    "crates/units",
    "crates/fleet",
    "crates/service",
];

/// Path suffixes of the sanctioned thread/atomics owners, exempt from
/// L006.
pub(crate) const POOL_FILES: &[&str] = &[
    "crates/sim/src/pool.rs",
    // The daemon is the sanctioned owner of the service's only
    // threads: the crash-isolated engine worker.
    "crates/service/src/daemon.rs",
];

/// Path suffixes of *critical* files: every fn defined there (pub or
/// not) is an L011 root — these paths must be statically panic-free.
/// The service supervisor, safe-mode policy and the sweep prefix
/// planner live here: the crash-isolation claim (DESIGN.md §11)
/// assumes the takeover path itself cannot panic, and the
/// incremental-sweep equivalence claim (DESIGN.md §12) assumes the
/// planner cannot abort a sweep mid-fan-out.
pub const CRITICAL_FILES: &[&str] = &[
    "crates/service/src/supervisor.rs",
    "crates/service/src/safe_mode.rs",
    "crates/sim/src/snapshot.rs",
];

/// Name fragments marking a `pub fn` as a serialization/telemetry root
/// for L012 (experiment output must be reproducible from the seed, so
/// nothing nondeterministic may feed it).
pub(crate) const SERIALIZATION_ROOTS: &[&str] =
    &["json", "csv", "sarif", "telemetry", "serialize", "export"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_id(rule.id()), Some(rule));
        }
        assert_eq!(Rule::from_id("l003"), Some(Rule::Nondeterminism));
        assert_eq!(Rule::from_id("L013"), Some(Rule::CrossUnitFlow));
        assert_eq!(Rule::from_id("L999"), None);
    }

    #[test]
    fn rule_ids_are_sorted_and_unique() {
        let ids: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "Rule::ALL must stay in unique id order");
    }

    #[test]
    fn finding_display_renders_trace_hops() {
        let mut f = Finding::new(
            "crates/core/src/x.rs".to_string(),
            3,
            Rule::TransitivePanic,
            "`step` can panic".to_string(),
        );
        f.trace.push(TraceHop {
            path: "crates/battery/src/y.rs".to_string(),
            line: 9,
            note: "calls `charge`".to_string(),
        });
        let text = f.to_string();
        assert!(text.contains("crates/core/src/x.rs:3: L011"));
        assert!(text.contains("via crates/battery/src/y.rs:9: calls `charge`"));
    }
}
