//! Behavioral pins for the rule catalog against the public crate API.
//!
//! These tests rode in `lib.rs` while the engine was a single file;
//! they moved here unchanged when the rules split into `rules/`
//! submodules, so the split is provably behavior-preserving.

use ins_lint::{analyze_source, report_json, Finding, Rule};

fn run(path: &str, src: &str) -> Vec<Finding> {
    analyze_source(path, src)
}

fn rules_of(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn worker_pool_is_free_of_nondeterminism() {
    // The parallel sweep layer's whole contract is bit-identical
    // output at any thread count, so its internals must never touch
    // the banned wall-clock / OS-randomness APIs (L003). Analyze the
    // actual source shipped in `ins-sim`.
    let src = include_str!("../../sim/src/pool.rs");
    let findings = run("crates/sim/src/pool.rs", src);
    let nondet: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::Nondeterminism)
        .collect();
    assert!(
        nondet.is_empty(),
        "pool.rs must stay deterministic, found: {nondet:?}"
    );
    // The pool is the one sanctioned owner of threads and atomics.
    let parallel: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == Rule::ParallelSafety)
        .collect();
    assert!(parallel.is_empty(), "pool.rs is L006-exempt: {parallel:?}");
}

#[test]
fn l001_fires_on_untyped_quantity_param() {
    let src = "pub fn set_power(power: f64) {}\n";
    let findings = run("crates/battery/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::UntypedQuantity]);
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].message.contains("power"));
}

#[test]
fn l001_fires_on_suffixed_names_and_multiline_signatures() {
    let src = "pub fn charge(\n    limit_a: f64,\n    hours: f64,\n) {}\n";
    let findings = run("crates/powernet/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::UntypedQuantity]);
    assert_eq!(findings[0].line, 2, "finding points at the parameter");
}

#[test]
fn l001_ignores_typed_params_private_fns_and_other_crates() {
    // Typed quantity: fine.
    assert!(run("crates/battery/src/x.rs", "pub fn f(power: Watts) {}\n").is_empty());
    // Private fn: fine.
    assert!(run("crates/battery/src/x.rs", "fn f(power: f64) {}\n").is_empty());
    // Restricted visibility: not public API.
    assert!(run(
        "crates/battery/src/x.rs",
        "pub(crate) fn f(power: f64) {}\n"
    )
    .is_empty());
    // Non-physics crate: fine.
    assert!(run("crates/workload/src/x.rs", "pub fn f(power: f64) {}\n").is_empty());
    // Non-quantity name: fine.
    assert!(run("crates/battery/src/x.rs", "pub fn f(fraction: f64) {}\n").is_empty());
}

#[test]
fn l002_fires_outside_tests_only() {
    let src = "fn f() { x.unwrap(); }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn g() { y.unwrap(); z.expect(\"boom\"); }\n\
               }\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::UnwrapInProduction]);
    assert_eq!(findings[0].line, 1);
}

#[test]
fn l002_exempts_bare_mod_tests_without_attribute() {
    // The classic line-scanner blind spot: a test module that forgot
    // the `#[cfg(test)]` attribute is still test code.
    let src = "fn f() { x.unwrap(); }\n\
               mod tests {\n\
                   fn g() { y.unwrap(); }\n\
               }\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::UnwrapInProduction]);
    assert_eq!(findings[0].line, 1);
}

#[test]
fn l002_exempts_tests_directories() {
    let src = "fn f() { x.unwrap(); }\n";
    assert!(run("tests/full_day.rs", src).is_empty());
    assert!(run("crates/core/tests/chaos.rs", src).is_empty());
}

#[test]
fn l002_ignores_unwrap_or_variants() {
    let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); }\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn l003_fires_on_nondeterminism_tokens() {
    let src = "use std::time::SystemTime;\n\
               fn f() { let t = Instant::now(); let r = rand::thread_rng(); }\n";
    let findings = run("crates/sim/src/x.rs", src);
    assert_eq!(
        rules_of(&findings),
        vec![
            Rule::Nondeterminism,
            Rule::Nondeterminism,
            Rule::Nondeterminism
        ]
    );
}

#[test]
fn l003_ignores_tokens_inside_strings_and_comments() {
    let src = "fn f() { let s = \"Instant::now\"; }\n\
               // the phrase SystemTime in prose is fine\n";
    assert!(run("crates/sim/src/x.rs", src).is_empty());
}

#[test]
fn l003_ignores_tokens_inside_multiline_block_comments() {
    // A rule firing inside a block comment was a latent false-
    // positive class of the line scanner: the comment interior
    // carried no comment marker on its own line.
    let src = "/*\n  SystemTime and Instant::now discussed here,\n  \
               plus x.unwrap() examples.\n*/\nfn f() {}\n";
    assert!(run("crates/sim/src/x.rs", src).is_empty());
}

#[test]
fn l004_fires_on_float_literal_comparison() {
    let src = "fn f(x: f64) -> bool { x == 0.0 }\n";
    let findings = run("crates/powernet/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::FloatEquality]);
    let src = "fn f(x: f64) -> bool { 1.5 != x }\n";
    assert_eq!(
        rules_of(&run("crates/powernet/src/x.rs", src)),
        vec![Rule::FloatEquality]
    );
}

#[test]
fn l004_ignores_integer_comparison_ranges_and_tests() {
    assert!(run("crates/core/src/x.rs", "fn f(x: u32) -> bool { x == 0 }\n").is_empty());
    assert!(run(
        "crates/core/src/x.rs",
        "fn f(x: f64) -> bool { x <= 0.5 }\n"
    )
    .is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(x: f64) -> bool { x == 0.25 }\n}\n";
    assert!(run("crates/core/src/x.rs", in_test).is_empty());
}

#[test]
fn l005_fires_on_unreferenced_markers_only() {
    let with_ref = "// TODO(#412): tighten the envelope\n";
    assert!(run("crates/core/src/x.rs", with_ref).is_empty());
    let bare = "// TODO tighten the envelope\nfn f() {}\n";
    let findings = run("crates/core/src/x.rs", bare);
    assert_eq!(rules_of(&findings), vec![Rule::UntrackedTodo]);
    assert_eq!(findings[0].line, 1);
    let fixme = "// FIXME this flaps\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", fixme)),
        vec![Rule::UntrackedTodo]
    );
}

#[test]
fn l006_fires_on_threads_and_shared_state_outside_pool() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    let findings = run("crates/fleet/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::ParallelSafety]);
    assert!(findings[0].message.contains("thread::spawn"));

    let src = "static mut COUNTER: u64 = 0;\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", src)),
        vec![Rule::ParallelSafety]
    );

    let src = "use std::sync::Mutex;\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", src)),
        vec![Rule::ParallelSafety]
    );
}

#[test]
fn l006_flags_side_channel_accumulation_in_pool_closures() {
    let src = "fn f() { let total = AtomicU64::new(0);\n\
               pool.scoped_map(cells, |c| { total.fetch_add(c.run(), Relaxed); });\n}\n";
    let findings = run("crates/core/src/x.rs", src);
    // `AtomicU64` itself plus the `.fetch_add(` side channel.
    assert!(findings.iter().any(|f| f.message.contains("fetch_add")));
    assert!(rules_of(&findings)
        .iter()
        .all(|r| *r == Rule::ParallelSafety));
}

#[test]
fn l006_exempts_the_pool_file() {
    let src = "fn f() { std::thread::scope(|s| {}); }\n";
    assert!(run("crates/sim/src/pool.rs", src).is_empty());
}

#[test]
fn l007_fires_on_nan_masking_comparators() {
    let src = "fn f(v: &mut Vec<f64>) {\n\
               v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n";
    let findings = run("crates/core/src/x.rs", src);
    // The `.unwrap()` also trips L002 — both diagnoses are real.
    assert_eq!(
        rules_of(&findings),
        vec![Rule::UnwrapInProduction, Rule::OrderingDeterminism]
    );
    let l007 = &findings[1];
    assert_eq!(l007.line, 2);
    assert!(l007.message.contains("total_cmp"));

    // Masking with a default is as bad as panicking: NaN sorts
    // arbitrarily.
    let src = "fn f(a: f64, b: f64) -> Ordering {\n\
               a.partial_cmp(&b).unwrap_or(Ordering::Equal)\n}\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", src)),
        vec![Rule::OrderingDeterminism]
    );
}

#[test]
fn l007_fires_on_unordered_collections() {
    let src = "use std::collections::HashMap;\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::OrderingDeterminism]);
    assert!(findings[0].message.contains("BTreeMap"));
}

#[test]
fn l007_ignores_total_cmp_and_tests() {
    let src = "fn f(v: &mut Vec<f64>) { v.sort_by(f64::total_cmp); }\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
    let in_test = "#[cfg(test)]\nmod tests {\n    fn f(a: f64, b: f64) {\n        \
                   a.partial_cmp(&b).unwrap();\n    }\n}\n";
    assert!(run("crates/core/src/x.rs", in_test).is_empty());
}

#[test]
fn l008_fires_on_cross_dimension_raw_value_flow() {
    let src = "pub fn f(dt: Hours) -> Watts {\n\
               Watts::new(dt.value() * 2.0)\n}\n";
    let findings = run("crates/powernet/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::UnitFlow]);
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("Hours"));
    assert!(findings[0].message.contains("Watts"));
}

#[test]
fn l008_allows_same_unit_and_dimensionless_flows() {
    // Same unit back in: a legitimate clamp/scale idiom.
    let src = "pub fn f(p: Watts) -> Watts { Watts::new(p.value() * 0.5) }\n";
    assert!(run("crates/powernet/src/x.rs", src).is_empty());
    // Dimensionless target (a fraction) may absorb any quantity.
    let src = "pub fn f(e: WattHours, cap: WattHours) -> Soc {\n\
               Soc::new(e.value() / cap.value())\n}\n";
    assert!(run("crates/powernet/src/x.rs", src).is_empty());
    // Non-physics crates are out of scope.
    let src = "pub fn f(dt: Hours) -> Watts { Watts::new(dt.value()) }\n";
    assert!(run("crates/fleet/src/x.rs", src).is_empty());
    // The units crate defines the dimension algebra; its operator
    // impls are the sanctioned conversions and are exempt.
    let src = "impl Mul<Amps> for Volts {\n    type Output = Watts;\n    \
               fn mul(self, rhs: Amps) -> Watts { Watts::new(self.value() * rhs.value()) }\n}\n";
    assert!(run("crates/units/src/lib.rs", src).is_empty());
}

#[test]
fn l008_fires_on_truncating_value_casts() {
    let src = "fn f(p: Watts) -> u32 { p.value() as u32 }\n";
    let findings = run("crates/core/src/x.rs", src);
    // The same cast also trips the L009 narrowing-cast check in
    // panic-surface scope; both diagnoses are real.
    assert!(rules_of(&findings).contains(&Rule::UnitFlow));
}

#[test]
fn l009_fires_in_panic_surface_scope_only() {
    let src = "fn f(x: Mode) -> u8 { match x { Mode::A => 0, _ => unreachable!() } }\n";
    let findings = run("crates/fleet/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::PanicSurface]);
    assert!(findings[0].message.contains("unreachable!"));
    // Out of scope: the bench harness may assert freely.
    assert!(run("crates/bench/src/x.rs", src).is_empty());
}

#[test]
fn l009_fires_on_arithmetic_indexing_and_narrowing_casts() {
    let src = "fn f(v: &[f64], i: usize) -> f64 { v[i - 1] }\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::PanicSurface]);
    assert!(findings[0].message.contains("underflow"));

    let src = "fn f(n: usize) -> u32 { n as u32 }\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", src)),
        vec![Rule::PanicSurface]
    );
    // Plain indexing and widening casts are fine.
    assert!(run(
        "crates/core/src/x.rs",
        "fn f(v: &[f64], i: usize) -> f64 { v[i] }\n"
    )
    .is_empty());
    assert!(run("crates/core/src/x.rs", "fn f(n: u32) -> u64 { n as u64 }\n").is_empty());
}

#[test]
fn l010_flags_stale_suppressions() {
    // Nothing on this line (or the next) violates L004 anymore.
    let src = "// ins-lint: allow(L004) -- obsolete\nfn f(x: u32) -> bool { x == 0 }\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::StaleSuppression]);
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].message.contains("L004"));
}

#[test]
fn l010_spares_used_suppressions() {
    let src = "fn f(x: f64) -> bool { x == 0.0 } // ins-lint: allow(L004)\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn l010_cannot_be_suppressed() {
    // `allow(L010)` never matches anything — L010 findings are
    // derived after suppression filtering — so it is always stale.
    let src = "// ins-lint: allow(L010)\nfn f() {}\n";
    let findings = run("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&findings), vec![Rule::StaleSuppression]);
}

#[test]
fn doc_comment_markers_are_not_suppressions() {
    // A doc-comment example of the marker syntax neither suppresses
    // nor counts as stale.
    let src = "//! Suppress with `// ins-lint: allow(L004)`.\nfn f() {}\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
    // And it does not shield a real finding on the next line.
    let src = "/// ins-lint: allow(L004)\npub fn f(x: f64) -> bool { x == 0.0 }\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", src)),
        vec![Rule::FloatEquality]
    );
}

#[test]
fn suppression_covers_same_line_and_next_line() {
    let same = "fn f(x: f64) -> bool { x == 0.0 } // ins-lint: allow(L004)\n";
    assert!(run("crates/core/src/x.rs", same).is_empty());
    let above = "// ins-lint: allow(L004) -- sentinel compare\nfn f(x: f64) -> bool { x == 0.0 }\n";
    assert!(run("crates/core/src/x.rs", above).is_empty());
    // The wrong rule id does not suppress — and is itself stale.
    let wrong = "fn f(x: f64) -> bool { x == 0.0 } // ins-lint: allow(L002)\n";
    assert_eq!(
        rules_of(&run("crates/core/src/x.rs", wrong)),
        vec![Rule::FloatEquality, Rule::StaleSuppression]
    );
    // Comma lists suppress several rules at once.
    let multi = "fn f(x: f64) -> bool { x.unwrap(); x == 0.0 } // ins-lint: allow(L002, L004)\n";
    assert!(run("crates/core/src/x.rs", multi).is_empty());
}

#[test]
fn l010_flags_marker_entries_that_name_no_rule() {
    // A typo'd id can never suppress anything, so it must not pass
    // silently: each such entry is an L010 at the marker's line.
    let typo = "fn f() {} // ins-lint: allow(L099) -- typo\n";
    let findings = run("crates/core/src/x.rs", typo);
    assert_eq!(rules_of(&findings), vec![Rule::StaleSuppression]);
    assert_eq!(
        findings[0].message,
        "`allow(L099)` names no rule; fix the id or remove the marker"
    );
    let empty = "fn f() {}\n// ins-lint: allow()\n";
    let findings = run("crates/core/src/x.rs", empty);
    assert_eq!(rules_of(&findings), vec![Rule::StaleSuppression]);
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.starts_with("`allow()` names no rule"));
    // A known id beside an unknown one still suppresses; only the
    // unknown entry is reported.
    let mixed = "fn f(x: f64) -> bool { x == 0.0 } // ins-lint: allow(L004, L0O4)\n";
    let findings = run("crates/core/src/x.rs", mixed);
    assert_eq!(rules_of(&findings), vec![Rule::StaleSuppression]);
    assert!(
        findings[0]
            .message
            .starts_with("`allow(L0O4)` names no rule"),
        "{}",
        findings[0].message
    );
}

#[test]
fn json_report_is_well_formed() {
    let findings = run(
        "crates/core/src/x.rs",
        "fn f(x: f64) -> bool { x == 0.0 }\n",
    );
    let json = report_json(&findings);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert!(json.contains("\"rule\":\"L004\""));
    assert!(json.contains("\"line\":1"));
    assert_eq!(report_json(&[]), "[]");
}

#[test]
fn analysis_is_deterministic_across_runs() {
    let src = "use std::collections::HashMap;\n\
               fn f(x: f64) -> bool { x == 0.0 }\n\
               fn g() { y.unwrap(); }\n";
    let first = report_json(&run("crates/core/src/x.rs", src));
    for _ in 0..5 {
        assert_eq!(first, report_json(&run("crates/core/src/x.rs", src)));
    }
}

#[test]
fn raw_strings_are_sanitized() {
    let src = "fn f() { let s = r#\"x.unwrap() == 0.0 Instant::now\"#; }\n";
    assert!(run("crates/core/src/x.rs", src).is_empty());
}
