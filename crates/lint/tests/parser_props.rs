//! Property tests for the interprocedural layer: the item parser and
//! the call graph.
//!
//! Two contracts hold over generated inputs:
//!
//! 1. **Item tiling** — top-level item spans and the gaps between them
//!    partition `0..len` byte-exactly ([`ParsedFile::segments`]), and
//!    every span lies on char boundaries. Line numbers and snippet
//!    extraction derived from items are therefore always trustworthy.
//! 2. **Walk-order independence** — the call graph's rendered adjacency
//!    is byte-identical no matter what order files arrive in, so a
//!    parallel or platform-dependent directory walk can never change
//!    findings.
//!
//! The shim's strategies cannot generate strings directly, so inputs are
//! built from integer draws into an alphabet of item-level constructs.

use ins_lint::callgraph::CallGraph;
use ins_lint::context::FileContext;
use ins_lint::index::SymbolIndex;
use ins_lint::parser::{parse, ParsedFile};
use proptest::prelude::*;

/// Item-level constructs, including attributed, nested, unterminated
/// and unbalanced ones that stress the parser's recovery paths.
const ITEMS: &[&str] = &[
    "pub fn f(power: f64) -> f64 { g(power) }\n",
    "fn g(x: f64) -> f64 { x }\n",
    "fn bad() { opt.unwrap(); }\n",
    "pub fn entry() { bad(); }\n",
    "mod inner { fn hidden() { panic!(\"x\") } }\n",
    "#[derive(Debug)]\nstruct Pack { soc: f64 }\n",
    "impl Pack {\n    pub fn step(&mut self, dt: f64) { self.tick(dt); }\n    fn tick(&mut self, _dt: f64) {}\n}\n",
    "use ins_battery::pack::Pack;\n",
    "use std::collections::{BTreeMap, BTreeSet};\n",
    "pub use crate::units::Watts;\n",
    "const LIMIT: u32 = 7;\n",
    "static NAME: &str = \"x\";\n",
    "trait Step { fn advance(&mut self); }\n",
    "enum Mode { A, B }\n",
    "union U { a: u32, b: f32 }\n",
    "macro_rules! m { () => {} }\n",
    "// plain comment\n",
    "/// # Panics\n/// Panics when empty.\nfn may_panic() { panic!() }\n",
    "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n",
    "extern \"C\" fn callback() {}\n",
    "pub(crate) async unsafe fn weird() {}\n",
    "fn generic<T: Clone>(v: Vec<T>) -> T where T: Default { v[0].clone() }\n",
    "/* unterminated block",
    "\"unterminated string",
    "r#\"raw \" quote\"#\n",
    "}\n",
    "{ {\n",
    ")\n",
    "fn\n",
    "impl {\n",
    "'lifetime\n",
    "汉字();\n",
];

/// Checks the item-tiling contract on one source.
fn assert_items_tile(src: &str) {
    let ctx = FileContext::new("crates/battery/src/x.rs", src);
    let parsed = parse(&ctx);
    let segments = parsed.segments(src.len());
    let mut pos = 0usize;
    for &(start, end, _is_item) in &segments {
        assert_eq!(start, pos, "segment gap/overlap at {start} in {src:?}");
        assert!(end > start, "empty segment in {src:?}");
        assert!(
            src.get(start..end).is_some(),
            "segment {start}..{end} not on char boundaries in {src:?}"
        );
        pos = end;
    }
    assert_eq!(pos, src.len(), "segments do not cover {src:?}");
    let rebuilt: String = segments.iter().map(|&(s, e, _)| &src[s..e]).collect();
    assert_eq!(rebuilt, src);
}

/// A compact interlinked workspace: cross-crate `use`s, method calls,
/// module nesting and a panic chain, so shuffles exercise real edges.
const WORKSPACE: &[(&str, &str)] = &[
    (
        "crates/battery/src/pack.rs",
        "pub struct Pack;\nimpl Pack {\n    pub fn step(&self) { self.tick() }\n    \
         fn tick(&self) { cell_volts(3.7); }\n}\npub fn cell_volts(v: f64) -> f64 { v }\n",
    ),
    (
        "crates/battery/src/bms.rs",
        "use crate::pack::cell_volts;\npub fn guard() { cell_volts(0.0); trip(); }\n\
         fn trip() { panic!(\"over-volt\") }\n",
    ),
    (
        "crates/sim/src/run.rs",
        "use ins_battery::pack::Pack;\npub fn tick(p: &Pack) { p.step(); helper(); }\n\
         fn helper() {}\n",
    ),
    (
        "crates/sim/src/report.rs",
        "pub fn export_json() { fmt(); }\nfn fmt() {}\n",
    ),
    (
        "crates/fleet/src/router.rs",
        "use ins_sim::run::tick;\nmod policy { pub fn pick() -> usize { 0 } }\n\
         pub fn route() { policy::pick(); }\n",
    ),
    (
        "crates/service/src/supervisor.rs",
        "pub fn supervise() { watch(); }\nfn watch() { state().expect(\"alive\"); }\n\
         fn state() -> Option<u8> { None }\n",
    ),
];

/// Renders the call graph for the workspace files selected by `mask`,
/// presented in `order`.
fn render_graph(selection: &[usize]) -> String {
    let files: Vec<(&str, &str)> = selection.iter().map(|&i| WORKSPACE[i]).collect();
    let contexts: Vec<FileContext<'_>> = files
        .iter()
        .map(|(path, src)| FileContext::new(path, src))
        .collect();
    let mut index = SymbolIndex::with_builtin_units();
    for ctx in &contexts {
        index.add_file(ctx);
    }
    let parsed: Vec<ParsedFile> = contexts.iter().map(parse).collect();
    for p in &parsed {
        index.add_parsed(p);
    }
    let inputs: Vec<(&FileContext<'_>, &ParsedFile)> = contexts.iter().zip(parsed.iter()).collect();
    CallGraph::build(&inputs, &index).render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_items_tile_construct_soup(indices in collection::vec(0usize..ITEMS.len(), 0..24)) {
        let src: String = indices.iter().map(|&i| ITEMS[i]).collect();
        assert_items_tile(&src);
    }

    #[test]
    fn parser_survives_arbitrary_bytes(bytes in collection::vec(0u32..=255u32, 0..160)) {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let src = String::from_utf8_lossy(&raw).into_owned();
        assert_items_tile(&src);
    }

    #[test]
    fn callgraph_is_walk_order_independent(seed in collection::vec(0usize..1000, WORKSPACE.len())) {
        // Derive a permutation from the seed by stable-sorting indices.
        let mut shuffled: Vec<usize> = (0..WORKSPACE.len()).collect();
        shuffled.sort_by_key(|&i| (seed[i], i));
        let sorted: Vec<usize> = (0..WORKSPACE.len()).collect();
        prop_assert_eq!(render_graph(&shuffled), render_graph(&sorted));
    }
}

#[test]
fn every_item_construct_tiles_alone() {
    for entry in ITEMS {
        assert_items_tile(entry);
    }
}

#[test]
fn full_workspace_graph_has_expected_edges() {
    let all: Vec<usize> = (0..WORKSPACE.len()).collect();
    let rendered = render_graph(&all);
    assert!(
        rendered.contains("battery::bms::guard -> battery::bms::trip"),
        "panic chain edge missing:\n{rendered}"
    );
    assert!(
        rendered.contains("sim::run::tick -> battery::pack::Pack::step"),
        "cross-crate method edge missing:\n{rendered}"
    );
}
