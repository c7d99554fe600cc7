//! The workspace call graph: every parsed function as a node, every
//! resolvable call as an edge.
//!
//! Resolution is deliberately conservative — an edge exists only when
//! the target is unambiguous under the rules below, so the graph passes
//! under-approximate reachability rather than invent it:
//!
//! 1. **Qualified calls** (`a::b::f(…)`): the qualifier (after
//!    expanding the file's `use` aliases and normalizing
//!    `crate`/`self`/`super` and `ins_*` lib names to workspace crate
//!    names) must be a suffix of the candidate's qualification path.
//! 2. **Bare calls** (`f(…)`): same module first, then a `use` alias,
//!    then a unique match in the same crate, then a unique match in
//!    the workspace; ambiguity drops the edge.
//! 3. **Method calls** (`recv.f(…)`): resolved when the receiver's
//!    type is known (a typed parameter or a `let recv: Ty` / `let recv
//!    = Ty::…` binding) and that type has a matching method, or when
//!    exactly one function of that name exists workspace-wide.
//!
//! Node order is fixed by sorting files by path before numbering, so
//! the adjacency structure is byte-identical regardless of the order
//! the file walk produced — pinned by a shuffle property test.

use std::collections::BTreeMap;

use crate::context::FileContext;
use crate::index::{canonical_head, SymbolIndex};
use crate::parser::{CallSite, Param, ParsedFile};

/// A line inside a function where something of interest happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// Human-readable description of the token(s) found there.
    pub what: String,
}

/// One function node in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index of the owning file in the build input (post path-sort).
    pub file: usize,
    /// The owning file's path.
    pub path: String,
    /// The function name.
    pub name: String,
    /// Qualification segments (crate, modules, impl type).
    pub qual: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// `pub` exactly.
    pub is_pub: bool,
    /// Declared in test code.
    pub is_test: bool,
    /// The parameters.
    pub params: Vec<Param>,
    /// The return type, `None` for `()`.
    pub ret: Option<String>,
    /// Doc comment above declares `# Panics`.
    pub doc_panics: bool,
    /// Panicking constructs in the body, on non-test lines.
    pub panic_sites: Vec<Site>,
    /// Nondeterminism sources in the body, on non-test lines.
    pub nondet_sites: Vec<Site>,
}

impl FnNode {
    /// The dotted diagnostic name (`battery::Pack::charge`).
    #[must_use]
    pub fn display_name(&self) -> String {
        let mut parts: Vec<&str> = self.qual.iter().map(String::as_str).collect();
        parts.push(&self.name);
        parts.join("::")
    }

    /// The crate the function lives in.
    #[must_use]
    pub fn crate_name(&self) -> &str {
        self.qual.first().map_or("", String::as_str)
    }
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// 1-based line of the call site.
    pub line: usize,
    /// The call sits on a test-region line.
    pub in_test: bool,
}

/// A resolved call with its source-level context, kept for passes that
/// need argument structure (L013) rather than plain reachability.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// Index of the call's file in the build input.
    pub file: usize,
    /// Index of the [`CallSite`] within that file's `calls`.
    pub call: usize,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// All function nodes; index is the node id.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per node, deduped, sorted by `(to, line)`.
    pub edges: Vec<Vec<Edge>>,
    /// Every resolved call in file order.
    pub resolved: Vec<ResolvedCall>,
    /// Node ids grouped by bare function name.
    defs_by_name: BTreeMap<String, Vec<usize>>,
    /// `(file index, fn index in file)` → node id.
    node_of: BTreeMap<(usize, usize), usize>,
}

impl CallGraph {
    /// Builds the graph from parsed files, consulting the symbol
    /// index's `use` table for alias resolution. Input order does not
    /// matter: files are sorted by path before node numbering.
    #[must_use]
    pub fn build(inputs: &[(&FileContext<'_>, &ParsedFile)], index: &SymbolIndex) -> Self {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        order.sort_by(|&a, &b| inputs[a].1.path.cmp(&inputs[b].1.path));

        let mut graph = CallGraph::default();
        // First pass: create nodes in (path, declaration) order.
        for (slot, &src_idx) in order.iter().enumerate() {
            let (ctx, parsed) = inputs[src_idx];
            for (fi, decl) in parsed.fns.iter().enumerate() {
                let id = graph.fns.len();
                graph.node_of.insert((slot, fi), id);
                graph
                    .defs_by_name
                    .entry(decl.name.clone())
                    .or_default()
                    .push(id);
                graph.fns.push(FnNode {
                    file: slot,
                    path: parsed.path.clone(),
                    name: decl.name.clone(),
                    qual: decl.qual.clone(),
                    line: decl.line,
                    is_pub: decl.is_pub,
                    is_test: decl.is_test,
                    params: decl.params.clone(),
                    ret: decl.ret.clone(),
                    doc_panics: decl.doc_panics,
                    panic_sites: decl
                        .body
                        .map(|(open, close)| scan_panic_sites(ctx, open, close))
                        .unwrap_or_default(),
                    nondet_sites: decl
                        .body
                        .map(|(open, close)| scan_nondet_sites(ctx, open, close))
                        .unwrap_or_default(),
                });
            }
        }
        graph.edges = vec![Vec::new(); graph.fns.len()];

        // Second pass: resolve calls to edges.
        for (slot, &src_idx) in order.iter().enumerate() {
            let (ctx, parsed) = inputs[src_idx];
            for (ci, call) in parsed.calls.iter().enumerate() {
                let Some(&from) = graph.node_of.get(&(slot, call.caller)) else {
                    continue;
                };
                let Some(to) = graph.resolve(slot, parsed, ctx, index, call) else {
                    continue;
                };
                if to == from {
                    continue; // direct recursion adds nothing to reachability
                }
                graph.edges[from].push(Edge {
                    to,
                    line: call.line,
                    in_test: call.in_test,
                });
                graph.resolved.push(ResolvedCall {
                    from,
                    to,
                    file: slot,
                    call: ci,
                });
            }
        }
        for adj in &mut graph.edges {
            adj.sort_unstable();
            adj.dedup();
        }
        graph.resolved.sort_by_key(|a| (a.file, a.call));
        graph
    }

    /// Node id of function `fi` (declaration order) in file `slot`
    /// (path-sorted order).
    #[must_use]
    pub fn node(&self, slot: usize, fi: usize) -> Option<usize> {
        self.node_of.get(&(slot, fi)).copied()
    }

    /// Resolves one call site to a callee node, or `None` when the
    /// target is ambiguous or outside the workspace.
    fn resolve(
        &self,
        slot: usize,
        parsed: &ParsedFile,
        ctx: &FileContext<'_>,
        index: &SymbolIndex,
        call: &CallSite,
    ) -> Option<usize> {
        let candidates = self.defs_by_name.get(&call.name)?;
        if call.is_method {
            return self.resolve_method(slot, parsed, ctx, call, candidates);
        }
        if call.qual.is_empty() {
            return self.resolve_bare(slot, parsed, index, call, candidates);
        }
        // Qualified call: normalize the qualifier, then suffix-match.
        let mut qual: Vec<String> = Vec::new();
        match call.qual[0].as_str() {
            "crate" => {
                qual.push(parsed.crate_name.clone());
                qual.extend(call.qual[1..].iter().cloned());
            }
            "self" => {
                qual.push(parsed.crate_name.clone());
                qual.extend(parsed.module_path.iter().cloned());
                qual.extend(call.qual[1..].iter().cloned());
            }
            "super" => {
                qual.push(parsed.crate_name.clone());
                let mut parent = parsed.module_path.clone();
                parent.pop();
                qual.extend(parent);
                qual.extend(call.qual[1..].iter().cloned());
            }
            head => {
                // A `use` alias may expand the head to a full path (the
                // index table is already canonicalized).
                if let Some(path) = index.lookup_use(&parsed.path, head) {
                    qual.extend(path.iter().cloned());
                    qual.extend(call.qual[1..].iter().cloned());
                } else {
                    qual.extend(call.qual.iter().map(|s| canonical_head(s).to_string()));
                }
            }
        }
        let matches: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| ends_with(&self.fns[id].qual, &qual))
            .collect();
        match matches.as_slice() {
            [one] => Some(*one),
            [] => {
                // `super::`/`crate::` written inside an inline module
                // resolves deeper than the file-level module path the
                // parser sees; fall back to bare-call rules.
                if matches!(call.qual[0].as_str(), "crate" | "self" | "super") {
                    return self.resolve_bare(slot, parsed, index, call, candidates);
                }
                // A re-export facade (`use ins_sim::units::Soc` for a
                // type living in the `ins-units` crate) leaves leading
                // segments no definition path carries. Retry with
                // progressively shorter suffixes; only a *unique* match
                // resolves, and any ambiguity drops the edge.
                for start in 1..qual.len() {
                    let tail = &qual[start..];
                    let narrowed: Vec<usize> = candidates
                        .iter()
                        .copied()
                        .filter(|&id| ends_with(&self.fns[id].qual, tail))
                        .collect();
                    match narrowed.as_slice() {
                        [one] => return Some(*one),
                        [] => continue,
                        _ => return None,
                    }
                }
                None
            }
            many => {
                // Prefer a same-crate match when that disambiguates.
                let same: Vec<usize> = many
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].crate_name() == parsed.crate_name)
                    .collect();
                match same.as_slice() {
                    [one] => Some(*one),
                    _ => None,
                }
            }
        }
    }

    /// Bare-call resolution: same module → `use` alias → unique in
    /// crate → unique in workspace.
    fn resolve_bare(
        &self,
        slot: usize,
        parsed: &ParsedFile,
        index: &SymbolIndex,
        call: &CallSite,
        candidates: &[usize],
    ) -> Option<usize> {
        let caller = &parsed.fns[call.caller];
        // Same scope: identical qualification (module or impl block).
        let same_scope: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == slot && self.fns[id].qual == caller.qual)
            .collect();
        if let [one] = same_scope.as_slice() {
            return Some(*one);
        }
        // Same file, module level (a method calling a free fn).
        let mut module_qual = vec![parsed.crate_name.clone()];
        module_qual.extend(parsed.module_path.iter().cloned());
        let same_file: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| self.fns[id].file == slot && self.fns[id].qual == module_qual)
            .collect();
        if let [one] = same_file.as_slice() {
            return Some(*one);
        }
        // Imported by name.
        if let Some(path) = index.lookup_use(&parsed.path, &call.name) {
            let imported: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&id| {
                    let mut full = self.fns[id].qual.clone();
                    full.push(self.fns[id].name.clone());
                    ends_with(&full, path)
                })
                .collect();
            if let [one] = imported.as_slice() {
                return Some(*one);
            }
        }
        // Unique within the crate, then the workspace.
        let in_crate: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| self.fns[id].crate_name() == parsed.crate_name)
            .collect();
        if let [one] = in_crate.as_slice() {
            return Some(*one);
        }
        match candidates {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Method-call resolution via receiver type, falling back to a
    /// unique workspace-wide name match.
    fn resolve_method(
        &self,
        _slot: usize,
        parsed: &ParsedFile,
        ctx: &FileContext<'_>,
        call: &CallSite,
        candidates: &[usize],
    ) -> Option<usize> {
        if let Some(recv) = &call.receiver {
            if let Some(ty) = receiver_type(parsed, ctx, call, recv) {
                let typed: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].qual.last().map(String::as_str) == Some(&ty))
                    .collect();
                if let [one] = typed.as_slice() {
                    return Some(*one);
                }
                if typed.len() > 1 {
                    return None; // same method on the type in two impls/files
                }
            }
            // `self.f(…)`: a sibling method in the same impl type.
            if recv == "self" {
                let caller = &parsed.fns[call.caller];
                let siblings: Vec<usize> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].qual == caller.qual)
                    .collect();
                if let [one] = siblings.as_slice() {
                    return Some(*one);
                }
            }
        }
        match candidates {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Deterministic adjacency dump: one `caller -> callee @line` row
    /// per edge, in node order. Used by the shuffle-determinism tests
    /// and `--explain` rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, node) in self.fns.iter().enumerate() {
            for e in &self.edges[id] {
                out.push_str(&format!(
                    "{} -> {} @{}:{}\n",
                    node.display_name(),
                    self.fns[e.to].display_name(),
                    node.path,
                    e.line
                ));
            }
        }
        out
    }
}

/// Whether `full` ends with the segments of `suffix`.
fn ends_with(full: &[String], suffix: &[String]) -> bool {
    suffix.len() <= full.len() && full[full.len() - suffix.len()..] == *suffix
}

/// Infers the type of a plain-identifier method receiver from the
/// caller's typed parameters or a `let recv: Ty` / `let recv = Ty::…`
/// binding earlier in the body.
fn receiver_type(
    parsed: &ParsedFile,
    ctx: &FileContext<'_>,
    call: &CallSite,
    recv: &str,
) -> Option<String> {
    let caller = &parsed.fns[call.caller];
    for p in &caller.params {
        if p.name == recv {
            let base = p.base_type();
            if !base.is_empty() && base.chars().next().is_some_and(char::is_uppercase) {
                return Some(base.to_string());
            }
            return None;
        }
    }
    // Scan the body up to the call for the most recent binding.
    let (open, close) = caller.body?;
    let mut found = None;
    let mut i = open + 1;
    while i < close.min(call.expr.0) {
        if ctx.sig_text(i) == "let" {
            let mut k = i + 1;
            if ctx.sig_text(k) == "mut" {
                k += 1;
            }
            // `let recv: Ty = …` names the type directly; `let recv =
            // Ty::…` names it as the path head. Either way the type
            // token sits two past the binding name.
            if ctx.sig_text(k) == recv
                && (ctx.sig_text(k + 1) == ":"
                    || (ctx.sig_text(k + 1) == "=" && ctx.sig_text(k + 3) == "::"))
            {
                let ty = ctx.sig_text(k + 2);
                if ty.chars().next().is_some_and(char::is_uppercase) {
                    found = Some(ty.to_string());
                }
            }
        }
        i += 1;
    }
    found
}

/// Panicking constructs the reachability pass treats as sinks: the
/// panicking macro family plus `.unwrap()` / `.expect(…)`. The
/// `assert!` family is deliberately excluded — assertions state
/// invariants and would drown the signal. Test-region lines are
/// skipped.
fn scan_panic_sites(ctx: &FileContext<'_>, open: usize, close: usize) -> Vec<Site> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = ctx.sig_text(i);
        let offset = ctx.sig_token(i).map_or(0, |t| t.start);
        let line = ctx.line_of(offset);
        if ctx.is_test_line(line) {
            i += 1;
            continue;
        }
        if matches!(t, "panic" | "unreachable" | "todo" | "unimplemented")
            && ctx.sig_text(i + 1) == "!"
        {
            out.push(Site {
                line,
                what: format!("`{t}!`"),
            });
            i += 2;
            continue;
        }
        if t == "." && matches!(ctx.sig_text(i + 1), "unwrap" | "expect") {
            let m = ctx.sig_text(i + 1);
            if ctx.sig_text(i + 2) == "(" {
                out.push(Site {
                    line,
                    what: format!("`.{m}(…)`"),
                });
                i += 3;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Nondeterminism sources for the taint pass: wall-clock reads, RNGs,
/// and unordered collections (whose iteration order varies run to
/// run). Test-region lines are skipped.
fn scan_nondet_sites(ctx: &FileContext<'_>, open: usize, close: usize) -> Vec<Site> {
    let mut out = Vec::new();
    let mut i = open + 1;
    while i < close {
        let t = ctx.sig_text(i);
        let offset = ctx.sig_token(i).map_or(0, |t| t.start);
        let line = ctx.line_of(offset);
        if ctx.is_test_line(line) {
            i += 1;
            continue;
        }
        let what = match t {
            "SystemTime" => Some("`SystemTime` wall-clock read".to_string()),
            "Instant" if ctx.matches_seq(i + 1, &["::", "now"]) => {
                Some("`Instant::now()` timing read".to_string())
            }
            "thread_rng" | "random" if ctx.sig_text(i + 1) == "(" => Some(format!("`{t}()` RNG")),
            "HashMap" | "HashSet" => Some(format!("unordered `{t}` iteration order")),
            _ => None,
        };
        if let Some(what) = what {
            out.push(Site { line, what });
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    struct Files {
        data: Vec<(String, String)>,
    }

    impl Files {
        fn graph(&self) -> CallGraph {
            let ctxs: Vec<FileContext<'_>> = self
                .data
                .iter()
                .map(|(p, s)| FileContext::new(p, s))
                .collect();
            let parsed: Vec<ParsedFile> = ctxs.iter().map(parse).collect();
            let mut index = SymbolIndex::with_builtin_units();
            for p in &parsed {
                index.add_parsed(p);
            }
            let inputs: Vec<(&FileContext<'_>, &ParsedFile)> =
                ctxs.iter().zip(parsed.iter()).collect();
            CallGraph::build(&inputs, &index)
        }
    }

    fn files(data: &[(&str, &str)]) -> Files {
        Files {
            data: data
                .iter()
                .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
                .collect(),
        }
    }

    #[test]
    fn bare_call_resolves_in_same_module() {
        let g = files(&[(
            "crates/core/src/a.rs",
            "fn helper() { panic!(\"boom\"); }\npub fn entry() { helper(); }\n",
        )])
        .graph();
        assert_eq!(g.fns.len(), 2);
        let entry = g.fns.iter().position(|f| f.name == "entry").unwrap();
        let helper = g.fns.iter().position(|f| f.name == "helper").unwrap();
        assert_eq!(
            g.edges[entry],
            vec![Edge {
                to: helper,
                line: 2,
                in_test: false
            }]
        );
        assert_eq!(g.fns[helper].panic_sites.len(), 1);
    }

    #[test]
    fn cross_crate_call_resolves_through_use() {
        let g = files(&[
            (
                "crates/battery/src/pack.rs",
                "pub fn drain() { loop { break; } }\n",
            ),
            (
                "crates/fleet/src/router.rs",
                "use ins_battery::pack::drain;\npub fn route() { drain(); }\n",
            ),
        ])
        .graph();
        let route = g.fns.iter().position(|f| f.name == "route").unwrap();
        let drain = g.fns.iter().position(|f| f.name == "drain").unwrap();
        assert_eq!(g.edges[route].len(), 1);
        assert_eq!(g.edges[route][0].to, drain);
    }

    #[test]
    fn ambiguous_bare_call_drops_the_edge() {
        let g = files(&[
            ("crates/core/src/a.rs", "pub fn init() {}\n"),
            ("crates/sim/src/b.rs", "pub fn init() {}\n"),
            ("crates/fleet/src/c.rs", "pub fn go() { init(); }\n"),
        ])
        .graph();
        let go = g.fns.iter().position(|f| f.name == "go").unwrap();
        assert!(g.edges[go].is_empty(), "two candidates, no edge");
    }

    #[test]
    fn method_call_resolves_via_typed_param() {
        let g = files(&[
            (
                "crates/battery/src/pack.rs",
                "pub struct Pack;\nimpl Pack {\n    pub fn step(&self) { todo!() }\n}\n",
            ),
            (
                "crates/sim/src/run.rs",
                "use ins_battery::pack::Pack;\npub fn tick(p: &Pack) { p.step(); }\n",
            ),
        ])
        .graph();
        let tick = g.fns.iter().position(|f| f.name == "tick").unwrap();
        let step = g.fns.iter().position(|f| f.name == "step").unwrap();
        assert_eq!(g.edges[tick].len(), 1);
        assert_eq!(g.edges[tick][0].to, step);
    }

    #[test]
    fn self_method_call_resolves_to_sibling() {
        let g = files(&[(
            "crates/core/src/a.rs",
            "struct S;\nimpl S {\n    fn inner(&self) {}\n    \
             pub fn outer(&self) { self.inner(); }\n}\n",
        )])
        .graph();
        let outer = g.fns.iter().position(|f| f.name == "outer").unwrap();
        assert_eq!(g.edges[outer].len(), 1);
    }

    #[test]
    fn adjacency_is_input_order_independent() {
        let a = (
            "crates/core/src/a.rs",
            "pub fn f() { g(); }\npub fn g() {}\n",
        );
        let b = ("crates/sim/src/b.rs", "pub fn h() { f(); }\n");
        let c = (
            "crates/fleet/src/c.rs",
            "use ins_core::a::g;\npub fn k() { g(); }\n",
        );
        let fwd = files(&[a, b, c]).graph().render();
        let rev = files(&[c, b, a]).graph().render();
        let mid = files(&[b, c, a]).graph().render();
        assert_eq!(fwd, rev);
        assert_eq!(fwd, mid);
        assert!(!fwd.is_empty());
    }

    #[test]
    fn test_code_calls_are_flagged() {
        let g = files(&[(
            "crates/core/src/a.rs",
            "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
             fn t() { super::prod(); }\n}\n",
        )])
        .graph();
        let t = g.fns.iter().position(|f| f.name == "t").unwrap();
        assert!(g.fns[t].is_test);
        assert!(g.edges[t].iter().all(|e| e.in_test));
    }
}
