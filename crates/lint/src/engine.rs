//! The analysis engine: file collection, the token- and graph-pass
//! pipeline, and the suppression/L010 protocol.
//!
//! Every run reads, parses and analyzes the whole linted set:
//!
//! 1. read all files, lex/parse everything (parsing is cheap and the
//!    call graph needs the whole workspace), and fold every file into
//!    the symbol index — the token rules read its workspace unit
//!    catalog, so a file's findings can change when another file does;
//! 2. build the call graph and run the graph passes;
//! 3. per file, run the token passes, merge in the file's graph
//!    findings, apply the suppression protocol (markers that excuse
//!    nothing or name no rule become L010 findings), sort.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::context::FileContext;
use crate::index::SymbolIndex;
use crate::parser::{parse, ParsedFile};
use crate::rules::graph::{graph_passes, GraphCtx};
use crate::rules::{passes, RuleCtx};
use crate::{Finding, Rule};

/// Applies the suppression protocol to one file's raw findings:
///
/// 1. a marker on line *n* suppresses matching findings on lines *n*
///    and *n + 1*, and is recorded as *used*;
/// 2. every `allow(Lxxx)` entry that suppressed nothing, or names no
///    rule, becomes an L010 finding at the marker's line — L010 itself
///    cannot be suppressed;
/// 3. findings are sorted by (line, rule id).
fn apply_suppressions(file: &FileContext<'_>, mut findings: Vec<Finding>) -> Vec<Finding> {
    let mut used: Vec<Vec<bool>> = file
        .suppressions
        .iter()
        .map(|s| vec![false; s.rules.len()])
        .collect();
    findings.retain(|f| {
        let mut suppressed = false;
        for (si, s) in file.suppressions.iter().enumerate() {
            if f.line != s.line && f.line != s.line + 1 {
                continue;
            }
            for (ri, r) in s.rules.iter().enumerate() {
                if *r == f.rule {
                    used[si][ri] = true;
                    suppressed = true;
                }
            }
        }
        !suppressed
    });
    for (si, s) in file.suppressions.iter().enumerate() {
        for (ri, r) in s.rules.iter().enumerate() {
            if !used[si][ri] {
                findings.push(Finding::new(
                    file.path.clone(),
                    s.line,
                    Rule::StaleSuppression,
                    format!(
                        "`allow({})` no longer matches any finding on this or the next \
                         line; remove the marker",
                        r.id()
                    ),
                ));
            }
        }
        for id in &s.unknown {
            findings.push(Finding::new(
                file.path.clone(),
                s.line,
                Rule::StaleSuppression,
                format!("`allow({id})` names no rule; fix the id or remove the marker"),
            ));
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule.id()));
    findings
}

/// Runs the token passes over one file, returning raw findings.
fn run_token_passes(file: &FileContext<'_>, index: &SymbolIndex) -> Vec<Finding> {
    let ctx = RuleCtx { file, index };
    let mut findings = Vec::new();
    for pass in passes() {
        pass.run(&ctx, &mut findings);
    }
    findings
}

/// The full pipeline over in-memory sources: every file is read,
/// parsed and analyzed on every call.
///
/// This is the engine's real entry point; [`analyze_paths`] and
/// [`analyze_source`] are thin adapters over it. Public so harnesses
/// (golden fixtures, fuzzers) can drive multi-file analyses without
/// touching the filesystem.
pub fn analyze_sources(mut sources: Vec<(String, String)>) -> Vec<Finding> {
    sources.sort_by(|a, b| a.0.cmp(&b.0));
    let contexts: Vec<FileContext<'_>> = sources
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

    let graph = CallGraph::build(&inputs, &index);
    let gctx = GraphCtx {
        graph: &graph,
        files: &inputs,
    };
    let mut fresh = Vec::new();
    for pass in graph_passes() {
        pass.run(&gctx, &mut fresh);
    }
    // Graph findings are always anchored in the file that owns the
    // root (L011/L012) or the call site (L013).
    let mut graph_findings: Vec<Vec<Finding>> = vec![Vec::new(); contexts.len()];
    for f in fresh {
        if let Ok(i) = contexts.binary_search_by(|c| c.path.as_str().cmp(&f.path)) {
            graph_findings[i].push(f);
        }
    }

    // Token findings first, then graph findings: both sorts below are
    // stable, so ties on (path, line, rule) keep this order.
    let mut out = Vec::new();
    for (ctx, graph_found) in contexts.iter().zip(graph_findings) {
        let mut merged = run_token_passes(ctx, &index);
        merged.extend(graph_found);
        out.extend(apply_suppressions(ctx, merged));
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule.id()).cmp(&(&b.path, b.line, b.rule.id())));
    out
}

/// Analyzes one source text as if it lived at `path`, returning the
/// unsuppressed findings sorted by line. The graph passes run over the
/// single-file call graph, so fixtures exercise L011–L013 too.
///
/// Single-source analyses never see the units crate, so the symbol
/// index is seeded with the workspace's built-in quantity catalog
/// before folding in the file itself.
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> Vec<Finding> {
    analyze_sources(vec![(path.to_string(), src.to_string())])
}

/// Recursively collects `.rs` files under each path (files pass
/// through), sorted and deduplicated: a file reached through two roots
/// (`crates crates/core`, or `./crates crates` once the leading `./`
/// is dropped) is analyzed once.
///
/// # Errors
///
/// Propagates filesystem errors from directory walks.
pub fn collect_rust_files(roots: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            let name = entry.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if entry.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                walk(&entry, out)?;
            } else if name.ends_with(".rs") {
                out.push(entry);
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    for root in roots {
        if root.is_dir() {
            walk(root, &mut files)?;
        } else if root.extension().is_some_and(|e| e == "rs") {
            files.push(root.clone());
        }
    }
    let mut files: Vec<PathBuf> = files
        .into_iter()
        .map(|f| f.strip_prefix(".").map(Path::to_path_buf).unwrap_or(f))
        .collect();
    files.sort();
    files.dedup();
    Ok(files)
}

fn read_sources(roots: &[PathBuf]) -> io::Result<Vec<(String, String)>> {
    let mut sources = Vec::new();
    for file in collect_rust_files(roots)? {
        let src = fs::read_to_string(&file)?;
        sources.push((file.to_string_lossy().into_owned(), src));
    }
    Ok(sources)
}

/// Analyzes every `.rs` file under the given roots: token passes per
/// file against the cross-file symbol index, then the interprocedural
/// passes over the workspace call graph. Output order is fully
/// deterministic: files sorted by path, findings by (path, line, rule
/// id).
///
/// # Errors
///
/// Propagates filesystem errors (unreadable file or directory).
pub fn analyze_paths(roots: &[PathBuf]) -> io::Result<Vec<Finding>> {
    Ok(analyze_sources(read_sources(roots)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT_CALLS_PANIC: &str = "fn helper() { panic!(\"boom\"); }\n\
                                    pub fn entry() { helper(); }\n";

    #[test]
    fn inline_allow_suppresses_a_graph_finding() {
        let path = "crates/battery/src/pack.rs";
        let bare = analyze_source(path, ROOT_CALLS_PANIC);
        assert!(
            bare.iter()
                .any(|f| f.rule == Rule::TransitivePanic && f.line == 2),
            "without a marker the root's L011 is reported: {bare:?}"
        );
        let allowed = ROOT_CALLS_PANIC.replace(
            "pub fn entry",
            "// ins-lint: allow(L011) -- known, tracked in #42\npub fn entry",
        );
        let findings = analyze_source(path, &allowed);
        assert!(
            !findings.iter().any(|f| f.rule == Rule::TransitivePanic),
            "the marker suppresses the graph-pass finding: {findings:?}"
        );
        assert!(
            !findings.iter().any(|f| f.rule == Rule::StaleSuppression),
            "the marker is used, not stale: {findings:?}"
        );
    }
}
