//! Interprocedural rules over the workspace call graph: L011
//! (transitive panic reachability), L012 (determinism taint) and L013
//! (cross-crate unit flow).
//!
//! All three only follow edges the resolver proved (see
//! [`crate::callgraph`]): they under-approximate, so a finding is a
//! real path, never a guess. Traversal is breadth-first over adjacency
//! lists that are already sorted, with first-visit-wins parent
//! tracking — the reported path is the *shortest* chain and identical
//! across runs and file-walk orders.

use std::collections::VecDeque;

use crate::callgraph::{CallGraph, FnNode};
use crate::context::FileContext;
use crate::parser::ParsedFile;
use crate::rules::units::quantity_name;
use crate::{Finding, Rule, TraceHop, CRITICAL_FILES, PANIC_SURFACE_DIRS, SERIALIZATION_ROOTS};

/// Everything a graph rule can look at.
pub struct GraphCtx<'a> {
    /// The workspace call graph.
    pub graph: &'a CallGraph,
    /// The analyzed files in the same path-sorted order the graph's
    /// file indices refer to.
    pub files: &'a [(&'a FileContext<'a>, &'a ParsedFile)],
}

/// Breadth-first search from `root` over non-test edges. Returns the
/// shortest path to the first node satisfying `is_target` at depth ≥ 1,
/// as a list of `(caller node, call line, callee node)` steps.
///
/// Determinism: adjacency lists are sorted by `(to, line)` and visited
/// in order with first-visit-wins parents, so ties break identically
/// on every run.
fn shortest_path_to(
    graph: &CallGraph,
    root: usize,
    is_target: impl Fn(&FnNode) -> bool,
) -> Option<Vec<(usize, usize, usize)>> {
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; graph.fns.len()];
    let mut seen = vec![false; graph.fns.len()];
    seen[root] = true;
    let mut queue = VecDeque::from([root]);
    while let Some(at) = queue.pop_front() {
        for e in &graph.edges[at] {
            if e.in_test || graph.fns[e.to].is_test || seen[e.to] {
                continue;
            }
            seen[e.to] = true;
            parent[e.to] = Some((at, e.line));
            if is_target(&graph.fns[e.to]) {
                let mut steps = Vec::new();
                let mut cur = e.to;
                while let Some((from, line)) = parent[cur] {
                    steps.push((from, line, cur));
                    cur = from;
                }
                steps.reverse();
                return Some(steps);
            }
            queue.push_back(e.to);
        }
    }
    None
}

/// Renders a path as trace hops: one `calls …` hop per edge plus a
/// final hop at the offending site.
fn path_to_trace(
    graph: &CallGraph,
    steps: &[(usize, usize, usize)],
    sink_line: usize,
    sink_note: String,
) -> Vec<TraceHop> {
    let mut trace: Vec<TraceHop> = steps
        .iter()
        .map(|&(from, line, to)| TraceHop {
            path: graph.fns[from].path.clone(),
            line,
            note: format!("calls `{}`", graph.fns[to].display_name()),
        })
        .collect();
    if let Some(&(_, _, sink)) = steps.last() {
        trace.push(TraceHop {
            path: graph.fns[sink].path.clone(),
            line: sink_line,
            note: sink_note,
        });
    }
    trace
}

/// L011: a panic-surface entry point (`pub fn` under the panic-surface
/// dirs, or *any* fn in a critical file) from which a panicking token
/// is reachable through ≥ 1 non-test call. Depth-0 panics are L002/
/// L009's business; a root whose doc comment declares `# Panics` has
/// documented the contract and is exempt.
pub fn check_transitive_panic(ctx: &GraphCtx<'_>, out: &mut Vec<Finding>) {
    for (id, node) in ctx.graph.fns.iter().enumerate() {
        if !is_panic_root(node) {
            continue;
        }
        let Some(steps) = shortest_path_to(ctx.graph, id, |n| !n.panic_sites.is_empty()) else {
            continue;
        };
        let sink = steps.last().map(|&(_, _, s)| s).unwrap_or(id);
        let site = &ctx.graph.fns[sink].panic_sites[0];
        let mut finding = Finding::new(
            node.path.clone(),
            node.line,
            Rule::TransitivePanic,
            format!(
                "`{}` can reach a panic: {} in `{}` ({} call{} away)",
                node.display_name(),
                site.what,
                ctx.graph.fns[sink].display_name(),
                steps.len(),
                if steps.len() == 1 { "" } else { "s" },
            ),
        );
        finding.trace = path_to_trace(
            ctx.graph,
            &steps,
            site.line,
            format!("panics: {}", site.what),
        );
        out.push(finding);
    }
}

fn is_panic_root(node: &FnNode) -> bool {
    if node.is_test || node.doc_panics {
        return false;
    }
    CRITICAL_FILES.iter().any(|f| node.path.ends_with(f))
        || (node.is_pub && PANIC_SURFACE_DIRS.iter().any(|d| node.path.contains(d)))
}

/// L012: a serialization/telemetry root (a `pub fn` whose name carries
/// a serialization fragment) transitively reaching a nondeterminism
/// source through ≥ 1 non-test call. Depth-0 sources are L003/L007's
/// business.
pub fn check_determinism_taint(ctx: &GraphCtx<'_>, out: &mut Vec<Finding>) {
    for (id, node) in ctx.graph.fns.iter().enumerate() {
        if node.is_test || !node.is_pub {
            continue;
        }
        let lname = node.name.to_ascii_lowercase();
        if !SERIALIZATION_ROOTS.iter().any(|frag| lname.contains(frag)) {
            continue;
        }
        let Some(steps) = shortest_path_to(ctx.graph, id, |n| !n.nondet_sites.is_empty()) else {
            continue;
        };
        let sink = steps.last().map(|&(_, _, s)| s).unwrap_or(id);
        let site = &ctx.graph.fns[sink].nondet_sites[0];
        let mut finding = Finding::new(
            node.path.clone(),
            node.line,
            Rule::DeterminismTaint,
            format!(
                "serialization root `{}` transitively reaches {} in `{}`",
                node.display_name(),
                site.what,
                ctx.graph.fns[sink].display_name(),
            ),
        );
        finding.trace = path_to_trace(
            ctx.graph,
            &steps,
            site.line,
            format!("nondeterministic: {}", site.what),
        );
        out.push(finding);
    }
}

/// L013: a raw `f64` produced by a fn in one crate flowing directly
/// into a quantity-named `f64` parameter of a fn in *another* crate —
/// the dimension is carried by convention alone across the boundary.
pub fn check_cross_unit_flow(ctx: &GraphCtx<'_>, out: &mut Vec<Finding>) {
    // Resolved callee by (file, call-site index), for matching an
    // argument range to the nested call that fills it.
    let mut callee_of = std::collections::BTreeMap::new();
    for rc in &ctx.graph.resolved {
        callee_of.insert((rc.file, rc.call), rc.to);
    }
    for rc in &ctx.graph.resolved {
        let (file_ctx, parsed) = ctx.files[rc.file];
        let call = &parsed.calls[rc.call];
        if call.in_test {
            continue;
        }
        let consumer = &ctx.graph.fns[rc.to];
        // Map argument positions onto parameters, skipping a `self`
        // receiver that is not part of the argument list.
        let skip = usize::from(
            consumer.params.first().is_some_and(|p| p.name == "self") && call.is_method,
        );
        for (k, arg) in call.args.iter().enumerate() {
            let Some(param) = consumer.params.get(k + skip) else {
                break;
            };
            if param.base_type() != "f64" || !quantity_name(&param.name) {
                continue;
            }
            // The argument must be exactly one nested resolved call.
            let Some(inner) = parsed
                .calls
                .iter()
                .enumerate()
                .find(|(_, c)| c.caller == call.caller && c.expr == (arg.0, arg.1 - 1))
            else {
                continue;
            };
            let Some(&producer_id) = callee_of.get(&(rc.file, inner.0)) else {
                continue;
            };
            let producer = &ctx.graph.fns[producer_id];
            if producer.ret.as_deref() != Some("f64")
                || producer.crate_name() == consumer.crate_name()
            {
                continue;
            }
            let line = file_ctx.line_of(file_ctx.sig_token(arg.0).map_or(0, |t| t.start));
            let mut finding = Finding::new(
                parsed.path.clone(),
                line,
                Rule::CrossUnitFlow,
                format!(
                    "raw f64 from `{}` flows into quantity parameter `{}` of `{}` \
                     across the {}→{} crate boundary",
                    producer.display_name(),
                    param.name,
                    consumer.display_name(),
                    producer.crate_name(),
                    consumer.crate_name(),
                ),
            );
            finding.trace = vec![
                TraceHop {
                    path: producer.path.clone(),
                    line: producer.line,
                    note: format!("`{}` returns raw `f64`", producer.display_name()),
                },
                TraceHop {
                    path: parsed.path.clone(),
                    line,
                    note: format!("result passed as `{}`", param.name),
                },
                TraceHop {
                    path: consumer.path.clone(),
                    line: consumer.line,
                    note: format!(
                        "`{}` expects a dimensioned `{}`",
                        consumer.display_name(),
                        param.name
                    ),
                },
            ];
            out.push(finding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run_graph(data: &[(&str, &str)], rule: Rule) -> Vec<Finding> {
        let owned: Vec<(String, String)> = data
            .iter()
            .map(|(p, s)| ((*p).to_string(), (*s).to_string()))
            .collect();
        let mut sorted: Vec<&(String, String)> = owned.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        let ctxs: Vec<FileContext<'_>> =
            sorted.iter().map(|(p, s)| FileContext::new(p, s)).collect();
        let parsed: Vec<ParsedFile> = ctxs.iter().map(parse).collect();
        let mut index = crate::index::SymbolIndex::with_builtin_units();
        for p in &parsed {
            index.add_parsed(p);
        }
        let inputs: Vec<(&FileContext<'_>, &ParsedFile)> = ctxs.iter().zip(parsed.iter()).collect();
        let graph = CallGraph::build(&inputs, &index);
        let ctx = GraphCtx {
            graph: &graph,
            files: &inputs,
        };
        let mut out = Vec::new();
        check_transitive_panic(&ctx, &mut out);
        check_determinism_taint(&ctx, &mut out);
        check_cross_unit_flow(&ctx, &mut out);
        out.retain(|f| f.rule == rule);
        out
    }

    #[test]
    fn l011_reports_two_hop_panic_path() {
        let findings = run_graph(
            &[(
                "crates/battery/src/pack.rs",
                "fn deep() { panic!(\"boom\"); }\n\
                 fn mid() { deep(); }\n\
                 pub fn entry() { mid(); }\n",
            )],
            Rule::TransitivePanic,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.line, 3);
        assert!(f.message.contains("2 calls away"), "{}", f.message);
        assert_eq!(f.trace.len(), 3, "two call hops plus the sink");
        assert!(f.trace[2].note.contains("panic"), "{:?}", f.trace);
    }

    #[test]
    fn l011_skips_depth_zero_and_documented_roots() {
        let findings = run_graph(
            &[(
                "crates/battery/src/pack.rs",
                "pub fn direct() { panic!(\"local, L009's job\"); }\n\
                 fn helper() { panic!(\"boom\"); }\n\
                 /// # Panics\n\
                 /// When helper panics.\n\
                 pub fn documented() { helper(); }\n",
            )],
            Rule::TransitivePanic,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l011_ignores_paths_through_test_code() {
        let findings = run_graph(
            &[(
                "crates/fleet/src/router.rs",
                "fn helper() { panic!(\"boom\"); }\n\
                 pub fn route() {}\n\
                 #[cfg(test)]\n\
                 mod tests {\n\
                     #[test]\n\
                     fn t() { super::helper(); }\n\
                 }\n",
            )],
            Rule::TransitivePanic,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn l011_covers_every_fn_in_critical_files() {
        let findings = run_graph(
            &[(
                "crates/service/src/safe_mode.rs",
                "fn helper() { todo!() }\n\
                 fn private_entry() { helper(); }\n",
            )],
            Rule::TransitivePanic,
        );
        assert_eq!(findings.len(), 1, "non-pub root in critical file counts");
        assert!(findings[0].message.contains("private_entry"));
    }

    #[test]
    fn l012_taints_serialization_roots() {
        let findings = run_graph(
            &[(
                "crates/sim/src/telemetry.rs",
                "use std::collections::HashMap;\n\
                 fn gather() -> usize { let m: HashMap<u32, u32> = HashMap::new(); m.len() }\n\
                 pub fn write_json() { gather(); }\n\
                 pub fn step() { gather(); }\n",
            )],
            Rule::DeterminismTaint,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("write_json"));
        assert!(findings[0].message.contains("HashMap"));
    }

    #[test]
    fn l013_flags_cross_crate_raw_f64_into_quantity_param() {
        let findings = run_graph(
            &[
                (
                    "crates/solar/src/panel.rs",
                    "pub fn output_estimate() -> f64 { 0.0 }\n",
                ),
                (
                    "crates/battery/src/pack.rs",
                    "pub struct Pack;\n\
                     impl Pack {\n\
                         pub fn charge(&mut self, power: f64) { let _ = power; }\n\
                     }\n",
                ),
                (
                    "crates/sim/src/run.rs",
                    "use ins_battery::pack::Pack;\n\
                     use ins_solar::panel::output_estimate;\n\
                     pub fn tick(p: &mut Pack) {\n\
                         p.charge(output_estimate());\n\
                     }\n",
                ),
            ],
            Rule::CrossUnitFlow,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert!(f.message.contains("output_estimate"), "{}", f.message);
        assert!(f.message.contains("solar→battery"), "{}", f.message);
        assert_eq!(f.trace.len(), 3);
    }

    #[test]
    fn l013_is_quiet_within_one_crate() {
        let findings = run_graph(
            &[(
                "crates/battery/src/pack.rs",
                "pub fn raw() -> f64 { 0.0 }\n\
                 pub fn set(power: f64) { let _ = power; }\n\
                 pub fn wire() { set(raw()); }\n",
            )],
            Rule::CrossUnitFlow,
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
