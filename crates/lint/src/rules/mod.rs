//! The rule framework: every token-level lint is a [`Pass`] over one
//! file's token stream (plus the workspace [`SymbolIndex`]),
//! registered in [`passes`]; interprocedural lints are
//! [`graph::GraphPass`]es over the whole-workspace call graph,
//! registered in [`graph::graph_passes`]. Adding a rule means adding a
//! variant to [`Rule`], a unit struct implementing the right trait,
//! and one registry entry — the engine handles suppression filtering,
//! test-region exemption bookkeeping, ordering and output formats.

pub mod determinism;
pub mod graph;
pub mod hygiene;
pub mod panics;
pub mod parallel;
pub mod units;

use crate::context::FileContext;
use crate::index::SymbolIndex;
use crate::{Finding, Rule, PANIC_SURFACE_DIRS, PHYSICS_DIRS, POOL_FILES};

/// Everything a pass can look at while scanning one file.
pub struct RuleCtx<'a> {
    /// The file under analysis.
    pub file: &'a FileContext<'a>,
    /// The workspace symbol index.
    pub index: &'a SymbolIndex,
}

/// One token-level rule pass. Implementations are stateless unit
/// structs; each run sees a single file.
pub trait Pass {
    /// The rule this pass enforces.
    fn rule(&self) -> Rule;
    /// Scans `ctx` and appends findings to `out`.
    fn run(&self, ctx: &RuleCtx<'_>, out: &mut Vec<Finding>);
}

/// The token-pass registry, in rule-id order. L010 (stale suppressions)
/// is not a pass — the engine derives it from the other rules'
/// findings. L011–L013 live in [`graph::graph_passes`].
#[must_use]
pub fn passes() -> &'static [&'static dyn Pass] {
    const PASSES: &[&dyn Pass] = &[
        &units::UntypedQuantity,
        &panics::UnwrapInProduction,
        &determinism::Nondeterminism,
        &determinism::FloatEquality,
        &hygiene::UntrackedTodo,
        &parallel::ParallelSafety,
        &determinism::OrderingDeterminism,
        &units::UnitFlow,
        &panics::PanicSurface,
    ];
    PASSES
}

impl RuleCtx<'_> {
    /// Whether this file belongs to a physics crate (L001/L008 scope).
    #[must_use]
    pub fn is_physics(&self) -> bool {
        PHYSICS_DIRS.iter().any(|d| self.file.path.contains(d))
    }

    /// Whether this file is in the panic-surface scope (L009).
    #[must_use]
    pub fn is_panic_surface(&self) -> bool {
        PANIC_SURFACE_DIRS
            .iter()
            .any(|d| self.file.path.contains(d))
    }

    /// Whether this file is the worker-pool implementation, exempt from
    /// the parallel-safety rule (it is the one sanctioned owner of
    /// threads and atomics).
    #[must_use]
    pub fn is_pool_file(&self) -> bool {
        POOL_FILES.iter().any(|f| self.file.path.ends_with(f))
    }

    /// Emits a finding anchored at byte `offset`.
    pub fn push(&self, out: &mut Vec<Finding>, rule: Rule, offset: usize, message: String) {
        out.push(Finding::new(
            self.file.path.clone(),
            self.file.line_of(offset),
            rule,
            message,
        ));
    }
}

/// For an opening bracket at significant index `open` (`(`, `[` or `{`),
/// returns the significant index of its matching close.
#[must_use]
pub fn find_matching(ctx: &FileContext<'_>, open: usize) -> Option<usize> {
    let (o, c) = match ctx.sig_text(open) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return None,
    };
    let mut depth = 0i64;
    let mut j = open;
    while let Some(t) = ctx.sig_token(j) {
        let text = ctx.text(t);
        if text == o {
            depth += 1;
        } else if text == c {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Rust keywords that can directly precede a `[` without it being an
/// index expression (array literals, returns, match arms, …).
#[must_use]
pub fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "as" | "async"
            | "await"
            | "box"
            | "break"
            | "const"
            | "continue"
            | "dyn"
            | "else"
            | "enum"
            | "fn"
            | "for"
            | "if"
            | "impl"
            | "in"
            | "let"
            | "loop"
            | "match"
            | "mod"
            | "move"
            | "mut"
            | "pub"
            | "ref"
            | "return"
            | "static"
            | "struct"
            | "trait"
            | "type"
            | "unsafe"
            | "use"
            | "where"
            | "while"
            | "yield"
    )
}
