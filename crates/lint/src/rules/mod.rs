//! The rules: every token-level lint is a `check_*` function over one
//! file's token stream (plus the workspace [`SymbolIndex`]), taking a
//! [`RuleCtx`]; interprocedural lints are `check_*` functions in
//! [`graph`] over the whole-workspace call graph, taking a
//! [`graph::GraphCtx`]. Adding a rule means adding a variant to
//! [`crate::Rule`], its function, and one call in [`crate::engine`] (in
//! rule-id order) — the engine handles suppression filtering,
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

/// Everything a token rule can look at while scanning one file.
pub struct RuleCtx<'a> {
    /// The file under analysis.
    pub file: &'a FileContext<'a>,
    /// The workspace symbol index.
    pub index: &'a SymbolIndex,
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
