//! Determinism rules: L003 (wall clock / OS randomness), L004 (exact
//! float comparison) and L007 (ordering determinism: NaN-unsafe
//! comparators and unordered collections feeding serialized output).

use crate::lexer::TokenKind;
use crate::rules::RuleCtx;
use crate::{Finding, Rule};

/// L003: nondeterministic sources anywhere in simulation code (tests
/// included — a nondeterministic test cannot pin a deterministic
/// contract).
pub fn check_nondeterminism(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    for i in 0..f.sig.len() {
        let text = f.sig_text(i);
        let hit = match text {
            "SystemTime" | "thread_rng" => Some(text.to_string()),
            "Instant" if f.matches_seq(i + 1, &["::", "now"]) => Some("Instant::now".to_string()),
            _ => None,
        };
        if let (Some(token), Some(tok)) = (hit, f.sig_token(i)) {
            ctx.push(
                out,
                Rule::Nondeterminism,
                tok.start,
                format!("`{token}` — {}", Rule::Nondeterminism.description()),
            );
        }
    }
}

/// L004: `==` / `!=` against a float literal on non-test lines.
pub fn check_float_eq(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    let mut last_line = 0usize;
    for i in 0..f.sig.len() {
        if !matches!(f.sig_text(i), "==" | "!=") {
            continue;
        }
        let Some(op) = f.sig_token(i).copied() else {
            continue;
        };
        let line = f.line_of(op.start);
        if line == last_line || f.is_test_line(line) {
            continue;
        }
        let left_float = f
            .sig_token(i.wrapping_sub(1))
            .is_some_and(|t| t.kind == TokenKind::Float);
        let right_float = match f.sig_token(i + 1) {
            Some(t) if t.kind == TokenKind::Float => true,
            // A negated literal: `x == -1.5`.
            Some(t) if f.text(t) == "-" => f
                .sig_token(i + 2)
                .is_some_and(|t| t.kind == TokenKind::Float),
            _ => false,
        };
        if (left_float && i > 0) || right_float {
            ctx.push(
                out,
                Rule::FloatEquality,
                op.start,
                Rule::FloatEquality.description().to_string(),
            );
            last_line = line;
        }
    }
}

const NAN_MASKING: [&str; 4] = ["unwrap", "expect", "unwrap_or", "unwrap_or_else"];
const UNORDERED: [&str; 2] = ["HashMap", "HashSet"];

/// L007: ordering determinism in production code.
///
/// * `partial_cmp(..).unwrap()` / `.unwrap_or(..)` comparators either
///   panic on NaN or silently map it to an arbitrary rank, making sort
///   order input-dependent in exactly the cases that corrupt serialized
///   output — use `total_cmp` or `ins_units::total_order`.
/// * `HashMap` / `HashSet` iteration order is unspecified; anything
///   that flows into JSON/CSV must come from `Vec` or `BTreeMap`.
pub fn check_ordering(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    let mut last_unordered_line = 0usize;
    for i in 0..f.sig.len() {
        let Some(tok) = f.sig_token(i).copied() else {
            continue;
        };
        let line = f.line_of(tok.start);
        if f.is_test_line(line) {
            continue;
        }
        let text = f.sig_text(i);
        if text == "partial_cmp" && f.sig_text(i + 1) == "(" {
            if let Some(close) = f.find_matching(i + 1) {
                if f.sig_text(close + 1) == "." && NAN_MASKING.contains(&f.sig_text(close + 2)) {
                    ctx.push(
                        out,
                        Rule::OrderingDeterminism,
                        tok.start,
                        format!(
                            "`partial_cmp(..).{}(..)` comparator panics on or masks NaN; \
                             use `total_cmp` or `ins_units::total_order`",
                            f.sig_text(close + 2)
                        ),
                    );
                }
            }
        }
        if UNORDERED.contains(&text) && line != last_unordered_line {
            ctx.push(
                out,
                Rule::OrderingDeterminism,
                tok.start,
                format!(
                    "`{text}` iteration order is unspecified and leaks into anything \
                     serialized from it; use `Vec` or `BTreeMap`/`BTreeSet`"
                ),
            );
            last_unordered_line = line;
        }
    }
}
