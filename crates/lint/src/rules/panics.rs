//! Panic-related rules: L002 (`unwrap`/`expect` in production) and
//! L009 (panic surface in physics/fleet code).

use crate::rules::{is_keyword, RuleCtx};
use crate::{Finding, Rule};

/// L002: `.unwrap()` / `.expect(` outside test code.
pub fn check_unwrap(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    for i in 0..f.sig.len() {
        if f.sig_text(i) != "." {
            continue;
        }
        let (token, ok) = match f.sig_text(i + 1) {
            "unwrap" if f.matches_seq(i + 2, &["(", ")"]) => (".unwrap()", true),
            "expect" if f.sig_text(i + 2) == "(" => (".expect(", true),
            _ => ("", false),
        };
        if !ok {
            continue;
        }
        let Some(tok) = f.sig_token(i + 1) else {
            continue;
        };
        if f.is_test_line(f.line_of(tok.start)) {
            continue;
        }
        ctx.push(
            out,
            Rule::UnwrapInProduction,
            tok.start,
            format!("`{token}` — {}", Rule::UnwrapInProduction.description()),
        );
    }
}

const NARROW_INT: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// L009: panic surface in production physics/fleet code — explicit
/// panicking macros, index expressions with arithmetic (the classic
/// off-by-one / underflow panic), and truncating narrow-int `as` casts.
pub fn check_panic_surface(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_panic_surface() || ctx.file.in_tests_dir {
        return;
    }
    let f = ctx.file;
    for i in 0..f.sig.len() {
        let Some(tok) = f.sig_token(i).copied() else {
            continue;
        };
        if f.is_test_line(f.line_of(tok.start)) {
            continue;
        }
        let text = f.sig_text(i);
        // Explicit panicking macros.
        if matches!(text, "unreachable" | "todo" | "unimplemented") && f.sig_text(i + 1) == "!" {
            ctx.push(
                out,
                Rule::PanicSurface,
                tok.start,
                format!("`{text}!` — {}", Rule::PanicSurface.description()),
            );
            continue;
        }
        // Index expressions containing `+`/`-` arithmetic: `v[i - 1]`
        // panics on underflow before bounds checking can help.
        if text == "[" && i > 0 {
            let prev = f.sig_text(i - 1);
            let is_index = !is_keyword(prev)
                && (prev == ")"
                    || prev == "]"
                    || prev
                        .bytes()
                        .next()
                        .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_'));
            if is_index {
                if let Some(close) = f.find_matching(i) {
                    let arithmetic = (i + 1..close).any(|k| matches!(f.sig_text(k), "+" | "-"));
                    if arithmetic {
                        ctx.push(
                            out,
                            Rule::PanicSurface,
                            tok.start,
                            "index expression with `+`/`-` arithmetic can panic on \
                             out-of-bounds or underflow; use `get`/`checked_sub` or \
                             restructure"
                                .to_string(),
                        );
                    }
                }
            }
        }
        // Narrow-int casts silently truncate counts and saturate floats.
        if text == "as" && NARROW_INT.contains(&f.sig_text(i + 1)) {
            // `as u32` immediately inside a cfg/attribute is impossible
            // (attributes carry no casts), so no extra gating needed.
            ctx.push(
                out,
                Rule::PanicSurface,
                tok.start,
                format!(
                    "`as {}` narrowing cast truncates silently; use `try_from` or a \
                     wider type",
                    f.sig_text(i + 1)
                ),
            );
        }
    }
}
