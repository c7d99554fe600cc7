//! Units rules: L001 (untyped quantity parameters in public physics
//! signatures) and L008 (unit flow: raw values crossing dimension
//! boundaries, truncating casts off typed quantities).

use std::collections::BTreeMap;

use crate::index::Dimension;
use crate::rules::RuleCtx;
use crate::{Finding, Rule};

/// Whether `name` reads like a physical quantity that should be typed.
pub(crate) fn quantity_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    const EXACT: [&str; 5] = ["power", "energy", "current", "soc", "voltage"];
    const SUFFIX: [&str; 9] = [
        "_w", "_wh", "_a", "_v", "_soc", "_power", "_energy", "_current", "_voltage",
    ];
    EXACT.contains(&n.as_str()) || SUFFIX.iter().any(|s| n.ends_with(s))
}

/// L001: `pub fn` parameters typed `f64` but named like quantities, in
/// physics crates.
pub fn check_untyped_quantity(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_physics() || ctx.file.in_tests_dir {
        return;
    }
    let f = ctx.file;
    for i in 0..f.sig.len() {
        // `pub fn`, allowing `const`/`unsafe`/`async` qualifiers and
        // skipping restricted visibility (`pub(crate)` is not public).
        if f.sig_text(i) != "pub" || f.sig_text(i + 1) == "(" {
            continue;
        }
        let mut j = i + 1;
        while matches!(f.sig_text(j), "const" | "unsafe" | "async" | "extern") {
            j += 1;
        }
        if f.sig_text(j) != "fn" {
            continue;
        }
        // Find the parameter list opener (skipping a generics clause).
        let mut open = j + 2;
        while open < f.sig.len() && f.sig_text(open) != "(" && f.sig_text(open) != "{" {
            open += 1;
        }
        if f.sig_text(open) != "(" {
            continue;
        }
        let Some(close) = f.find_matching(open) else {
            continue;
        };
        // Every `name: f64` at parameter depth.
        let mut depth = 0i64;
        for k in open..close {
            match f.sig_text(k) {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth -= 1,
                ":" if depth == 1 => {
                    let name = f.sig_text(k.wrapping_sub(1));
                    let is_f64 = f.sig_text(k + 1) == "f64";
                    if is_f64 && quantity_name(name) {
                        if let Some(tok) = f.sig_token(k - 1) {
                            let line = f.line_of(tok.start);
                            if !f.is_test_line(line) {
                                ctx.push(
                                    out,
                                    Rule::UntypedQuantity,
                                    tok.start,
                                    format!(
                                        "parameter `{name}: f64` in a public signature; {}",
                                        Rule::UntypedQuantity.description()
                                    ),
                                );
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// The canonical name of a unit type (folds aliases together so
/// `Amperes` and `Amps` compare equal).
fn canonical(name: &str) -> &str {
    if name == "Amperes" {
        "Amps"
    } else {
        name
    }
}

/// L008: unit flow in physics crates.
///
/// * A raw value extracted from one dimensioned newtype re-entering a
///   *differently*-dimensioned constructor (`Watts::new(dt.value() * …)`
///   with `dt: Hours`) — the type system was bypassed exactly where it
///   was supposed to help; use the typed cross-unit operators.
/// * Truncating `as` casts directly off a typed quantity
///   (`x.value() as u64`).
pub fn check_unit_flow(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.is_physics() || ctx.file.in_tests_dir {
        return;
    }
    // The units crate *defines* the dimension algebra: its operator
    // impls (`V × A = W`, …) are exactly the sanctioned conversions this
    // rule points everyone else at, so they are exempt by construction.
    if ctx.file.path.contains("crates/units") {
        return;
    }
    let f = ctx.file;
    let idx = ctx.index;

    // File-local unit bindings: `name: Unit` annotations (parameters,
    // lets, struct fields) and `let name = Unit::new(..)` initializers.
    let mut bindings: BTreeMap<&str, &str> = BTreeMap::new();
    for i in 0..f.sig.len() {
        let text = f.sig_text(i);
        if text == ":" && idx.is_unit_type(f.sig_text(i + 1)) {
            let name = f.sig_text(i.wrapping_sub(1));
            if !name.is_empty() && f.sig_text(i + 2) != "::" {
                bindings.insert(name, f.sig_text(i + 1));
            }
        }
        if text == "let" {
            let name = f.sig_text(i + 1);
            let (eq, ty) = (f.sig_text(i + 2), f.sig_text(i + 3));
            if eq == "=" && idx.is_unit_type(ty) && f.sig_text(i + 4) == "::" {
                bindings.insert(name, ty);
            }
        }
    }

    for i in 0..f.sig.len() {
        let Some(tok) = f.sig_token(i).copied() else {
            continue;
        };
        if f.is_test_line(f.line_of(tok.start)) {
            continue;
        }
        let text = f.sig_text(i);

        // Truncating cast off a typed quantity: `….value() as uNN`.
        if text == "value"
            && f.sig_text(i.wrapping_sub(1)) == "."
            && f.matches_seq(i + 1, &["(", ")", "as"])
        {
            let target = f.sig_text(i + 4);
            if target.starts_with('u') || target.starts_with('i') {
                ctx.push(
                    out,
                    Rule::UnitFlow,
                    tok.start,
                    format!(
                        "`.value() as {target}` truncates a typed quantity; convert \
                         explicitly (round/floor) and document the unit"
                    ),
                );
            }
        }

        // `Unit2::new( … name.value() … )` with `name` bound to Unit1.
        let is_ctor = idx.is_unit_type(text)
            && f.sig_text(i + 1) == "::"
            && {
                let m = f.sig_text(i + 2);
                m == "new" || m.starts_with("from_")
            }
            && f.sig_text(i + 3) == "(";
        if !is_ctor {
            continue;
        }
        if idx.unit_dimension(text) == Some(Dimension::Dimensionless) {
            // Ratios of raw values into a fraction are legitimate.
            continue;
        }
        let Some(close) = f.find_matching(i + 3) else {
            continue;
        };
        for k in (i + 4)..close {
            if !f.matches_seq(k + 1, &[".", "value", "(", ")"]) {
                continue;
            }
            let name = f.sig_text(k);
            // Skip field accesses (`x.field.value()`): the binding map
            // only speaks for plain locals and parameters.
            if f.sig_text(k.wrapping_sub(1)) == "." {
                continue;
            }
            let Some(&source) = bindings.get(name) else {
                continue;
            };
            if idx.unit_dimension(source) == Some(Dimension::Dimensionless) {
                continue;
            }
            if canonical(source) != canonical(text) {
                if let Some(name_tok) = f.sig_token(k) {
                    ctx.push(
                        out,
                        Rule::UnitFlow,
                        name_tok.start,
                        format!(
                            "raw `{name}.value()` ({source}) feeding `{text}::{}` crosses \
                             a dimension boundary; use the typed cross-unit operators",
                            f.sig_text(i + 2)
                        ),
                    );
                }
            }
        }
    }
}
