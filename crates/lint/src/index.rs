//! A lightweight cross-file symbol index of the workspace.
//!
//! The index is deliberately shallow — no name resolution, no types —
//! but it gives the passes the two pieces of global knowledge the
//! token stream of a single file cannot provide:
//!
//! * the set of `ins-units` quantity newtypes (discovered from the
//!   `quantity!(...)` invocations and transparent structs in the units
//!   crate, so the linter tracks the real catalog instead of a
//!   hard-coded list), each tagged dimensioned or dimensionless;
//! * every file's `use` imports, which the call-graph resolver reads.
//!
//! When the linted path set does not include the units crate (single
//! files, unit-test fixtures), a built-in seed of the workspace's known
//! quantity types keeps the unit-flow rules meaningful.

use std::collections::BTreeMap;

use crate::context::FileContext;
use crate::parser::ParsedFile;

/// Whether a quantity newtype carries a physical dimension.
///
/// Dimensionless carriers (fractions such as `Soc`) may legitimately
/// scale any quantity, so the unit-flow rule exempts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimension {
    /// A physical dimension (power, energy, charge, …).
    Dimensioned,
    /// A bare fraction or ratio.
    Dimensionless,
}

/// The workspace-wide symbol index.
#[derive(Debug, Clone, Default)]
pub struct SymbolIndex {
    unit_types: BTreeMap<String, Dimension>,
    /// Per file: `use` imports as `(alias, full path segments)`, with
    /// `ins_*` lib names canonicalized to workspace crate names. The
    /// call-graph resolver consults this table.
    uses: BTreeMap<String, Vec<(String, Vec<String>)>>,
}

impl SymbolIndex {
    /// An index pre-seeded with the workspace's known quantity types,
    /// for analyses that never see the units crate source.
    #[must_use]
    pub fn with_builtin_units() -> Self {
        let mut idx = Self::default();
        for name in [
            "Watts",
            "Volts",
            "Amps",
            "Amperes",
            "AmpHours",
            "WattHours",
            "Ohms",
            "Hours",
        ] {
            idx.unit_types
                .insert(name.to_string(), Dimension::Dimensioned);
        }
        idx.unit_types
            .insert("Soc".to_string(), Dimension::Dimensionless);
        idx
    }

    /// Whether `name` is a known quantity newtype.
    #[must_use]
    pub fn is_unit_type(&self, name: &str) -> bool {
        self.unit_types.contains_key(name)
    }

    /// The dimension of a known quantity newtype.
    #[must_use]
    pub fn unit_dimension(&self, name: &str) -> Option<Dimension> {
        self.unit_types.get(name).copied()
    }

    /// Folds one file's quantity newtypes into the index; only files
    /// of the units crate define any.
    pub fn add_file(&mut self, ctx: &FileContext<'_>) {
        if ctx.path.contains("crates/units") {
            self.scan_unit_types(ctx);
        }
    }

    /// Folds one file's parse — currently its `use` imports — into the
    /// index. Path heads written as lib names (`ins_battery`) are
    /// canonicalized to the workspace crate names the parser derives
    /// from file paths (`battery`), so resolution compares like with
    /// like.
    pub fn add_parsed(&mut self, parsed: &ParsedFile) {
        let entry = self.uses.entry(parsed.path.clone()).or_default();
        for u in &parsed.uses {
            let path: Vec<String> = u
                .path
                .iter()
                .map(|s| canonical_head(s).to_string())
                .collect();
            entry.push((u.alias.clone(), path));
        }
    }

    /// The full path a `use` alias refers to in `file`, if imported.
    #[must_use]
    pub fn lookup_use(&self, file: &str, alias: &str) -> Option<&[String]> {
        self.uses
            .get(file)?
            .iter()
            .find(|(a, _)| a == alias)
            .map(|(_, p)| p.as_slice())
    }

    /// `quantity!(... Name, "unit")` invocations and transparent
    /// `pub struct Name(f64)` declarations in the units crate.
    fn scan_unit_types(&mut self, ctx: &FileContext<'_>) {
        let n = ctx.sig.len();
        for i in 0..n {
            if ctx.matches_seq(i, &["quantity", "!", "("]) {
                // The first identifier inside the invocation that is not
                // part of an attribute is the type name; attributes
                // (doc comments become `#[doc]`-free trivia here, so in
                // practice the first identifier is the name).
                let mut j = i + 3;
                while j < n {
                    let t = ctx.sig_text(j);
                    if t == ")" {
                        break;
                    }
                    if t == "#" {
                        // Skip an attribute inside the macro body.
                        if let Some(close) = skip_attribute(ctx, j) {
                            j = close + 1;
                            continue;
                        }
                    }
                    if is_type_name(t) {
                        self.unit_types
                            .entry(t.to_string())
                            .or_insert(Dimension::Dimensioned);
                        break;
                    }
                    j += 1;
                }
            }
            if ctx.matches_seq(i, &["pub", "struct"]) {
                let name = ctx.sig_text(i + 2);
                if is_type_name(name) && ctx.matches_seq(i + 3, &["(", "f64", ")"]) {
                    let dim = if name == "Soc" {
                        Dimension::Dimensionless
                    } else {
                        Dimension::Dimensioned
                    };
                    self.unit_types.insert(name.to_string(), dim);
                }
            }
        }
    }
}

/// Skips an attribute starting at significant index `i` (`#` `[` … `]`),
/// returning the index of the closing `]`.
fn skip_attribute(ctx: &FileContext<'_>, i: usize) -> Option<usize> {
    if ctx.sig_text(i) != "#" || ctx.sig_text(i + 1) != "[" {
        return None;
    }
    let mut depth = 0i64;
    let mut j = i + 1;
    while let Some(t) = ctx.sig_token(j) {
        match ctx.text(t) {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Maps a path head as written in source (`ins_battery`) to the
/// workspace crate name derived from file paths (`battery`).
pub(crate) fn canonical_head(seg: &str) -> &str {
    seg.strip_prefix("ins_").unwrap_or(seg)
}

/// A CamelCase type name: starts with an uppercase ASCII letter.
fn is_type_name(s: &str) -> bool {
    s.bytes().next().is_some_and(|b| b.is_ascii_uppercase())
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_units_cover_the_workspace_catalog() {
        let idx = SymbolIndex::with_builtin_units();
        for name in [
            "Watts",
            "WattHours",
            "Amps",
            "AmpHours",
            "Volts",
            "Ohms",
            "Hours",
        ] {
            assert_eq!(idx.unit_dimension(name), Some(Dimension::Dimensioned));
        }
        assert_eq!(idx.unit_dimension("Soc"), Some(Dimension::Dimensionless));
        assert!(!idx.is_unit_type("Meters"));
    }

    #[test]
    fn quantity_macro_invocations_are_discovered() {
        let src = "quantity!(\n    /// Docs.\n    Joules,\n    \"J\"\n);\n";
        let ctx = FileContext::new("crates/units/src/lib.rs", src);
        let mut idx = SymbolIndex::default();
        idx.add_file(&ctx);
        assert_eq!(idx.unit_dimension("Joules"), Some(Dimension::Dimensioned));
    }

    #[test]
    fn transparent_f64_structs_are_discovered_in_units_crate_only() {
        let src = "pub struct Soc(f64);\npub struct Frac(f64);\n";
        let mut idx = SymbolIndex::default();
        idx.add_file(&FileContext::new("crates/units/src/lib.rs", src));
        assert_eq!(idx.unit_dimension("Soc"), Some(Dimension::Dimensionless));
        assert_eq!(idx.unit_dimension("Frac"), Some(Dimension::Dimensioned));
        let mut other = SymbolIndex::default();
        other.add_file(&FileContext::new("crates/core/src/x.rs", src));
        assert!(
            !other.is_unit_type("Frac"),
            "only the units crate defines quantities"
        );
    }
}
