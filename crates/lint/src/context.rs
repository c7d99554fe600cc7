//! Per-file analysis context: the token stream plus everything the rule
//! passes need to interpret it — line mapping, test-region marking, and
//! inline suppression markers.

use crate::lexer::{lex, Token};
use crate::Rule;

/// One `// ins-lint: allow(...)` marker found in a (non-doc) comment.
///
/// A marker covers its own line and the line directly below, so a
/// standalone comment can precede the statement it excuses. Markers in
/// doc comments are treated as documentation, never as suppressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// 1-based line the marker text sits on.
    pub line: usize,
    /// The rules the marker names, in marker order.
    pub rules: Vec<Rule>,
    /// Entries that name no rule (`L099`, or the empty entry of
    /// `allow()`), trimmed, in marker order. Each becomes an L010.
    pub unknown: Vec<String>,
}

/// Everything the analysis engine knows about one source file.
pub struct FileContext<'a> {
    /// The path as given, normalized to forward slashes.
    pub path: String,
    /// The raw source text.
    pub src: &'a str,
    /// Every token, tiling `src` exactly.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    /// Byte offset of the start of each line (line 1 first).
    line_starts: Vec<usize>,
    /// Per 1-based line: does it lie inside a test region?
    test_lines: Vec<bool>,
    /// Whether the whole file is test code (under a `tests/` directory).
    pub in_tests_dir: bool,
    /// Suppression markers, in file order.
    pub suppressions: Vec<Suppression>,
}

impl<'a> FileContext<'a> {
    /// Lexes `src` and computes the derived structures.
    #[must_use]
    pub fn new(path: &str, src: &'a str) -> Self {
        let path = path.replace('\\', "/");
        let tokens = lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_significant())
            .map(|(i, _)| i)
            .collect();
        let mut line_starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let in_tests_dir = path.starts_with("tests/") || path.contains("/tests/");
        let mut ctx = Self {
            path,
            src,
            tokens,
            sig,
            line_starts,
            test_lines: Vec::new(),
            in_tests_dir,
            suppressions: Vec::new(),
        };
        ctx.test_lines = ctx.compute_test_lines();
        ctx.suppressions = ctx.compute_suppressions();
        ctx
    }

    /// 1-based line number of a byte offset.
    #[must_use]
    pub fn line_of(&self, offset: usize) -> usize {
        self.line_starts.partition_point(|&s| s <= offset)
    }

    /// The text a token covers.
    #[must_use]
    pub fn text(&self, t: &Token) -> &'a str {
        self.src.get(t.start..t.end).unwrap_or("")
    }

    /// The `i`-th significant token, if any.
    #[must_use]
    pub fn sig_token(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&ti| &self.tokens[ti])
    }

    /// Text of the `i`-th significant token (`""` past the end).
    #[must_use]
    pub fn sig_text(&self, i: usize) -> &'a str {
        self.sig_token(i).map_or("", |t| self.text(t))
    }

    /// Whether significant tokens starting at `i` match `pat` exactly.
    #[must_use]
    pub fn matches_seq(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, p)| self.sig_text(i + k) == *p)
    }

    /// Whether the 1-based `line` lies in test code (a `#[cfg(test)]` or
    /// `#[test]` item, a `mod tests`/`mod test` block, or anywhere in a
    /// file under `tests/`).
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.in_tests_dir
            || self
                .test_lines
                .get(line.saturating_sub(1))
                .copied()
                .unwrap_or(false)
    }

    /// Marks test-region lines by brace tracking over significant tokens.
    ///
    /// A region opens at the `{` following any of:
    /// * a `#[cfg(...)]` attribute whose argument list mentions `test`
    ///   (ignoring `not(test)`),
    /// * a `#[test]` attribute,
    /// * `mod tests` / `mod test` *without* any attribute — the classic
    ///   line-scanner blind spot.
    fn compute_test_lines(&self) -> Vec<bool> {
        let line_count = self.line_starts.len();
        let mut marks = vec![false; line_count];
        let mut depth: i64 = 0;
        let mut regions: Vec<i64> = Vec::new();
        let mut pending_from: Option<usize> = None; // byte offset of the trigger
        let sig = &self.sig;
        let mut i = 0;
        while i < sig.len() {
            let tok = self.tokens[sig[i]];
            let text = self.sig_text(i);
            // A region's closing `}` belongs to the region, so remember
            // whether we were inside one *before* processing the token.
            let was_inside = pending_from.is_some() || !regions.is_empty();
            match text {
                "{" => {
                    depth += 1;
                    if pending_from.is_some() {
                        regions.push(depth);
                        pending_from = None;
                    }
                }
                "}" => {
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                    depth -= 1;
                }
                ";" => pending_from = None, // `mod tests;` — external file
                "#" if self.sig_text(i + 1) == "[" => {
                    if let Some((is_test, close)) = self.test_attribute(i) {
                        if is_test {
                            pending_from = pending_from.or(Some(tok.start));
                        }
                        // Mark the attribute's own lines when it opens a
                        // region or already sits inside one, then skip
                        // past it (its tokens carry no braces to track).
                        if pending_from.is_some() || !regions.is_empty() {
                            self.mark_span(&mut marks, tok.start, self.sig_end(close));
                        }
                        i = close + 1;
                        continue;
                    }
                }
                "mod" => {
                    let name = self.sig_text(i + 1);
                    if (name == "tests" || name == "test") && self.sig_text(i + 2) == "{" {
                        pending_from = pending_from.or(Some(tok.start));
                    }
                }
                _ => {}
            }
            if was_inside || pending_from.is_some() || !regions.is_empty() {
                self.mark_span(&mut marks, tok.start, tok.end);
            }
            i += 1;
        }
        marks
    }

    /// If significant index `i` starts an attribute (`#` `[` … `]`),
    /// returns `(does it gate on test?, index of the closing "]")`.
    fn test_attribute(&self, i: usize) -> Option<(bool, usize)> {
        if self.sig_text(i) != "#" || self.sig_text(i + 1) != "[" {
            return None;
        }
        let mut depth = 0i64;
        let mut j = i + 1;
        let mut close = None;
        while let Some(t) = self.sig_token(j) {
            match self.text(t) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let close = close?;
        // `#[test]` exactly.
        if close == i + 3 && self.sig_text(i + 2) == "test" {
            return Some((true, close));
        }
        // `#[cfg(... test ...)]`, ignoring `not(test)`.
        if self.sig_text(i + 2) == "cfg" {
            let mut gated = false;
            for k in (i + 3)..close {
                if self.sig_text(k) == "test"
                    && !(k >= 2 && self.sig_text(k - 1) == "(" && self.sig_text(k - 2) == "not")
                {
                    gated = true;
                }
            }
            return Some((gated, close));
        }
        Some((false, close))
    }

    /// Byte offset one past significant token `i` (EOF when out of range).
    fn sig_end(&self, i: usize) -> usize {
        self.sig_token(i).map_or(self.src.len(), |t| t.end)
    }

    fn mark_span(&self, marks: &mut [bool], start: usize, end: usize) {
        let first = self.line_of(start);
        let last = self.line_of(end.saturating_sub(1).max(start));
        for line in first..=last {
            if let Some(m) = marks.get_mut(line - 1) {
                *m = true;
            }
        }
    }

    /// For an opening bracket at significant index `open` (`(`, `[` or
    /// `{`), returns the significant index of its matching close.
    #[must_use]
    pub fn find_matching(&self, open: usize) -> Option<usize> {
        let (o, c) = match self.sig_text(open) {
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            "{" => ("{", "}"),
            _ => return None,
        };
        let mut depth = 0i64;
        let mut j = open;
        while let Some(t) = self.sig_token(j) {
            let text = self.text(t);
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

    /// Parses `ins-lint: allow(...)` markers out of non-doc comments.
    fn compute_suppressions(&self) -> Vec<Suppression> {
        const MARKER: &str = "ins-lint: allow(";
        let mut out = Vec::new();
        for t in &self.tokens {
            if !t.is_comment() || t.is_doc_comment() {
                continue;
            }
            let text = self.text(t);
            let mut search = 0;
            while let Some(rel) = text[search..].find(MARKER) {
                let at = search + rel;
                let rest = &text[at + MARKER.len()..];
                if let Some(end) = rest.find(')') {
                    let mut marker = Suppression {
                        line: self.line_of(t.start + at),
                        rules: Vec::new(),
                        unknown: Vec::new(),
                    };
                    for id in rest[..end].split(',').map(str::trim) {
                        match Rule::from_id(id) {
                            Some(rule) => marker.rules.push(rule),
                            None => marker.unknown.push(id.to_string()),
                        }
                    }
                    out.push(marker);
                    search = at + MARKER.len() + end;
                } else {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_maps_offsets() {
        let ctx = FileContext::new("crates/x/src/a.rs", "ab\ncd\nef");
        assert_eq!(ctx.line_of(0), 1);
        assert_eq!(ctx.line_of(2), 1);
        assert_eq!(ctx.line_of(3), 2);
        assert_eq!(ctx.line_of(7), 3);
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(!ctx.is_test_line(1));
        assert!(ctx.is_test_line(2), "attribute line is in the region");
        assert!(ctx.is_test_line(3));
        assert!(ctx.is_test_line(4));
        assert!(ctx.is_test_line(5));
        assert!(!ctx.is_test_line(6));
    }

    #[test]
    fn bare_mod_tests_without_attribute_is_a_test_region() {
        let src = "fn a() {}\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(!ctx.is_test_line(1));
        assert!(ctx.is_test_line(2));
        assert!(ctx.is_test_line(3));
        assert!(!ctx.is_test_line(5));
    }

    #[test]
    fn test_attribute_on_a_single_fn_is_a_region() {
        let src = "#[test]\nfn t() {\n    boom();\n}\nfn prod() {}\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(ctx.is_test_line(1));
        assert!(ctx.is_test_line(3));
        assert!(!ctx.is_test_line(5));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod prod {\n    fn b() {}\n}\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(!ctx.is_test_line(3));
    }

    #[test]
    fn mod_tests_declaration_without_body_is_not_a_region() {
        let src = "mod tests;\nfn prod() {}\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(!ctx.is_test_line(2));
    }

    #[test]
    fn tests_dir_marks_every_line() {
        let ctx = FileContext::new("tests/full_day.rs", "fn a() {}\n");
        assert!(ctx.is_test_line(1));
        let ctx = FileContext::new("crates/core/tests/chaos.rs", "fn a() {}\n");
        assert!(ctx.is_test_line(1));
    }

    #[test]
    fn suppressions_parse_from_plain_comments_only() {
        let src = "\
// ins-lint: allow(L002) -- reason\n\
x(); // ins-lint: allow(L003, L004)\n\
/// doc example: // ins-lint: allow(L001)\n\
//! // ins-lint: allow(L005)\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert_eq!(
            ctx.suppressions,
            vec![
                Suppression {
                    line: 1,
                    rules: vec![Rule::UnwrapInProduction],
                    unknown: Vec::new(),
                },
                Suppression {
                    line: 2,
                    rules: vec![Rule::Nondeterminism, Rule::FloatEquality],
                    unknown: Vec::new(),
                },
            ],
            "doc-comment markers are documentation, not suppressions"
        );
    }

    #[test]
    fn suppression_inside_string_literal_is_inert() {
        let src = "let s = \"// ins-lint: allow(L002)\";\n";
        let ctx = FileContext::new("crates/x/src/a.rs", src);
        assert!(ctx.suppressions.is_empty());
    }

    #[test]
    fn matches_seq_over_significant_tokens() {
        let ctx = FileContext::new("x.rs", "a . unwrap ( ) // comment\n");
        assert!(ctx.matches_seq(1, &[".", "unwrap", "(", ")"]));
        assert!(!ctx.matches_seq(1, &[".", "expect"]));
    }
}
