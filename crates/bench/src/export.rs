//! JSON rendering helpers for the sweep binaries' `--json` output.
//!
//! Each sweep's `to_json` writes its rows by hand through these two
//! helpers, so every binary escapes strings and spells non-finite
//! numbers the same way.

/// Escapes a string for embedding inside a JSON string literal (without
/// the surrounding quotes).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a number as a JSON value. JSON has no `Infinity`/`NaN`
/// literals, so non-finite values render as `null` (the fault-free
/// reference column uses `f64::INFINITY` for its inter-arrival time).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_number_maps_non_finite_to_null() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-3.0), "-3");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
