//! L005: task markers (todo/fixme, uppercase) must carry an issue
//! reference.
//! Scans comment tokens only, so markers inside string literals are
//! inert (a classic line-scanner false positive) while markers in doc
//! and block comments are seen line by line.

use crate::rules::RuleCtx;
use crate::{Finding, Rule};

/// L005: unreferenced task markers in comments.
pub fn check_todo(ctx: &RuleCtx<'_>, out: &mut Vec<Finding>) {
    let f = ctx.file;
    for t in &f.tokens {
        if !t.is_comment() {
            continue;
        }
        let text = f.text(t);
        let mut offset = 0usize;
        for segment in text.split('\n') {
            let marker = ["TODO", "FIXME"].iter().find(|m| segment.contains(*m));
            if let Some(marker) = marker {
                // `#123` anywhere on the same comment line is a reference.
                let referenced = segment
                    .as_bytes()
                    .windows(2)
                    .any(|w| w[0] == b'#' && w[1].is_ascii_digit());
                if !referenced {
                    ctx.push(
                        out,
                        Rule::UntrackedTodo,
                        t.start + offset,
                        format!("`{marker}` — {}", Rule::UntrackedTodo.description()),
                    );
                }
            }
            offset += segment.len() + 1;
        }
    }
}
