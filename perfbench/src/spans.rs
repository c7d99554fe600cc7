//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`, timed by the benchmark around
//! a call into one layer. Spans stay in memory and are written out as
//! JSON lines when the run ends. A layer's self time is its span minus
//! the spans of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.step`.
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
}

/// Span storage with an open-span stack.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// ns since the epoch.
    #[must_use]
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorder's epoch.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.push_open(name, start);
    }

    fn push_open(&mut self, name: &'static str, start: u64) {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
    }

    /// Closes the innermost open span and returns its duration, ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a bug in the caller's nesting).
    pub fn exit(&mut self) -> u64 {
        let end = self.now();
        self.exit_at(end)
    }

    /// Closes the innermost open span at `end` (ns since the epoch) and
    /// returns its duration, ns.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit_at(&mut self, end: u64) -> u64 {
        let index = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[index as usize];
        span.end = end;
        end - span.start
    }

    /// Records an already-finished span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Self time per span name: `(total self ns, span count)`.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(s.name).or_default();
            entry.0 += (s.end - s.start).saturating_sub(children);
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.push_open("outer", 0);
        spans.record("inner", 10, 40);
        spans.record("inner", 50, 60);
        let outer = spans.open.pop().expect("open") as usize;
        spans.spans[outer].end = 100;
        let st = spans.self_times();
        assert_eq!(st["outer"], (60, 1));
        assert_eq!(st["inner"], (40, 2));
        assert_eq!(spans.spans()[1].parent, Some(0));
    }
}
