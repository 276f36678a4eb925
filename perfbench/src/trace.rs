//! In-memory spans recorded around calls into each layer's public
//! functions, written out as JSON lines when the run ends.
//!
//! A span has a name (`<layer>.<phase>`), start and end offsets from
//! the tracer's epoch, the span that was open when it started, and a
//! request id (the repetition, query or batch it belongs to).

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: u64,
}

/// Span recorder for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the currently
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, SpanId) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.offset_ns(Instant::now());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.offset_ns(Instant::now());
        (out, id)
    }

    /// Records a span measured elsewhere (another thread, or read back
    /// from a reply line), nested under the currently open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) -> SpanId {
        let parent = self.open.last().copied();
        let (start_ns, end_ns) = (self.offset_ns(start), self.offset_ns(end));
        self.spans.push(Span { name, start_ns, end_ns, parent, req });
        self.spans.len() - 1
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Seconds covered by the direct children of `id` named `name`.
    pub fn child_secs(&self, id: SpanId, name: &str) -> f64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(id) && s.name == name)
            .map(|(i, _)| self.secs(i))
            .sum()
    }

    /// Writes every span as one JSON object per line, after a header line
    /// carrying `stamp`.
    pub fn write_jsonl(&self, path: &Path, stamp: &str) -> io::Result<()> {
        let mut text = String::with_capacity(96 * (self.spans.len() + 1));
        let _ = writeln!(text, "{{\"stamp\":{}}}", json_string(stamp));
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"req\":{}}}",
                s.name,
                s.start_ns as f64 * 1e-3,
                s.end_ns as f64 * 1e-3,
                s.req
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_children() {
        let mut t = Tracer::new();
        let ((), root) = t.span("root", 0, |t| {
            t.span("a", 0, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", 0, |_| ());
        });
        let children = t.child_secs(root, "a") + t.child_secs(root, "b");
        assert!(children > 0.0 && children <= t.secs(root));
        assert!(t.child_secs(root, "a") >= 0.002);
        assert_eq!(t.child_secs(root, "c"), 0.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
