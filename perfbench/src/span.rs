//! In-memory spans recorded around the benchmark's own calls into each
//! crate. Spans never enter the program under test: they bracket the
//! public functions the benchmark calls, and are written out once the run
//! is over.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and call, e.g. `partition` or `metrics.evaluate`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub request: u64,
    /// Index of the enclosing span, `None` for a request's root span.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; 0 while open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A span recorder.
#[derive(Clone, Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    /// An empty recorder timing from now.
    fn default() -> Spans {
        Spans::new(Instant::now())
    }
}

impl Spans {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let request = self.spans[parent].request;
        let id = self.open(name, request, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total milliseconds and count per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += s.ms();
            e.1 += 1;
        }
        out
    }

    /// Total milliseconds of the direct children of span `root`. A span's
    /// children are recorded after it, so only the spans from `root` on
    /// are searched.
    pub fn children_ms(&self, root: usize) -> f64 {
        self.spans[root..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(Span::ms)
            .sum()
    }

    /// One JSON object per span and line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.request,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans,
        }
    }

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            request: 1,
            parent,
            start_ns: start * 1_000_000,
            end_ns: end * 1_000_000,
        }
    }

    #[test]
    fn children_ms_counts_direct_children_only() {
        let s = fixed(vec![
            span("request", None, 0, 100),
            span("partition", Some(0), 0, 30),
            span("timer", Some(0), 30, 90),
            span("inner", Some(2), 30, 90),
        ]);
        assert!((s.children_ms(0) - 90.0).abs() < 1e-12);
        assert!((s.children_ms(2) - 60.0).abs() < 1e-12);
        assert_eq!(s.totals()["timer"], (60.0, 1));
        assert_eq!(s.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn time_records_a_child_of_the_same_request() {
        let mut s = Spans::new(Instant::now());
        let root = s.open("request", 42, None);
        let v = s.time("partition", root, || 7);
        s.close(root);
        assert_eq!(v, 7);
        assert_eq!(s.spans()[1].request, 42);
        assert_eq!(s.spans()[1].parent, Some(root));
        assert!(s.spans()[1].end_ns >= s.spans()[1].start_ns);
    }
}
