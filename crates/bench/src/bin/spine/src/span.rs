//! Spans recorded from the harness's own files, around the calls into
//! each layer. They stay in memory and are written out when the
//! traced pass ends; a layer's self time is its span minus the part
//! its children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based; spans of one batch share the batch's root as ancestor.
    pub id: u32,
    /// 0 for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Units of work inside (heartbeats, datagrams, expiries).
    pub count: u64,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    pub calls: u64,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Self nanoseconds per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64
    }

    /// Self microseconds per call.
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.calls as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records `work` as a span named `name`, child of whichever span
    /// is open. `work` returns its result and the units it handled.
    pub fn span<R>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        let (result, count) = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
        result
    }

    /// A leaf span: `work` calls one layer and returns the units done.
    pub fn leaf(&mut self, name: &'static str, work: impl FnOnce() -> u64) {
        self.span(name, |_| ((), work()));
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        totals(&self.spans)
    }

    /// One JSON object per line: `{id, parent, name, start_ns, end_ns,
    /// count}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Folds spans into per-name totals; self time is a span's duration
/// minus its direct children's (children of one harness thread never
/// overlap, so their sum is the interval they cover).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut covered = vec![0u64; spans.len() + 1];
    for s in spans {
        covered[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut by_name: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns - s.start_ns;
        let t = by_name.entry(s.name).or_default();
        t.calls += 1;
        t.count += s.count;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(covered[s.id as usize]);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        count: u64,
    ) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            count,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(1, 0, "batch", 0, 1000, 64),
            span(2, 1, "wire.encode", 10, 110, 64),
            span(3, 1, "shard.ingest_batch", 200, 700, 64),
            span(4, 3, "inner", 300, 400, 1),
            span(5, 0, "batch", 1000, 1500, 64),
            span(6, 5, "wire.encode", 1000, 1200, 64),
        ];
        let t = totals(&spans);
        // batch: (1000 - 100 - 500) + (500 - 200); grandchildren are
        // the child's to subtract, not the root's.
        assert_eq!(t["batch"].self_ns, 700);
        assert_eq!(t["batch"].total_ns, 1500);
        assert_eq!(t["batch"].calls, 2);
        assert_eq!(t["shard.ingest_batch"].self_ns, 400);
        assert_eq!(t["wire.encode"].self_ns, 300);
        assert_eq!(t["wire.encode"].count, 128);
        assert!((t["wire.encode"].ns_per_unit() - 300.0 / 128.0).abs() < 1e-12);
        assert!((t["shard.ingest_batch"].us_per_call() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one_and_writes_them() {
        let mut tracer = Tracer::new();
        let answer = tracer.span("batch", |t| {
            t.leaf("wire.encode", || 64);
            t.leaf("wire.decode", || 64);
            (42, 64)
        });
        tracer.leaf("probe", || 1);
        assert_eq!(answer, 42);
        let parents: Vec<(u32, u32, &str)> = tracer
            .spans()
            .iter()
            .map(|s| (s.id, s.parent, s.name))
            .collect();
        assert_eq!(
            parents,
            [
                (1, 0, "batch"),
                (2, 1, "wire.encode"),
                (3, 1, "wire.decode"),
                (4, 0, "probe")
            ]
        );
        let root = &tracer.spans()[0];
        assert!(tracer.spans()[1..3]
            .iter()
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));
        assert_eq!(root.count, 64);

        let mut file = Vec::new();
        tracer.write_jsonl(&mut file).unwrap();
        let text = String::from_utf8(file).unwrap();
        assert_eq!(text.lines().count(), 4);
        let first = crate::json::Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("batch"));
        assert_eq!(first.get("count").unwrap().as_f64(), Some(64.0));
    }
}
