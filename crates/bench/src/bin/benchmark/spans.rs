//! Spans recorded by the benchmark's own files, around the calls into
//! each layer. Kept in memory, written once when the traced run ends.
//!
//! A disabled tracer records nothing, so the untraced run (where every
//! end-to-end number comes from) pays one branch per layer call.

use crate::jsonw::Obj;
use std::time::Instant;

/// Name of the span that encloses one repetition.
pub const REP_SPAN: &str = "rep";

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the span in the tracer's list.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition the span belongs to, if any.
    pub rep: Option<usize>,
    /// `layer.operation`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Counts taken at the same boundary.
    pub counts: Vec<(String, f64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: Option<usize>,
}

impl Tracer {
    /// A tracer; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: None,
        }
    }

    /// Turns recording on or off (the traced run alternates, to measure
    /// what tracing costs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the repetition that spans opened from now on belong to.
    pub fn set_rep(&mut self, rep: Option<usize>) {
        self.rep = rep;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, name: &str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            rep: self.rep,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            counts: Vec::new(),
        });
        id
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let start = Instant::now();
        let id = self.push(name, start, start);
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Adds an already-timed child of the open span (the chase phases are
    /// timed inside the job body, where no tracer can be borrowed).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            self.push(name, start, end);
        }
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let (true, Some(&id)) = (self.enabled, self.open.last()) {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// All closed spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, one line per span.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let mut counts = Obj::new();
            for (k, v) in &s.counts {
                counts.num(k, *v);
            }
            let mut o = Obj::new();
            o.num("id", s.id as f64);
            match s.parent {
                Some(p) => o.num("parent", p as f64),
                None => o.raw("parent", "null"),
            };
            o.str("workload", workload);
            match s.rep {
                Some(r) => o.num("rep", r as f64),
                None => o.raw("rep", "null"),
            };
            o.str("name", &s.name);
            o.num("start_ns", s.start_ns as f64);
            o.num("end_ns", s.end_ns as f64);
            o.raw("counts", &counts.finish());
            out.push_str(&o.finish());
            out.push('\n');
        }
        out
    }
}

/// A span's self time: its duration minus the part of that interval its
/// child spans cover (children are clipped to the parent and overlapping
/// children are counted once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(me.start_ns, me.end_ns),
                s.end_ns.clamp(me.start_ns, me.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    me.dur_ns() - covered
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfTimeRow {
    /// Span name.
    pub name: String,
    /// Spans of that name.
    pub calls: usize,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Self time summed by span name, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfTimeRow> {
    let mut rows: Vec<SelfTimeRow> = Vec::new();
    for s in spans {
        let own = self_ns(spans, s.id);
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.calls += 1;
                r.total_ns += s.dur_ns();
                r.self_ns += own;
            }
            None => rows.push(SelfTimeRow {
                name: s.name.clone(),
                calls: 1,
                total_ns: s.dur_ns(),
                self_ns: own,
            }),
        }
    }
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows
}

/// The self-time table as text.
pub fn render_self_times(rows: &[SelfTimeRow]) -> String {
    let mut out = format!(
        "{:<28} {:>6} {:>12} {:>12}\n",
        "span", "calls", "total_ms", "self_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>6} {:>12.3} {:>12.3}\n",
            r.name,
            r.calls,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Share of each `rep` span that its direct children cover, smallest
/// over the repetitions — how much of a repetition the layer spans
/// explain (1.0 when there is no `rep` span).
pub fn min_rep_cover(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == REP_SPAN && s.dur_ns() > 0)
        .map(|s| 1.0 - self_ns(spans, s.id) as f64 / s.dur_ns() as f64)
        .fold(1.0, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: usize, parent: Option<usize>, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            rep: None,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "rep", 0, 100),
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 60),  // overlaps a by 10
            span(3, Some(0), "c", 90, 120), // clipped to the parent
            span(4, Some(1), "a.inner", 10, 20),
        ];
        // children cover [10,60) and [90,100): 60 of 100.
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 20);
        assert_eq!(self_ns(&spans, 4), 10);
        assert!((min_rep_cover(&spans) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn self_times_of_a_tree_sum_to_its_root() {
        let spans = vec![
            span(0, None, "rep", 0, 1000),
            span(1, Some(0), "kernel", 5, 900),
            span(2, Some(1), "stage", 100, 400),
            span(3, Some(0), "validate", 900, 990),
        ];
        let total: u64 = (0..spans.len()).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(total, spans[0].dur_ns());
        let table = self_time_table(&spans);
        assert_eq!(table[0].name, "kernel");
        assert_eq!(table[0].self_ns, 595);
        assert!(render_self_times(&table).contains("kernel"));
    }

    #[test]
    fn tracer_nests_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_rep(Some(2));
        let got = t.span("rep", |t| {
            t.count("keys", 7.0);
            let a = Instant::now();
            t.record("phase", a, a + Duration::from_nanos(50));
            t.span("inner", |_| 5)
        });
        assert_eq!(got, 5);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rep", "phase", "inner"]);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(0));
        assert_eq!(t.spans()[0].counts, [("keys".to_string(), 7.0)]);
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);

        let mut off = Tracer::new(false);
        off.span("rep", |t| t.count("keys", 1.0));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn jsonl_lines_parse_strictly() {
        let mut t = Tracer::new(true);
        t.span("workload", |t| {
            t.set_rep(Some(0));
            t.span("rep", |t| t.count("dht.queries", 12.0));
        });
        let text = t.to_jsonl("chase-flat");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = ampc_bench::json::parse_json(line).expect("span line parses");
            for key in [
                "id", "parent", "workload", "rep", "name", "start_ns", "end_ns", "counts",
            ] {
                assert!(v.get(key).is_some(), "{key} missing in {line}");
            }
        }
    }
}
