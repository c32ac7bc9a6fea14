//! Spans recorded by the benchmark around the calls it makes into each
//! layer. Kept in memory, written once at exit. With tracing off every
//! call returns at once, so the untraced pass runs the same code without
//! the records.

use crate::json::Value;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Handle to an open span; `None` inside when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
            assert_eq!(self.open.pop(), Some(i), "spans must close innermost first");
        }
    }

    /// A zero-length span: an instant worth finding in the trace, such as
    /// the first streamed point of a submission.
    pub fn mark(&mut self, name: &'static str, at: Instant) {
        if self.enabled {
            let ns = at.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns,
                end_ns: ns,
                parent: self.open.last().copied(),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64, usize)> {
        let selfs = self_times(&self.spans);
        let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
        for (span, ns) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|(name, _, _)| *name == span.name) {
                Some(row) => {
                    row.1 += ns;
                    row.2 += 1;
                }
                None => out.push((span.name, ns, 1)),
            }
        }
        out
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                Value::obj(vec![
                    ("name", Value::str(s.name)),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    ("self_ns", Value::Num(self_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    ("workload", Value::str(workload)),
                ])
            })
            .collect();
        let by_name = self
            .self_time_by_name()
            .into_iter()
            .map(|(name, ns, count)| {
                Value::obj(vec![
                    ("name", Value::str(name)),
                    ("self_ns", Value::Num(ns as f64)),
                    ("count", Value::Num(count as f64)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("workload", Value::str(workload)),
            ("self_time_by_name", Value::Arr(by_name)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover. Children may nest (only direct children count)
/// and may overlap each other (the covered part is their union).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.clamp(spans[p].start_ns, spans[p].end_ns);
            let hi = s.end_ns.clamp(spans[p].start_ns, spans[p].end_ns);
            children[p].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // root 0..100; child 10..60 with its own grandchild 20..30; child 70..90.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a.inner", 20, 30, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_with_overlapping_children() {
        // Children 10..50 and 30..70 cover 10..70 once; 60..65 is inside it;
        // a child reaching past the parent is clipped to it.
        let spans = [
            span("root", 0, 100, None),
            span("x", 10, 50, Some(0)),
            span("y", 30, 70, Some(0)),
            span("z", 60, 65, Some(0)),
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("workload");
        t.mark("first_point", Instant::now());
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        let w = t.begin("workload");
        let s = t.begin("timed");
        t.mark("first_point", Instant::now());
        t.end(s);
        t.end(w);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
        assert_eq!(t.self_time_by_name().len(), 3);
        let json = t.to_json("solo_n256");
        assert_eq!(
            json.get("spans").and_then(Value::as_arr).map(<[_]>::len),
            Some(3)
        );
    }
}
