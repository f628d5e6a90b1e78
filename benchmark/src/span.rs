//! Spans: what the traced run records at each layer boundary.
//!
//! A span has a name, a start and an end (µs from the log's creation),
//! the span that caused it, and the id of the query it belongs to. They
//! stay in memory and are written out once, when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this identifier.
    pub query: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span log with a stack of open spans.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_query: u32,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_query: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A fresh query identifier.
    pub fn new_query(&mut self) -> u32 {
        self.next_query += 1;
        self.next_query
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s value and the span's id.
    pub fn scope<T>(
        &mut self,
        query: u32,
        name: &'static str,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, u32) {
        let id = self.spans.len() as u32;
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            query,
            name,
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        self.spans[id as usize].end_us = self.now_us();
        (value, id)
    }

    /// Records an already-measured interval (the op spans of a trial).
    pub fn record(&mut self, query: u32, name: &'static str, start_us: f64, end_us: f64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: None,
            query,
            name,
            start_us,
            end_us,
        });
    }

    /// Renames a closed span once its outcome is known (a cache lookup
    /// that turned out to be a miss is pre-estimation work).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover. Children are clipped to the parent's interval;
/// siblings do not overlap in this benchmark (one thread per log), so
/// covered time is the plain sum.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let covered = (span.end_us.min(p.end_us) - span.start_us.max(p.start_us)).max(0.0);
            own[parent as usize] -= covered;
        }
    }
    for v in &mut own {
        *v = v.max(0.0);
    }
    own
}

/// Total self time and span count per name, over spans `filter` keeps.
pub fn self_time_by_name(
    spans: &[Span],
    filter: impl Fn(&Span) -> bool,
) -> BTreeMap<&'static str, (f64, u64)> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        if filter(span) {
            let entry = by_name.entry(span.name).or_insert((0.0, 0));
            entry.0 += own;
            entry.1 += 1;
        }
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            name,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            span(0, None, "query", 0.0, 100.0),
            span(1, Some(0), "parse", 5.0, 15.0),
            span(2, Some(0), "block", 20.0, 80.0),
            span(3, Some(2), "kernel", 25.0, 65.0),
            // A child that sticks out of its parent is clipped.
            span(4, Some(0), "late", 90.0, 130.0),
        ];
        let own = self_times(&spans);
        assert_eq!(
            own,
            vec![100.0 - 10.0 - 60.0 - 10.0, 10.0, 20.0, 40.0, 40.0]
        );
        let by_name = self_time_by_name(&spans, |s| s.name != "late");
        assert_eq!(by_name["query"], (20.0, 1));
        assert_eq!(by_name["kernel"], (40.0, 1));
        assert!(!by_name.contains_key("late"));
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![
            span(0, None, "p", 0.0, 10.0),
            span(1, Some(0), "a", 0.0, 8.0),
            span(2, Some(0), "b", 2.0, 10.0),
        ];
        assert_eq!(self_times(&spans)[0], 0.0);
    }

    #[test]
    fn scopes_nest_and_share_the_query_id() {
        let mut log = SpanLog::new();
        let q = log.new_query();
        let (value, root) = log.scope(q, "query", |log| {
            let (_, child) = log.scope(q, "parse", |_| 7);
            log.scope(q, "plan", |log| log.scope(q, "inner", |_| ()).1);
            child
        });
        assert_eq!(log.len(), 4);
        let spans = log.spans();
        assert_eq!(spans[root as usize].parent, None);
        assert_eq!(spans[value as usize].parent, Some(root));
        assert_eq!(spans[3].name, "inner");
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.query == q && s.end_us >= s.start_us));
        assert!(spans[root as usize].end_us >= spans[3].end_us);
        log.record(9, "op", 1.0, 2.0);
        assert_eq!(log.spans()[4].parent, None);
        assert_ne!(log.new_query(), q);
    }
}
