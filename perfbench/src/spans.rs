//! In-memory spans for the traced run, written out as JSONL at the end.
//!
//! A span has a name, start, end, parent and session id. A layer's self
//! time is the sum of its spans' durations minus their children's. Some
//! children are *attributed* rather than nested: the engine span of an
//! in-process `serve` has the separately timed decode, validate and
//! apply spans of the same bytes as children, so its self time is
//! serve minus (decode + validate + apply), which is how the engine cost
//! is defined.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub session: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name,
            session,
            start_ns,
            end_ns,
        });
        id
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        session: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, session, start, Instant::now());
        (id, out)
    }

    /// Re-parents span `child` under `parent` (an attributed child).
    pub fn attribute(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Self time per span name, in ns: duration minus the durations of
    /// the span's children. Negative self time (an attributed engine
    /// that ran faster than its parts, e.g. by using both shards) is
    /// kept as measured.
    pub fn self_times(&self) -> BTreeMap<&'static str, i64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.dur_ns() as i64 - child_ns[s.id] as i64;
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.name, s.session, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_keeps_attribution() {
        let mut t = Tracer::new();
        let o = Instant::now();
        let at = |ms: u64| o + Duration::from_millis(ms);
        let root = t.record("session", None, 7, at(0), at(100));
        let serve = t.record("serve", Some(root), 7, at(10), at(60));
        let decode = t.record("decode", None, 7, at(60), at(80));
        t.attribute(decode, serve);
        let selfs = t.self_times();
        assert_eq!(selfs["session"], 50_000_000);
        assert_eq!(selfs["serve"], 30_000_000);
        assert_eq!(selfs["decode"], 20_000_000);
        assert_eq!(selfs.values().sum::<i64>(), 100_000_000);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.contains("\"name\":\"decode\",\"session\":7"));
        assert!(lines.contains("\"id\":2,\"parent\":1"));
    }
}
