//! Client-side spans: recorded in memory during a traced run, written
//! out as JSON lines when it ends, and summarised per layer.
//!
//! A span covers one call into a layer (or one wait on the server) with
//! a name, start, end, the span that caused it and the request it
//! belongs to. A layer's self time is its spans' duration minus the part
//! of each span its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the trace origin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a run.
    pub id: u64,
    /// The span this one was caused by, if any.
    pub parent: Option<u64>,
    /// The request (report, query or replayed call) the span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `serve.reply_tail` or `ingest.offer`.
    pub name: &'static str,
    /// `true` when the client only waited (server time), `false` when
    /// the span is busy work in this process.
    pub wait: bool,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// The call failed or its answer was wrong.
    pub failed: bool,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty recorder; span times count from `origin`.
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
        wait: bool,
        failed: bool,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            wait,
            start,
            end,
            failed,
        });
        id
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let line = Json::obj()
                .with("id", s.id)
                .with("parent", s.parent)
                .with("request", s.request)
                .with("name", s.name)
                .with("wait", s.wait)
                .with("start_ns", s.start)
                .with("end_ns", s.end)
                .with("failed", s.failed);
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// Per-layer totals, keyed by span name.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerSummary> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end.saturating_sub(s.start);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered(s.start, s.end, c));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur - covered.min(dur);
            if s.wait {
                e.wait_ns += dur;
            }
            e.failed += u64::from(s.failed);
        }
        out
    }
}

/// One layer's totals over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerSummary {
    /// Spans recorded.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
    /// Summed durations of the spans that were waits on the server.
    pub wait_ns: u64,
    /// Spans marked failed.
    pub failed: u64,
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        assert_eq!(covered(0, 100, &[(10, 30), (20, 40), (90, 150)]), 40);
        let o = Instant::now();
        let at = |ns| o + Duration::from_nanos(ns);
        let mut t = Trace::new(o);
        let root = t.record("req", None, 7, at(0), at(100), false, false);
        t.record("wait", Some(root), 7, at(10), at(60), true, false);
        t.record("tail", Some(root), 7, at(50), at(70), true, true);
        let s = t.summary();
        assert_eq!(s["req"].self_ns, 40);
        assert_eq!(s["req"].total_ns, 100);
        assert_eq!(s["wait"].wait_ns, 50);
        assert_eq!(s["tail"].failed, 1);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
