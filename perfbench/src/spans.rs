//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer. A span
//! has a name, a start, an end, a parent and an op id; spans of one client
//! op share the id. Spans stay in memory and are written out as JSON lines
//! when the benchmark exits. A disabled recorder keeps nothing, so the
//! untraced run pays one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; `NONE` when the recorder is off.
pub type SpanId = usize;

/// The id handed out while recording is off, and the "no parent" marker.
pub const NONE: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: SpanId,
    op: u64,
}

/// The span recorder.
pub struct Tracer {
    on: bool,
    /// Span times are written out as ns since this instant.
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self { on, epoch: Instant::now(), spans: Vec::new() }
    }

    /// Opens a span starting at `start`; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64, start: Instant) -> SpanId {
        if !self.on {
            return NONE;
        }
        self.spans.push(Span { name, start, end: start, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `id` at `end`.
    pub fn end(&mut self, id: SpanId, end: Instant) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = end;
        }
    }

    /// Records a closed span in one call.
    pub fn span(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.begin(name, parent, op, start);
        self.end(id, end);
    }

    /// Per-name self time in ns: each span's duration minus the part of it
    /// that its children cover, summed over the spans of that name.
    #[must_use]
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let dur = |s: &Span| s.end.saturating_duration_since(s.start).as_nanos() as u64;
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = child_ns.get_mut(span.parent) {
                *slot += dur(span);
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(&child_ns) {
            *out.entry(span.name).or_default() += dur(span).saturating_sub(*child);
        }
        out
    }

    /// Summed duration of the root spans (no parent) that lie inside
    /// `[from, to]` — the part of that window the spans account for.
    #[must_use]
    pub fn root_ns_within(&self, from: Instant, to: Instant) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE && s.start >= from && s.end <= to)
            .map(|s| s.end.saturating_duration_since(s.start).as_nanos() as u64)
            .sum()
    }

    /// Renders the spans as JSON lines, times in ns since the recorder was
    /// created.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE { "null".to_owned() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                ns(s.start),
                ns(s.end),
                s.op
            );
        }
        out
    }

    /// Drops every recorded span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        let op = tr.begin("op", NONE, 0, at(0));
        tr.span("send_trace", op, 0, at(6), at(10));
        tr.end(op, at(10));
        tr.span("finish", NONE, 1, at(12), at(20));
        let st = tr.self_ns();
        assert_eq!(st["op"], 6_000);
        assert_eq!(st["send_trace"], 4_000);
        assert_eq!(st["finish"], 8_000);
        assert_eq!(tr.root_ns_within(at(0), at(20)), 18_000);
        assert_eq!(tr.to_json_lines().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let now = Instant::now();
        let id = tr.begin("op", NONE, 0, now);
        tr.end(id, now);
        assert!(tr.self_ns().is_empty());
    }
}
