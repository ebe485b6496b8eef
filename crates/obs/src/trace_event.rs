//! Chrome trace-event JSON: exporter and validator.
//!
//! The span layer ([`crate::SpanSink`]) records completed spans; this module
//! turns a [`SpanDump`] into the Chrome trace-event JSON format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load directly
//! — and, in the same spirit as the rest of the crate, proves its own output:
//! [`validate`] re-parses a document with the hand-rolled [`crate::json`]
//! reader and checks the schema, per-thread timestamp monotonicity, and that
//! every `B` (begin) event has a matching `E` (end).
//!
//! Spans are exported as `B`/`E` *pairs* rather than single `X` complete
//! events precisely so the matched-pair property is a checkable invariant of
//! the output. Within one thread, recorded spans either nest or are disjoint
//! (they come from scoped timing on that thread), so a begin-ordered walk
//! with an end-stack reconstructs a valid event nesting; timestamps are in
//! fractional microseconds (the format's unit) with nanosecond precision.

use crate::json::{self, JsonValue};
use crate::spans::{SpanDump, SpanRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serializes a span dump as one Chrome trace-event JSON document.
///
/// Every span becomes a `B`/`E` pair on its thread's track, ordered so that
/// each thread's timestamps are non-decreasing and begins/ends match like
/// parentheses. The result loads in Perfetto as-is and passes [`validate`].
#[must_use]
pub fn to_chrome_trace(dump: &SpanDump) -> String {
    let mut by_tid: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for r in &dump.records {
        by_tid.entry(r.tid).or_default().push(r);
    }
    let mut out = String::with_capacity(dump.records.len() * 96 + 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for (tid, mut spans) in by_tid {
        // Begin order; at equal begins the longer (outer) span first, so a
        // parent is always opened before any child it contains.
        spans.sort_by(|a, b| {
            a.start_ns.cmp(&b.start_ns).then_with(|| {
                let end = |r: &SpanRecord| r.start_ns.saturating_add(r.dur_ns);
                end(b).cmp(&end(a))
            })
        });
        // Stack of (name, end_ns) still open on this thread's track.
        let mut open: Vec<(&str, u64)> = Vec::new();
        for span in spans {
            while let Some(&(name, end_ns)) = open.last() {
                if end_ns <= span.start_ns {
                    emit(&mut out, &mut first, name, 'E', tid, end_ns);
                    open.pop();
                } else {
                    break;
                }
            }
            emit(&mut out, &mut first, &span.name, 'B', tid, span.start_ns);
            // Scoped timing on one thread yields spans that nest or are
            // disjoint, making this a no-op; clamping a child's end to its
            // parent's keeps the output well-formed even for hand-built
            // dumps that partially overlap.
            let end_ns = span.start_ns.saturating_add(span.dur_ns);
            let end_ns = open.last().map_or(end_ns, |&(_, parent)| end_ns.min(parent));
            open.push((&span.name, end_ns));
        }
        while let Some((name, end_ns)) = open.pop() {
            emit(&mut out, &mut first, name, 'E', tid, end_ns);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"");
    let _ = write!(out, ",\"spanDropped\":{},\"spanTorn\":{}}}", dump.dropped, dump.torn);
    out
}

fn emit(out: &mut String, first: &mut bool, name: &str, ph: char, tid: u64, ts_ns: u64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":");
    json::escape_into(out, name);
    let _ = write!(out, ",\"cat\":\"pmtest\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":");
    // The format's ts unit is microseconds; keep ns precision fractionally.
    json::number_into(out, ts_ns as f64 / 1000.0);
    out.push('}');
}

/// Summary of a validated trace-event document.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceEventStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Matched begin/end pairs.
    pub pairs: usize,
    /// Distinct `(pid, tid)` tracks.
    pub threads: usize,
}

/// Validates a parsed Chrome trace-event document.
///
/// Checks performed:
/// * top level is an object with a `traceEvents` array;
/// * every event is an object with a string `name`, a known `ph` phase
///   (`B`, `E`, `X`, `I`, `C`, or `M`), numeric `pid`/`tid`, and a
///   non-negative numeric `ts` (metadata `M` events are exempt from `ts`);
/// * per `(pid, tid)` track, `ts` is monotone non-decreasing (again
///   excluding `M`);
/// * `B`/`E` events match like parentheses per track, with equal names, and
///   no track ends with an unclosed `B`;
/// * `X` events carry a non-negative `dur` when present.
pub fn validate(doc: &JsonValue) -> Result<TraceEventStats, String> {
    let events = match doc.get("traceEvents") {
        Some(JsonValue::Array(events)) => events,
        Some(_) => return Err("traceEvents is not an array".into()),
        None => return Err("missing traceEvents array".into()),
    };
    let mut stats = TraceEventStats { events: events.len(), ..Default::default() };
    // (pid, tid) -> (last ts, stack of open B names)
    let mut tracks: BTreeMap<(u64, u64), (f64, Vec<String>)> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: String| format!("event {i}: {msg}");
        if !matches!(ev, JsonValue::Object(_)) {
            return Err(ctx("not an object".into()));
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string name".into()))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string ph".into()))?;
        if !matches!(ph, "B" | "E" | "X" | "I" | "C" | "M") {
            return Err(ctx(format!("unknown phase {ph:?}")));
        }
        let pid = num_field(ev, "pid").map_err(&ctx)?;
        let tid = num_field(ev, "tid").map_err(&ctx)?;
        if ph == "M" {
            continue; // metadata: no ts/ordering requirements
        }
        let ts = ev
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ctx("missing numeric ts".into()))?;
        if ts.is_nan() || ts < 0.0 {
            return Err(ctx(format!("negative ts {ts}")));
        }
        let (last_ts, stack) = tracks.entry((pid, tid)).or_insert((0.0, Vec::new()));
        if ts < *last_ts {
            return Err(ctx(format!(
                "ts {ts} goes backwards on track pid={pid} tid={tid} (last {last_ts})"
            )));
        }
        *last_ts = ts;
        match ph {
            "B" => stack.push(name.to_owned()),
            "E" => match stack.pop() {
                Some(open) if open == name => stats.pairs += 1,
                Some(open) => {
                    return Err(ctx(format!("E {name:?} closes B {open:?} on tid={tid}")))
                }
                None => return Err(ctx(format!("E {name:?} with no open B on tid={tid}"))),
            },
            "X" => {
                if let Some(dur) = ev.get("dur") {
                    let dur = dur.as_f64().ok_or_else(|| ctx("non-numeric dur".into()))?;
                    if dur.is_nan() || dur < 0.0 {
                        return Err(ctx(format!("negative dur {dur}")));
                    }
                }
            }
            _ => {}
        }
    }
    stats.threads = tracks.len();
    for ((pid, tid), (_, stack)) in tracks {
        if let Some(open) = stack.last() {
            return Err(format!("unclosed B {open:?} on track pid={pid} tid={tid}"));
        }
    }
    Ok(stats)
}

/// Parses and validates a trace-event document in one step.
pub fn validate_str(text: &str) -> Result<TraceEventStats, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    validate(&doc)
}

/// Whether a parsed document looks like a Chrome trace-event file (used by
/// `obs-check` to pick the right validator).
#[must_use]
pub fn is_trace_event_doc(doc: &JsonValue) -> bool {
    doc.get("traceEvents").is_some()
}

fn num_field(ev: &JsonValue, key: &str) -> Result<u64, String> {
    let v =
        ev.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("missing numeric {key}"))?;
    if v < 0.0 {
        return Err(format!("negative {key}"));
    }
    Ok(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanDump;

    fn rec(tid: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord { tid, name: name.into(), start_ns: start, dur_ns: dur }
    }

    #[test]
    fn export_validates_and_round_trips() {
        let dump = SpanDump {
            records: vec![
                rec(0, "batch", 1000, 900),
                rec(0, "replay", 1100, 300),
                rec(0, "merge", 1500, 200),
                rec(1, "claim", 500, 100),
            ],
            dropped: 3,
            torn: 0,
        };
        let text = to_chrome_trace(&dump);
        let stats = validate_str(&text).expect("exporter output must validate");
        assert_eq!(stats.pairs, 4);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.events, 8);
        let doc = json::parse(&text).unwrap();
        assert_eq!(doc.get("spanDropped").and_then(JsonValue::as_f64), Some(3.0));
    }

    #[test]
    fn nested_spans_emit_parenthesized_pairs() {
        // outer contains inner; exporter must open outer first and close it
        // last even though the span layer records inner (completed) first.
        let dump = SpanDump {
            records: vec![rec(7, "inner", 120, 30), rec(7, "outer", 100, 100)],
            ..Default::default()
        };
        let text = to_chrome_trace(&dump);
        let stats = validate_str(&text).expect("nested output must validate");
        assert_eq!(stats.pairs, 2);
        let b_outer = text.find("\"outer\",\"cat\":\"pmtest\",\"ph\":\"B\"").unwrap();
        let b_inner = text.find("\"inner\",\"cat\":\"pmtest\",\"ph\":\"B\"").unwrap();
        assert!(b_outer < b_inner, "outer B must precede inner B");
    }

    #[test]
    fn empty_dump_still_validates() {
        let text = to_chrome_trace(&SpanDump::default());
        let stats = validate_str(&text).unwrap();
        assert_eq!(stats, TraceEventStats::default());
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let cases = [
            (r#"{"x":1}"#, "missing traceEvents"),
            (r#"{"traceEvents":1}"#, "not an array"),
            (r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"ts":1}]}"#, "missing string name"),
            (r#"{"traceEvents":[{"name":"a","ph":"Q","pid":1,"tid":1,"ts":1}]}"#, "unknown phase"),
            (
                r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":1,"ts":2},
                                   {"name":"a","ph":"E","pid":1,"tid":1,"ts":1}]}"#,
                "goes backwards",
            ),
            (r#"{"traceEvents":[{"name":"a","ph":"E","pid":1,"tid":1,"ts":1}]}"#, "no open B"),
            (
                r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":1,"ts":1},
                                   {"name":"b","ph":"E","pid":1,"tid":1,"ts":2}]}"#,
                "closes B",
            ),
            (r#"{"traceEvents":[{"name":"a","ph":"B","pid":1,"tid":1,"ts":1}]}"#, "unclosed B"),
        ];
        for (doc, needle) in cases {
            let err = validate_str(doc).expect_err(doc);
            assert!(err.contains(needle), "{doc}: {err} should mention {needle}");
        }
    }

    #[test]
    fn validator_accepts_x_and_metadata_events() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0},
            {"name":"blip","ph":"X","pid":1,"tid":0,"ts":5,"dur":2},
            {"name":"mark","ph":"I","pid":1,"tid":0,"ts":9}
        ]}"#;
        let stats = validate_str(doc).unwrap();
        assert_eq!(stats.events, 3);
        assert_eq!(stats.pairs, 0);
    }
}
