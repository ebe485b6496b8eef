//! Diagnosis bundles: self-contained post-mortem captures of a failing
//! check (DESIGN.md §11).
//!
//! A verdict is a pure function of a trace's packed words and the model, so
//! a bundle is built by re-checking the trace once more with a
//! [`ReplayObserver`] that records each step: the entry plus the interval
//! state the model assigned. At [`crate::TelemetryLevel::Bundles`] and
//! above, a worker re-checks every trace whose verdict carries a FAIL and
//! keeps the trace's last [`BUNDLE_STEPS`] steps. A [`DiagnosisBundle`]
//! holds the firing checker, the full diagnostics, the captured steps with
//! source locations, the epoch boundaries, and the culprit write's interval
//! history; a window that starts mid-trace also holds the epoch and the
//! persist intervals still open before its first step. Bundles
//! serialize to JSON-lines (validated by `obs-check`) and replay in
//! `pmtest-explain`.

use std::fmt::Write as _;

use pmtest_interval::ByteRange;
use pmtest_obs::json::escape_into;
use pmtest_trace::{Entry, Event, SourceLoc, Trace};

use crate::checker::{check_trace_observed, ReplayObserver};
use crate::diag::{Diag, Severity};
use crate::model::PersistencyModel;
use crate::shadow::ShadowMemory;

/// Steps an engine bundle keeps: the last 64 of its trace, enough for every
/// trace the paper's examples produce while bounding the 16 queued bundles
/// of long traces.
pub const BUNDLE_STEPS: usize = 64;

/// Why a bundle was captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleReason {
    /// A checker fired a FAIL-severity diagnostic.
    Error,
    /// A capture of a passing trace, requested outside the engine (the
    /// difftest's `capture_diagnosis_bundle`).
    Manual,
}

impl BundleReason {
    /// Stable identifier used in the serialized header.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BundleReason::Error => "error",
            BundleReason::Manual => "manual",
        }
    }
}

/// One per-range persist interval as the model saw it after a step.
///
/// `end == None` means the interval is still open (flushed but not yet
/// fenced, or not flushed at all): the range is not guaranteed persistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalNote {
    /// The byte range this interval covers.
    pub range: ByteRange,
    /// Epoch in which the persist interval began (the write's epoch).
    pub begin: u64,
    /// Epoch in which the interval closed, if it has closed.
    pub end: Option<u64>,
    /// Source location of the write that opened the interval, if known.
    pub write_loc: Option<SourceLoc>,
}

/// One replayed entry together with the interval state observed after it.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Index of the entry within its trace.
    pub index: usize,
    /// The entry itself (events are `Copy`).
    pub entry: Entry,
    /// The model's epoch counter after replaying this entry.
    pub epoch: u64,
    /// Persist intervals touching the entry's own ranges after this step.
    pub intervals: Vec<IntervalNote>,
}

/// A persist interval still open where a bundle window starts mid-trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenInterval {
    /// The byte range the interval covers.
    pub range: ByteRange,
    /// Epoch in which the interval began (the write's epoch).
    pub begin: u64,
    /// Source location of the write that opened the interval, if known.
    pub write_loc: Option<SourceLoc>,
    /// Whether a writeback of the range is in flight, so that the next
    /// fence closes the interval.
    pub flushed: bool,
}

/// The checker state a window that starts mid-trace opens on: the epoch and
/// the persist intervals still open before its first step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowStart {
    /// The model's epoch counter before the window's first step.
    pub epoch: u64,
    /// The open persist intervals, in address order.
    pub open: Vec<OpenInterval>,
}

impl WindowStart {
    /// The epoch and the open persist intervals of `shadow`.
    fn of(shadow: &ShadowMemory) -> Self {
        let open = shadow
            .states_in(ByteRange::new(0, u64::MAX))
            .filter_map(|(range, st)| {
                let persist = st.persist.filter(|p| !p.is_closed())?;
                Some(OpenInterval {
                    range,
                    begin: persist.start(),
                    write_loc: st.write_loc.map(|id| shadow.resolve_loc(id)),
                    flushed: st.flush.is_some_and(|f| !f.is_closed()),
                })
            })
            .collect();
        Self { epoch: shadow.timestamp(), open }
    }
}

/// One trace's re-checked steps plus the diagnostics that triggered the
/// capture.
#[derive(Debug, Clone)]
pub struct DiagnosisBundle {
    /// Name of the persistency model that replayed the trace.
    pub model: String,
    /// Why the bundle was captured.
    pub reason: BundleReason,
    /// Id of the trace the steps belong to.
    pub trace_id: u64,
    /// Every diagnostic the trace produced, in emission order (empty for a
    /// [`BundleReason::Manual`] capture).
    pub diags: Vec<Diag>,
    /// Index into `diags` of the firing (first FAIL) diagnostic, if any.
    pub firing: Option<usize>,
    /// The trace's last captured steps, oldest first.
    pub steps: Vec<StepRecord>,
    /// The state before the first captured step, when the steps start
    /// above step 0.
    pub start: Option<WindowStart>,
}

/// The step-recording replay observer: every replayed entry from `first` on
/// becomes a step record — the model's epoch counter plus the persist
/// intervals touching the entry's own ranges — and the state the window
/// opens on is taken just before step `first`.
struct StepCapture {
    first: usize,
    steps: Vec<StepRecord>,
    start: Option<WindowStart>,
}

impl ReplayObserver for StepCapture {
    fn on_entry(&mut self, index: usize, entry: &Entry, shadow: &ShadowMemory) {
        if index + 1 == self.first {
            self.start = Some(WindowStart::of(shadow));
        }
        if index < self.first {
            return;
        }
        let mut intervals = Vec::new();
        let mut note = |range| {
            for (sub, iv, write_loc) in shadow.persist_intervals(range) {
                intervals.push(IntervalNote {
                    range: sub,
                    begin: iv.start(),
                    end: iv.end(),
                    write_loc,
                });
            }
        };
        match entry.event {
            Event::Write(r)
            | Event::Flush(r)
            | Event::TxAdd(r)
            | Event::IsPersist(r)
            | Event::Exclude(r)
            | Event::Include(r) => note(r),
            Event::IsOrderedBefore(a, b) => {
                note(a);
                note(b);
            }
            Event::Fence
            | Event::OFence
            | Event::DFence
            | Event::TxBegin
            | Event::TxEnd
            | Event::TxCheckerStart
            | Event::TxCheckerEnd => {}
        }
        self.steps.push(StepRecord { index, entry: *entry, epoch: shadow.timestamp(), intervals });
    }
}

/// The corpus-text token for an event (the dialect `pmtest-explain` and the
/// difftest corpus share), e.g. `write 0 8`, `tx_commit`, `check_ordered 0
/// 8 64 8`.
#[must_use]
pub fn op_token(event: &Event) -> String {
    match *event {
        Event::Write(r) => format!("write {} {}", r.start(), r.len()),
        Event::Flush(r) => format!("flush {} {}", r.start(), r.len()),
        Event::Fence => "fence".to_owned(),
        Event::OFence => "ofence".to_owned(),
        Event::DFence => "dfence".to_owned(),
        Event::TxBegin => "tx_begin".to_owned(),
        Event::TxEnd => "tx_commit".to_owned(),
        Event::TxAdd(r) => format!("tx_add {} {}", r.start(), r.len()),
        Event::IsPersist(r) => format!("check_persist {} {}", r.start(), r.len()),
        Event::IsOrderedBefore(a, b) => {
            format!("check_ordered {} {} {} {}", a.start(), a.len(), b.start(), b.len())
        }
        Event::TxCheckerStart => "tx_checker_start".to_owned(),
        Event::TxCheckerEnd => "tx_checker_end".to_owned(),
        Event::Exclude(r) => format!("exclude {} {}", r.start(), r.len()),
        Event::Include(r) => format!("include {} {}", r.start(), r.len()),
    }
}

fn fence_cause(event: &Event) -> Option<&'static str> {
    match event {
        Event::Fence => Some("fence"),
        Event::OFence => Some("ofence"),
        Event::DFence => Some("dfence"),
        _ => None,
    }
}

impl DiagnosisBundle {
    /// Builds the bundle of `trace` by checking it once more under `model`
    /// with the step recorder watching, keeping the trace's last `steps`
    /// steps (the engine keeps [`BUNDLE_STEPS`]; `trace.len()` keeps them
    /// all, so `pmtest-explain` replays the whole trace). An
    /// [`BundleReason::Error`] bundle carries the re-check's diagnostics; a
    /// [`BundleReason::Manual`] one carries the steps only.
    #[must_use]
    pub fn recheck(
        model: &dyn PersistencyModel,
        trace: &Trace,
        reason: BundleReason,
        steps: usize,
    ) -> Self {
        let first = trace.len().saturating_sub(steps);
        let mut capture = StepCapture { first, steps: Vec::new(), start: None };
        let diags = check_trace_observed(trace, model, &mut capture);
        let diags = if reason == BundleReason::Manual { Vec::new() } else { diags };
        let bundle = Self::from_steps(model.name(), reason, trace.id(), diags, capture.steps);
        Self { start: capture.start, ..bundle }
    }

    /// Assembles a bundle from one trace's steps and diagnostics.
    fn from_steps(
        model: &str,
        reason: BundleReason,
        trace_id: u64,
        diags: Vec<Diag>,
        steps: Vec<StepRecord>,
    ) -> Self {
        let firing = diags.iter().position(|d| d.severity() == Severity::Fail);
        Self { model: model.to_owned(), reason, trace_id, diags, firing, steps, start: None }
    }

    /// Serialize as JSON-lines: one `header` line, one `diag` line per
    /// diagnostic, a `window` line with the [`WindowStart`] when the steps
    /// start mid-trace, one `step` line per recorded entry (with an `epoch`
    /// line after every fence step), and a trailing `culprit` line when the
    /// firing diagnostic names one. Every line parses on its own with
    /// `pmtest_obs::json::parse`; `obs-check` validates the whole file.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"header\",\"bundle\":\"pmtest-diagnosis\",\"version\":1,\"model\":"
        );
        escape_into(&mut out, &self.model);
        out.push_str(",\"reason\":");
        escape_into(&mut out, self.reason.as_str());
        let _ = write!(
            out,
            ",\"trace_id\":{},\"steps\":{},\"diags\":{}}}",
            self.trace_id,
            self.steps.len(),
            self.diags.len()
        );
        out.push('\n');

        for (i, d) in self.diags.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"kind\":\"diag\",\"firing\":{},\"severity\":",
                self.firing == Some(i)
            );
            escape_into(&mut out, d.severity().as_str());
            out.push_str(",\"code\":");
            escape_into(&mut out, d.kind.code());
            out.push_str(",\"loc\":");
            escape_into(&mut out, &d.loc.to_string());
            match d.range {
                Some(r) => {
                    let _ = write!(out, ",\"range\":[{},{}]", r.start(), r.end());
                }
                None => out.push_str(",\"range\":null"),
            }
            match d.culprit {
                Some(c) => {
                    out.push_str(",\"culprit\":");
                    escape_into(&mut out, &c.to_string());
                }
                None => out.push_str(",\"culprit\":null"),
            }
            out.push_str(",\"message\":");
            escape_into(&mut out, &d.message);
            out.push_str("}\n");
        }

        if let Some(start) = &self.start {
            let _ = write!(out, "{{\"kind\":\"window\",\"epoch\":{},\"open\":[", start.epoch);
            for (j, iv) in start.open.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let (a, b) = (iv.range.start(), iv.range.end());
                let _ = write!(out, "{{\"range\":[{a},{b}],\"begin\":{},\"write_loc\":", iv.begin);
                match iv.write_loc {
                    Some(loc) => escape_into(&mut out, &loc.to_string()),
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"flushed\":{}}}", iv.flushed);
            }
            out.push_str("]}\n");
        }

        for step in &self.steps {
            let _ = write!(out, "{{\"kind\":\"step\",\"index\":{},\"op\":", step.index);
            escape_into(&mut out, &op_token(&step.entry.event));
            out.push_str(",\"loc\":");
            escape_into(&mut out, &step.entry.loc.to_string());
            let _ = write!(out, ",\"epoch\":{},\"intervals\":[", step.epoch);
            for (j, iv) in step.intervals.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"range\":[{},{}],\"begin\":{},\"end\":",
                    iv.range.start(),
                    iv.range.end(),
                    iv.begin
                );
                match iv.end {
                    Some(e) => {
                        let _ = write!(out, "{e}");
                    }
                    None => out.push_str("null"),
                }
                out.push_str(",\"write_loc\":");
                match iv.write_loc {
                    Some(loc) => escape_into(&mut out, &loc.to_string()),
                    None => out.push_str("null"),
                }
                out.push('}');
            }
            out.push_str("]}\n");
            if let Some(cause) = fence_cause(&step.entry.event) {
                let _ = write!(
                    out,
                    "{{\"kind\":\"epoch\",\"epoch\":{},\"at_index\":{},\"cause\":\"{}\"}}",
                    step.epoch, step.index, cause
                );
                out.push('\n');
            }
        }

        if let Some(firing) = self.firing {
            let d = &self.diags[firing];
            if let Some(culprit) = d.culprit {
                out.push_str("{\"kind\":\"culprit\",\"loc\":");
                escape_into(&mut out, &culprit.to_string());
                out.push_str(",\"checker_loc\":");
                escape_into(&mut out, &d.loc.to_string());
                out.push_str(",\"code\":");
                escape_into(&mut out, d.kind.code());
                out.push_str("}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::diag::DiagKind;
    use crate::model::X86Model;

    fn sample_bundle() -> DiagnosisBundle {
        let loc = SourceLoc::new("app.rs", 10);
        let culprit = SourceLoc::new("app.rs", 3);
        DiagnosisBundle::from_steps(
            "x86",
            BundleReason::Error,
            7,
            vec![Diag {
                kind: DiagKind::NotPersisted,
                loc,
                range: Some(ByteRange::with_len(0, 8)),
                culprit: Some(culprit),
                message: "interval still open".to_owned(),
            }],
            vec![
                StepRecord {
                    index: 0,
                    entry: Event::Write(ByteRange::with_len(0, 8)).at(culprit),
                    epoch: 0,
                    intervals: vec![IntervalNote {
                        range: ByteRange::with_len(0, 8),
                        begin: 0,
                        end: None,
                        write_loc: Some(culprit),
                    }],
                },
                StepRecord {
                    index: 1,
                    entry: Event::Fence.at(SourceLoc::new("app.rs", 5)),
                    epoch: 1,
                    intervals: Vec::new(),
                },
            ],
        )
    }

    #[test]
    fn bundle_serializes_and_every_line_parses() {
        let text = sample_bundle().to_json_lines();
        let lines: Vec<&str> = text.lines().collect();
        // header, 1 diag, 2 steps, 1 epoch (after the fence), 1 culprit.
        assert_eq!(lines.len(), 6);
        for line in &lines {
            let doc = pmtest_obs::json::parse(line).expect("line parses");
            assert!(doc.get("kind").is_some(), "line has a kind: {line}");
        }
        let header = pmtest_obs::json::parse(lines[0]).unwrap();
        assert_eq!(header.get("bundle").and_then(|v| v.as_str()), Some("pmtest-diagnosis"));
        assert_eq!(header.get("steps").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(header.get("diags").and_then(|v| v.as_f64()), Some(1.0));
        let culprit = pmtest_obs::json::parse(lines[5]).unwrap();
        assert_eq!(culprit.get("loc").and_then(|v| v.as_str()), Some("app.rs:3"));
    }

    #[test]
    fn firing_marks_first_fail_not_warns() {
        let loc = SourceLoc::new("a.rs", 1);
        let bundle = DiagnosisBundle::from_steps(
            "x86",
            BundleReason::Error,
            1,
            vec![
                Diag {
                    kind: DiagKind::DuplicateFlush,
                    loc,
                    range: None,
                    culprit: None,
                    message: String::new(),
                },
                Diag {
                    kind: DiagKind::NotPersisted,
                    loc,
                    range: None,
                    culprit: None,
                    message: String::new(),
                },
            ],
            Vec::new(),
        );
        assert_eq!(bundle.firing, Some(1));
    }

    #[test]
    fn recheck_keeps_the_last_steps_of_one_trace() {
        let r = ByteRange::with_len(0, 8);
        let mut trace = Trace::new(9);
        for _ in 0..BUNDLE_STEPS {
            trace.push(Event::Write(r).here());
        }
        trace.push(Event::IsPersist(r).here());
        let model = X86Model::new();
        let bundle = DiagnosisBundle::recheck(&model, &trace, BundleReason::Error, BUNDLE_STEPS);
        assert_eq!((bundle.model.as_str(), bundle.trace_id), ("x86", 9));
        assert_eq!(bundle.steps.len(), BUNDLE_STEPS, "the window is bounded");
        let first = bundle.steps[0].index;
        assert_eq!(first, trace.len() - BUNDLE_STEPS, "the oldest steps are dropped");
        assert_eq!(bundle.diags[0].kind, DiagKind::NotPersisted);
        assert_eq!(bundle.firing, Some(0));
        let manual = DiagnosisBundle::recheck(&model, &trace, BundleReason::Manual, BUNDLE_STEPS);
        assert!(
            manual.diags.is_empty() && manual.firing.is_none(),
            "a manual capture is steps only"
        );
        // Header, the window's start state, the steps.
        assert_eq!(manual.to_json_lines().lines().count(), 2 + BUNDLE_STEPS);
        let whole = DiagnosisBundle::recheck(&model, &trace, BundleReason::Error, trace.len());
        assert_eq!(whole.steps.len(), trace.len(), "a trace-length window keeps every step");
        assert_eq!(whole.steps[0].index, 0);
        assert_eq!(whole.start, None, "a window from step 0 records no start state");
    }

    #[test]
    fn a_mid_trace_window_records_the_state_it_opens_on() {
        let (a, b) = (ByteRange::with_len(0, 8), ByteRange::with_len(64, 8));
        let mut trace = Trace::new(4);
        let write_a = SourceLoc::new("app.rs", 1);
        trace.push(Event::Write(a).at(write_a));
        trace.push(Event::Write(b).here());
        trace.push(Event::Flush(b).here());
        trace.push(Event::Fence.here());
        trace.push(Event::Fence.here());
        trace.push(Event::Write(b).at(SourceLoc::new("app.rs", 6)));
        trace.push(Event::Flush(b).here());
        trace.push(Event::IsPersist(a).here());
        let model = X86Model::new();
        let bundle = DiagnosisBundle::recheck(&model, &trace, BundleReason::Error, 2);
        assert_eq!(bundle.steps[0].index, 6);
        let start = bundle.start.as_ref().expect("the window starts at step 6");
        assert_eq!(start.epoch, 2, "two fences before the window");
        // `a` is still open from step 0; `b` was rewritten at step 5 and its
        // writeback is in flight.
        assert_eq!(
            start.open,
            [
                OpenInterval { range: a, begin: 0, write_loc: Some(write_a), flushed: false },
                OpenInterval {
                    range: b,
                    begin: 2,
                    write_loc: Some(SourceLoc::new("app.rs", 6)),
                    flushed: false,
                },
            ]
        );
        let text = bundle.to_json_lines();
        let window: Vec<&str> =
            text.lines().filter(|l| l.contains("\"kind\":\"window\"")).collect();
        assert_eq!(
            window,
            [concat!(
                "{\"kind\":\"window\",\"epoch\":2,\"open\":[",
                "{\"range\":[0,8],\"begin\":0,\"write_loc\":\"app.rs:1\",\"flushed\":false},",
                "{\"range\":[64,72],\"begin\":2,\"write_loc\":\"app.rs:6\",\"flushed\":false}]}"
            )]
        );
        // Closing the window one step later catches `b`'s writeback in flight.
        let bundle = DiagnosisBundle::recheck(&model, &trace, BundleReason::Error, 1);
        let start = bundle.start.expect("the window starts at step 7");
        assert!(start.open[1].flushed, "{start:?}");
    }

    #[test]
    fn op_tokens_round_trip_the_corpus_dialect() {
        assert_eq!(op_token(&Event::Write(ByteRange::with_len(0, 8))), "write 0 8");
        assert_eq!(op_token(&Event::TxEnd), "tx_commit");
        assert_eq!(
            op_token(&Event::IsOrderedBefore(
                ByteRange::with_len(0, 8),
                ByteRange::with_len(64, 8)
            )),
            "check_ordered 0 8 64 8"
        );
        assert_eq!(op_token(&Event::Exclude(ByteRange::with_len(16, 4))), "exclude 16 4");
    }
}
