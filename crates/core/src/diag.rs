use std::fmt;

use pmtest_interval::ByteRange;
use pmtest_trace::SourceLoc;

/// Diagnostic severity, matching the paper's two output classes (§4.1):
/// `FAIL` for crash-consistency bugs and `WARN` for performance bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A performance bug (redundant writeback, duplicated log, …).
    Warn,
    /// A crash-consistency bug (missing fence, missing backup, …).
    Fail,
}

impl Severity {
    /// The severity's output label, as the paper prints it.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Severity::Warn => "WARN",
            Severity::Fail => "FAIL",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The specific rule a diagnostic was produced by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum DiagKind {
    /// `isPersist` failed: the range is not guaranteed durable (§4.4).
    NotPersisted,
    /// `isOrderedBefore` failed: persist intervals overlap or are inverted
    /// (§4.4).
    NotOrderedBefore,
    /// A write inside a transaction was not backed up by `TX_ADD` first
    /// (§5.1.1, "check missing backup logs").
    MissingLog,
    /// A transaction-checker scope ended with an open transaction
    /// (§5.1.1, "check incomplete transactions").
    UnterminatedTx,
    /// `TX_END` without a matching `TX_BEGIN`.
    UnmatchedTxEnd,
    /// Performance: writeback of a range that was never modified (§5.1.2).
    UnnecessaryFlush,
    /// Performance: writeback of a range already written back (§5.1.2).
    DuplicateFlush,
    /// Performance: `TX_ADD` of a range already in the undo log (§5.1.2).
    DuplicateLog,
    /// An operation outside the configured persistency model's vocabulary
    /// (e.g. `ofence` under the x86 model).
    ForeignOperation,
}

impl DiagKind {
    /// Every diagnostic kind, in declaration order. Telemetry and emitters
    /// iterate this to stay exhaustive as kinds are added.
    pub const ALL: [DiagKind; 9] = [
        DiagKind::NotPersisted,
        DiagKind::NotOrderedBefore,
        DiagKind::MissingLog,
        DiagKind::UnterminatedTx,
        DiagKind::UnmatchedTxEnd,
        DiagKind::UnnecessaryFlush,
        DiagKind::DuplicateFlush,
        DiagKind::DuplicateLog,
        DiagKind::ForeignOperation,
    ];

    /// A stable machine-readable identifier (`snake_case`), used as the
    /// `code` field of JSON-lines diagnostics and as the metric label of
    /// `engine_diag_total`. Unlike [`Display`](fmt::Display) output, codes
    /// are an interchange format: they never change once published.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            DiagKind::NotPersisted => "not_persisted",
            DiagKind::NotOrderedBefore => "not_ordered_before",
            DiagKind::MissingLog => "missing_log",
            DiagKind::UnterminatedTx => "unterminated_tx",
            DiagKind::UnmatchedTxEnd => "unmatched_tx_end",
            DiagKind::UnnecessaryFlush => "unnecessary_flush",
            DiagKind::DuplicateFlush => "duplicate_flush",
            DiagKind::DuplicateLog => "duplicate_log",
            DiagKind::ForeignOperation => "foreign_operation",
        }
    }

    /// Parses a [`code`](Self::code) back to its kind.
    #[must_use]
    pub fn from_code(code: &str) -> Option<DiagKind> {
        DiagKind::ALL.iter().copied().find(|k| k.code() == code)
    }

    /// The severity class this kind reports at.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            DiagKind::NotPersisted
            | DiagKind::NotOrderedBefore
            | DiagKind::MissingLog
            | DiagKind::UnterminatedTx
            | DiagKind::UnmatchedTxEnd => Severity::Fail,
            DiagKind::UnnecessaryFlush
            | DiagKind::DuplicateFlush
            | DiagKind::DuplicateLog
            | DiagKind::ForeignOperation => Severity::Warn,
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DiagKind::NotPersisted => "not persisted",
            DiagKind::NotOrderedBefore => "persist order not guaranteed",
            DiagKind::MissingLog => "modified without undo-log backup",
            DiagKind::UnterminatedTx => "transaction not terminated",
            DiagKind::UnmatchedTxEnd => "tx_end without tx_begin",
            DiagKind::UnnecessaryFlush => "writeback of unmodified data",
            DiagKind::DuplicateFlush => "duplicate writeback",
            DiagKind::DuplicateLog => "duplicate undo-log entry",
            DiagKind::ForeignOperation => "operation outside persistency model",
        };
        f.write_str(s)
    }
}

/// One `WARN`/`FAIL` output of the checking engine, with the source
/// attribution the paper reports (`@<file>:<line>`, Fig. 6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Which rule fired.
    pub kind: DiagKind,
    /// Where the checker (or offending operation) was issued.
    pub loc: SourceLoc,
    /// The address range involved, when applicable.
    pub range: Option<ByteRange>,
    /// The source location of the operation that caused the problem (e.g.
    /// the unpersisted write), when known.
    pub culprit: Option<SourceLoc>,
    /// Human-readable details.
    pub message: String,
}

impl Diag {
    /// The severity class of this diagnostic.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} @ {}", self.severity(), self.kind, self.loc)?;
        if let Some(r) = self.range {
            write!(f, " [{r}]")?;
        }
        if !self.message.is_empty() {
            write!(f, " — {}", self.message)?;
        }
        if let Some(c) = self.culprit {
            write!(f, " (caused at {c})")?;
        }
        Ok(())
    }
}

/// The diagnostics produced by checking one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// The trace identifier assigned at submission.
    pub trace_id: u64,
    /// Diagnostics in trace order.
    pub diags: Vec<Diag>,
}

/// The aggregated result of a testing run (what `PMTest_GET_RESULT` returns).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    traces: Vec<TraceReport>,
}

impl Report {
    /// Builds a report from per-trace results, sorting by trace id.
    #[must_use]
    pub fn from_traces(mut traces: Vec<TraceReport>) -> Self {
        traces.sort_by_key(|t| t.trace_id);
        Self { traces }
    }

    /// Per-trace results in submission order.
    #[must_use]
    pub fn traces(&self) -> &[TraceReport] {
        &self.traces
    }

    /// All diagnostics across traces, in trace order.
    pub fn iter(&self) -> impl Iterator<Item = &Diag> {
        self.traces.iter().flat_map(|t| t.diags.iter())
    }

    /// All `FAIL` diagnostics.
    pub fn fails(&self) -> impl Iterator<Item = &Diag> {
        self.iter().filter(|d| d.severity() == Severity::Fail)
    }

    /// All `WARN` diagnostics.
    pub fn warns(&self) -> impl Iterator<Item = &Diag> {
        self.iter().filter(|d| d.severity() == Severity::Warn)
    }

    /// Number of `FAIL` diagnostics.
    #[must_use]
    pub fn fail_count(&self) -> usize {
        self.fails().count()
    }

    /// Number of `WARN` diagnostics.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.warns().count()
    }

    /// Whether no diagnostics at all were reported.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.traces.iter().all(|t| t.diags.is_empty())
    }

    /// Whether any diagnostic of `kind` was reported.
    #[must_use]
    pub fn has(&self, kind: DiagKind) -> bool {
        self.iter().any(|d| d.kind == kind)
    }

    /// Merges another report into this one (re-sorting by trace id).
    pub fn merge(&mut self, other: Report) {
        self.extend_traces(other.traces);
    }

    /// Appends per-trace results, keeping the report sorted by trace id.
    /// A no-op for an empty batch, so repeated drains of idle shards cost
    /// nothing.
    ///
    /// The common shape — a worker shard, whose trace ids are already
    /// ascending and all follow the accumulated tail — is a plain append;
    /// the stable sort (which allocates its merge buffer every call) only
    /// runs when shards actually interleave.
    pub fn extend_traces(&mut self, traces: Vec<TraceReport>) {
        if traces.is_empty() {
            return;
        }
        let sorted_append = traces.windows(2).all(|w| w[0].trace_id <= w[1].trace_id)
            && self.traces.last().is_none_or(|last| last.trace_id <= traces[0].trace_id);
        self.traces.extend(traces);
        if !sorted_append {
            self.traces.sort_by_key(|t| t.trace_id);
        }
    }

    /// Diagnostic counts per kind, for summaries and harness tables.
    #[must_use]
    pub fn counts_by_kind(&self) -> std::collections::BTreeMap<DiagKind, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for d in self.iter() {
            *counts.entry(d.kind).or_insert(0) += 1;
        }
        counts
    }

    /// A canonical, location- and message-free digest of the report: one
    /// `(trace_id, kind, range)` entry per diagnostic, sorted. Two runs of
    /// the same program agree on this even when worker interleaving varies
    /// the order diagnostics were produced in, and even when different
    /// checker paths word their messages differently — which makes it the
    /// right equality for cross-configuration comparisons (the differential
    /// harness checks it across worker counts and batch sizes).
    #[must_use]
    pub fn signature(&self) -> Vec<(u64, DiagKind, Option<ByteRange>)> {
        let mut sig: Vec<_> = self
            .traces
            .iter()
            .flat_map(|t| t.diags.iter().map(move |d| (t.trace_id, d.kind, d.range)))
            .collect();
        sig.sort_unstable();
        sig
    }

    /// Whether two reports carry the same diagnostics up to ordering,
    /// wording, and source attribution — i.e. their
    /// [`signature`](Self::signature)s match. Use `==` instead when byte-identical
    /// reports (messages and locations included) are required.
    #[must_use]
    pub fn equivalent(&self, other: &Report) -> bool {
        self.signature() == other.signature()
    }

    /// Serializes every diagnostic as JSON-lines: one object per diagnostic
    /// with stable field names (`trace_id`, `severity`, `code`, `loc`,
    /// `range`, `culprit`, `message`), using [`DiagKind::code`] identifiers.
    /// Each line parses on its own, so reports stream, grep, and diff; an
    /// empty report serializes to the empty string.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write as _;

        use pmtest_obs::json::escape_into;

        let mut out = String::new();
        for t in &self.traces {
            for d in &t.diags {
                let _ = write!(out, "{{\"trace_id\":{},\"severity\":", t.trace_id);
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
        }
        out
    }

    /// A one-line summary, e.g. `2 FAIL (not persisted x2), 1 WARN
    /// (duplicate writeback x1)`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("clean ({} traces)", self.traces.len());
        }
        let detail: Vec<String> =
            self.counts_by_kind().into_iter().map(|(kind, n)| format!("{kind} x{n}")).collect();
        format!("{} FAIL, {} WARN ({})", self.fail_count(), self.warn_count(), detail.join(", "))
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return writeln!(f, "PMTest: all checks passed ({} traces)", self.traces.len());
        }
        for t in &self.traces {
            for d in &t.diags {
                writeln!(f, "[trace {}] {}", t.trace_id, d)?;
            }
        }
        write!(f, "PMTest: {} FAIL, {} WARN", self.fail_count(), self.warn_count())
    }
}

impl IntoIterator for Report {
    type Item = TraceReport;
    type IntoIter = std::vec::IntoIter<TraceReport>;

    fn into_iter(self) -> Self::IntoIter {
        self.traces.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(kind: DiagKind) -> Diag {
        Diag {
            kind,
            loc: SourceLoc::new("app.rs", 10),
            range: Some(ByteRange::new(0, 8)),
            culprit: Some(SourceLoc::new("app.rs", 5)),
            message: "details".to_owned(),
        }
    }

    #[test]
    fn severity_classes_match_paper() {
        assert_eq!(DiagKind::NotPersisted.severity(), Severity::Fail);
        assert_eq!(DiagKind::NotOrderedBefore.severity(), Severity::Fail);
        assert_eq!(DiagKind::MissingLog.severity(), Severity::Fail);
        assert_eq!(DiagKind::UnterminatedTx.severity(), Severity::Fail);
        assert_eq!(DiagKind::UnnecessaryFlush.severity(), Severity::Warn);
        assert_eq!(DiagKind::DuplicateFlush.severity(), Severity::Warn);
        assert_eq!(DiagKind::DuplicateLog.severity(), Severity::Warn);
    }

    #[test]
    fn diag_display_has_paper_shape() {
        let d = diag(DiagKind::NotPersisted);
        let s = d.to_string();
        assert!(s.starts_with("FAIL: not persisted @ app.rs:10"), "got {s}");
        assert!(s.contains("caused at app.rs:5"));
    }

    #[test]
    fn report_queries() {
        let report = Report::from_traces(vec![
            TraceReport { trace_id: 1, diags: vec![diag(DiagKind::DuplicateFlush)] },
            TraceReport { trace_id: 0, diags: vec![diag(DiagKind::NotPersisted)] },
        ]);
        assert_eq!(report.traces()[0].trace_id, 0, "sorted by id");
        assert_eq!(report.fail_count(), 1);
        assert_eq!(report.warn_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has(DiagKind::NotPersisted));
        assert!(!report.has(DiagKind::MissingLog));
    }

    #[test]
    fn merge_combines_and_sorts() {
        let mut a = Report::from_traces(vec![TraceReport { trace_id: 2, diags: vec![] }]);
        let b = Report::from_traces(vec![TraceReport { trace_id: 1, diags: vec![] }]);
        a.merge(b);
        let ids: Vec<u64> = a.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [1, 2]);
        assert!(a.is_clean());
    }

    #[test]
    fn summary_and_counts() {
        let report = Report::from_traces(vec![TraceReport {
            trace_id: 0,
            diags: vec![
                diag(DiagKind::NotPersisted),
                diag(DiagKind::NotPersisted),
                diag(DiagKind::DuplicateFlush),
            ],
        }]);
        let counts = report.counts_by_kind();
        assert_eq!(counts[&DiagKind::NotPersisted], 2);
        assert_eq!(counts[&DiagKind::DuplicateFlush], 1);
        let s = report.summary();
        assert!(s.contains("2 FAIL"), "{s}");
        assert!(s.contains("not persisted x2"), "{s}");
        assert!(Report::default().summary().contains("clean"));
    }

    #[test]
    fn codes_round_trip_for_every_kind() {
        for kind in DiagKind::ALL {
            let code = kind.code();
            assert_eq!(DiagKind::from_code(code), Some(kind), "{code}");
            assert!(
                code.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "code {code:?} is not snake_case"
            );
        }
        // Codes are unique — two kinds must never alias in machine output.
        let mut codes: Vec<_> = DiagKind::ALL.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), DiagKind::ALL.len());
        assert_eq!(DiagKind::from_code("nonsense"), None);
    }

    #[test]
    fn codes_are_stable() {
        // The exact published strings: changing any of these breaks every
        // consumer of the JSON-lines format. Append-only.
        let expected = [
            "not_persisted",
            "not_ordered_before",
            "missing_log",
            "unterminated_tx",
            "unmatched_tx_end",
            "unnecessary_flush",
            "duplicate_flush",
            "duplicate_log",
            "foreign_operation",
        ];
        let actual: Vec<_> = DiagKind::ALL.iter().map(|k| k.code()).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn json_lines_emit_every_variant_parseably() {
        let report = Report::from_traces(
            DiagKind::ALL
                .iter()
                .enumerate()
                .map(|(i, &kind)| TraceReport { trace_id: i as u64, diags: vec![diag(kind)] })
                .collect(),
        );
        let jsonl = report.to_json_lines();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), DiagKind::ALL.len());
        for (line, kind) in lines.iter().zip(DiagKind::ALL) {
            let v = pmtest_obs::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let code = v.get("code").unwrap().as_str().unwrap();
            assert_eq!(DiagKind::from_code(code), Some(kind), "round-trip through JSON");
            assert_eq!(v.get("severity").unwrap().as_str().unwrap(), kind.severity().as_str());
            assert_eq!(v.get("loc").unwrap().as_str(), Some("app.rs:10"));
            assert_eq!(v.get("message").unwrap().as_str(), Some("details"));
        }
    }

    #[test]
    fn json_lines_handle_missing_fields_and_quoting() {
        let report = Report::from_traces(vec![TraceReport {
            trace_id: 7,
            diags: vec![Diag {
                kind: DiagKind::ForeignOperation,
                loc: SourceLoc::new("a\"b.rs", 1),
                range: None,
                culprit: None,
                message: "say \"hi\"\n".to_owned(),
            }],
        }]);
        let jsonl = report.to_json_lines();
        let v = pmtest_obs::json::parse(jsonl.trim_end()).unwrap();
        assert_eq!(v.get("trace_id").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("loc").unwrap().as_str(), Some("a\"b.rs:1"));
        assert_eq!(v.get("message").unwrap().as_str(), Some("say \"hi\"\n"));
        assert!(matches!(v.get("range"), Some(pmtest_obs::json::JsonValue::Null)));
        assert!(Report::default().to_json_lines().is_empty());
    }

    #[test]
    fn extend_traces_keeps_sorted_order() {
        let mut report = Report::from_traces(vec![TraceReport { trace_id: 5, diags: vec![] }]);
        report.extend_traces(vec![
            TraceReport { trace_id: 9, diags: vec![] },
            TraceReport { trace_id: 1, diags: vec![] },
        ]);
        report.extend_traces(Vec::new());
        let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, [1, 5, 9]);
    }

    #[test]
    fn equivalence_ignores_order_message_and_location() {
        let a = Report::from_traces(vec![TraceReport {
            trace_id: 3,
            diags: vec![
                Diag {
                    kind: DiagKind::NotPersisted,
                    loc: SourceLoc::new("a.rs", 1),
                    range: Some(ByteRange::new(0, 8)),
                    culprit: Some(SourceLoc::new("a.rs", 2)),
                    message: "worded one way".to_owned(),
                },
                Diag {
                    kind: DiagKind::UnnecessaryFlush,
                    loc: SourceLoc::new("a.rs", 3),
                    range: Some(ByteRange::new(8, 16)),
                    culprit: None,
                    message: String::new(),
                },
            ],
        }]);
        let b = Report::from_traces(vec![TraceReport {
            trace_id: 3,
            diags: vec![
                Diag {
                    kind: DiagKind::UnnecessaryFlush,
                    loc: SourceLoc::new("b.rs", 9),
                    range: Some(ByteRange::new(8, 16)),
                    culprit: None,
                    message: "different words".to_owned(),
                },
                Diag {
                    kind: DiagKind::NotPersisted,
                    loc: SourceLoc::new("b.rs", 7),
                    range: Some(ByteRange::new(0, 8)),
                    culprit: None,
                    message: String::new(),
                },
            ],
        }]);
        assert!(a.equivalent(&b));
        assert_ne!(a, b, "equivalence is weaker than equality");
        // A changed range, kind, or trace id breaks equivalence.
        let c = Report::from_traces(vec![TraceReport {
            trace_id: 4,
            diags: b.traces()[0].diags.clone(),
        }]);
        assert!(!a.equivalent(&c));
        assert!(a.equivalent(&a.clone()));
        assert!(Report::default().equivalent(&Report::default()));
    }

    #[test]
    fn clean_report_display() {
        let r = Report::default();
        assert!(r.to_string().contains("all checks passed"));
        let r = Report::from_traces(vec![TraceReport {
            trace_id: 0,
            diags: vec![diag(DiagKind::MissingLog)],
        }]);
        assert!(r.to_string().contains("1 FAIL, 0 WARN"));
    }
}
