//! The annotated epoch/interval timeline renderer.
//!
//! One row per trace entry, one column per epoch. A write row carries its
//! persist-interval bar: `[===]` once the interval closed, `[==>` while it
//! is still open at the end of the trace (i.e. the write is not guaranteed
//! durable). Fences render as horizontal dividers showing the epoch
//! transition. Checker rows mark the epoch they executed in with `?` and
//! are annotated `<- pass` or `<- FAIL <code>`; the culprit write of the
//! firing (first FAIL) diagnostic is highlighted with `<- culprit`.

use std::fmt::Write as _;

use pmtest_core::{
    check_trace_observed, op_token, Diag, PersistencyModel, ReplayObserver, Severity, ShadowMemory,
};
use pmtest_interval::ByteRange;
use pmtest_trace::{Entry, Event, SourceLoc, Trace};

/// Interval attribution for one write row, updated after every replayed
/// step while the shadow memory still credits the row's source location.
struct WriteRow {
    entry_index: usize,
    loc: SourceLoc,
    range: ByteRange,
    /// `(begin, end)` of the persist interval; `end == None` = still open.
    interval: Option<(u64, Option<u64>)>,
    /// Set once the shadow stops attributing any segment of `range` to this
    /// write (it was overwritten); the last observed interval is kept.
    frozen: bool,
}

/// The replay observer behind the timeline: the epoch after every entry,
/// and each write row's interval, updated after every step.
#[derive(Default)]
struct Timeline {
    rows: Vec<WriteRow>,
    epochs_after: Vec<u64>,
}

impl ReplayObserver for Timeline {
    fn on_entry(&mut self, index: usize, entry: &Entry, shadow: &ShadowMemory) {
        if let Event::Write(range) = entry.event {
            self.rows.push(WriteRow {
                entry_index: index,
                loc: entry.loc,
                range,
                interval: None,
                frozen: false,
            });
        }
        self.epochs_after.push(shadow.timestamp());
        for row in self.rows.iter_mut().filter(|r| !r.frozen) {
            let segs: Vec<_> = shadow
                .persist_intervals(row.range)
                .into_iter()
                .filter(|(_, _, wl)| *wl == Some(row.loc))
                .collect();
            if segs.is_empty() {
                row.frozen = row.interval.is_some();
            } else {
                let begin = segs.iter().map(|(_, iv, _)| iv.start()).min().unwrap_or(0);
                let end = segs
                    .iter()
                    .map(|(_, iv, _)| iv.end())
                    .try_fold(0u64, |acc, e| e.map(|e| acc.max(e)));
                row.interval = Some((begin, end));
            }
        }
    }
}

fn is_checker(event: &Event) -> bool {
    matches!(event, Event::IsPersist(_) | Event::IsOrderedBefore(..) | Event::TxCheckerEnd)
}

fn fence_token(event: &Event) -> Option<&'static str> {
    match event {
        Event::Fence => Some("fence"),
        Event::OFence => Some("ofence"),
        Event::DFence => Some("dfence"),
        _ => None,
    }
}

/// Replays `trace` against `model` and renders the annotated timeline.
/// `source` names the input in the first output line.
#[must_use]
pub fn render_trace(trace: &Trace, model: &dyn PersistencyModel, source: &str) -> String {
    render_window(trace, model, source, None)
}

/// [`render_trace`] for a window of a longer trace: `window` holds the
/// trace index of the window's first entry and the diagnostics recorded
/// for the whole trace, which annotate the checkers and name the culprit
/// in place of the window's own replay (that replay starts from empty
/// state, so it cannot see writes before the window).
pub(crate) fn render_window(
    trace: &Trace,
    model: &dyn PersistencyModel,
    source: &str,
    window: Option<(u64, &[Diag])>,
) -> String {
    // ---- replay, tracking per-write interval attribution ----------------
    let mut timeline = Timeline::default();
    let replayed = check_trace_observed(trace, model, &mut timeline);
    let diags = window.map_or(replayed, |(_, recorded)| recorded.to_vec());
    let Timeline { rows, epochs_after } = timeline;
    let firing = diags.iter().find(|d| d.severity() == Severity::Fail);
    let culprit = firing.and_then(|d| d.culprit);
    let epochs = epochs_after.last().copied().unwrap_or(0) + 1;

    // ---- layout ---------------------------------------------------------
    let entries = trace.entries();
    let opw = entries.iter().map(|e| op_token(&e.event).len()).max().unwrap_or(0).max("op".len());
    let locw = entries.iter().map(|e| e.loc.to_string().len()).max().unwrap_or(0).max("loc".len());
    let cellw = format!("epoch {}", epochs - 1).len() + 2;
    let prefixw = 4 + 2 + opw + 2 + locw + 2;

    let mut out = String::new();
    let _ = writeln!(out, "pmtest-explain: {source}");
    let _ = writeln!(
        out,
        "model {}, {} entries, epochs 0..{}",
        model.name(),
        entries.len(),
        epochs - 1
    );
    if let Some((first, _)) = window {
        let last = first + entries.len() as u64 - 1;
        let _ = writeln!(
            out,
            "window: steps {first}..={last} of the trace; annotations from the recorded diagnostics"
        );
    }
    if let (Some(d), Some(c)) = (firing, culprit) {
        let _ = writeln!(out, "culprit: {c} ({} @ {})", d.kind.code(), d.loc);
    }
    out.push('\n');

    // Grid header: epoch columns.
    let mut header = format!("{:prefixw$}", "");
    for c in 0..epochs {
        let _ = write!(header, "|{:^cellw$}", format!("epoch {c}"));
    }
    header.push('|');
    out.push_str(header.trim_end());
    out.push('\n');

    // ---- rows -----------------------------------------------------------
    let first = window.map_or(0, |(first, _)| first);
    for (i, entry) in entries.iter().enumerate() {
        let step = first + i as u64;
        if let Some(tok) = fence_token(&entry.event) {
            let before = if i == 0 { 0 } else { epochs_after[i - 1] };
            let after = epochs_after[i];
            let label = format!(" -- [{step}] {tok} @ {}: epoch {before} -> {after} ", entry.loc);
            let width = prefixw + epochs as usize * (cellw + 1) + 1;
            let _ = writeln!(out, "{label:-<width$}");
            continue;
        }

        let op = op_token(&entry.event);
        let mut line = format!("{:>4}  {:<opw$}  {:<locw$}  ", format!("[{step}]"), op, entry.loc);
        let row = rows.iter().find(|r| r.entry_index == i);
        for c in 0..epochs {
            line.push('|');
            let cell = cell_text(row, entry, c, epochs, epochs_after[i], cellw);
            line.push_str(&cell);
        }
        line.push('|');

        // Annotations.
        let mut notes: Vec<String> = Vec::new();
        for d in diags.iter().filter(|d| d.loc == entry.loc) {
            let note = format!("<- {} {}", severity_label(d), d.kind.code());
            if !notes.contains(&note) {
                notes.push(note);
            }
        }
        if notes.is_empty() && is_checker(&entry.event) {
            notes.push("<- pass".to_owned());
        }
        if culprit == Some(entry.loc) {
            notes.push("<- culprit".to_owned());
        }
        if !notes.is_empty() {
            let _ = write!(line, "  {}", notes.join(" "));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }

    // ---- diagnostics footer ---------------------------------------------
    if !diags.is_empty() {
        out.push('\n');
        out.push_str("diagnostics:\n");
        for d in &diags {
            let mut line = format!("  {} {} @ {}", severity_label(d), d.kind.code(), d.loc);
            if let Some(c) = d.culprit {
                let _ = write!(line, " culprit {c}");
            }
            let _ = writeln!(out, "{line}: {}", d.message);
        }
    }
    out
}

fn severity_label(d: &Diag) -> &'static str {
    match d.severity() {
        Severity::Fail => "FAIL",
        Severity::Warn => "warn",
    }
}

/// One epoch cell of a row: the interval bar for writes, a `?` marker at
/// the executing epoch for checkers, spaces otherwise.
fn cell_text(
    row: Option<&WriteRow>,
    entry: &pmtest_trace::Entry,
    c: u64,
    epochs: u64,
    entry_epoch: u64,
    cellw: usize,
) -> String {
    if let Some(WriteRow { interval: Some((begin, end)), .. }) = row {
        let covered = match end {
            Some(e) => c >= *begin && c <= *e,
            None => c >= *begin,
        };
        if covered {
            let mut cell: Vec<char> = vec!['='; cellw];
            if c == *begin {
                cell[0] = '[';
            }
            match end {
                Some(e) if c == *e => cell[cellw - 1] = ']',
                None if c == epochs - 1 => cell[cellw - 1] = '>',
                _ => {}
            }
            return cell.into_iter().collect();
        }
        return " ".repeat(cellw);
    }
    if is_checker(&entry.event) && c == entry_epoch {
        return format!("{:^cellw$}", "?");
    }
    " ".repeat(cellw)
}
