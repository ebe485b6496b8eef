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
    WindowStart,
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

/// A window of a longer trace, as a bundle records it.
pub(crate) struct Window<'a> {
    /// Trace index of the window's first entry.
    pub(crate) first: u64,
    /// The diagnostics recorded for the whole trace. They annotate the
    /// checkers and name the culprit in place of the window's own replay.
    pub(crate) diags: &'a [Diag],
    /// The state the window opens on; without it the window replays from
    /// empty state and cannot see writes before it.
    pub(crate) start: Option<&'a WindowStart>,
}

/// The entries that rebuild `start` in a fresh shadow memory: each open
/// interval's write at its epoch (and its in-flight writeback), with
/// `ofence`s advancing the epoch. Both built-in models advance the epoch on
/// an `ofence` without closing any interval.
fn seed_entries(start: &WindowStart) -> Vec<Entry> {
    let mut open = start.open.clone();
    open.sort_by_key(|iv| iv.begin);
    let mut entries = Vec::new();
    let mut epoch = 0;
    let mut advance_to = |entries: &mut Vec<Entry>, to: u64| {
        while epoch < to {
            entries.push(Event::OFence.at(SourceLoc::new("window", 0)));
            epoch += 1;
        }
    };
    for iv in &open {
        advance_to(&mut entries, iv.begin);
        let loc = iv.write_loc.unwrap_or(SourceLoc::new("window", 0));
        entries.push(Event::Write(iv.range).at(loc));
        if iv.flushed {
            entries.push(Event::Flush(iv.range).at(loc));
        }
    }
    advance_to(&mut entries, start.epoch);
    entries
}

/// [`render_trace`] for a window of a longer trace: the checkers take
/// their annotations and the culprit from the recorded diagnostics, and
/// with a recorded start state the timeline opens on it — its epochs, and a
/// `[<first]` row for each persist interval still open from before the
/// window.
pub(crate) fn render_window(
    trace: &Trace,
    model: &dyn PersistencyModel,
    source: &str,
    window: Option<Window<'_>>,
) -> String {
    // ---- replay, tracking per-write interval attribution ----------------
    // A recorded start state is rebuilt by replaying seed entries first;
    // only their writes are drawn.
    let seed = window.as_ref().and_then(|w| w.start).map_or_else(Vec::new, seed_entries);
    let mut seeded = Trace::new(trace.id());
    for entry in seed.iter().copied().chain(trace.entries()) {
        seeded.push(entry);
    }
    let mut timeline = Timeline::default();
    let replayed = check_trace_observed(&seeded, model, &mut timeline);
    let diags = window.as_ref().map_or(replayed, |w| w.diags.to_vec());
    let Timeline { rows, epochs_after } = timeline;
    let firing = diags.iter().find(|d| d.severity() == Severity::Fail);
    let culprit = firing.and_then(|d| d.culprit);
    let first_epoch = window.as_ref().and_then(|w| w.start).map_or(0, |s| s.epoch);
    let last_epoch = epochs_after.last().copied().unwrap_or(first_epoch);
    let columns = first_epoch..=last_epoch;

    // ---- layout ---------------------------------------------------------
    // Seed writes carried into the window, then the window's own entries.
    let first = window.as_ref().map_or(0, |w| w.first);
    let entries = seeded.entries();
    let shown: Vec<(usize, String)> = entries
        .iter()
        .enumerate()
        .filter_map(|(at, e)| match at.checked_sub(seed.len()) {
            Some(i) => Some((at, format!("[{}]", first + i as u64))),
            None => matches!(e.event, Event::Write(_)).then(|| (at, format!("[<{first}]"))),
        })
        .collect();
    let ops = || shown.iter().map(|&(at, _)| &entries[at]);
    let opw = ops().map(|e| op_token(&e.event).len()).max().unwrap_or(0).max("op".len());
    let locw = ops().map(|e| e.loc.to_string().len()).max().unwrap_or(0).max("loc".len());
    let cellw = format!("epoch {last_epoch}").len() + 2;
    let prefixw = 4 + 2 + opw + 2 + locw + 2;

    let mut out = String::new();
    let _ = writeln!(out, "pmtest-explain: {source}");
    let _ = writeln!(
        out,
        "model {}, {} entries, epochs {first_epoch}..{last_epoch}",
        model.name(),
        trace.len(),
    );
    if let Some(w) = &window {
        let last = w.first + trace.len() as u64 - 1;
        let _ = writeln!(
            out,
            "window: steps {}..={last} of the trace; annotations from the recorded diagnostics",
            w.first
        );
        if let Some(start) = w.start {
            let _ = writeln!(
                out,
                "window start: epoch {}, {} persist interval(s) open before step {}",
                start.epoch,
                start.open.len(),
                w.first
            );
        }
    }
    if let (Some(d), Some(c)) = (firing, culprit) {
        let _ = writeln!(out, "culprit: {c} ({} @ {})", d.kind.code(), d.loc);
    }
    out.push('\n');

    // Grid header: epoch columns.
    let mut header = format!("{:prefixw$}", "");
    for c in columns.clone() {
        let _ = write!(header, "|{:^cellw$}", format!("epoch {c}"));
    }
    header.push('|');
    out.push_str(header.trim_end());
    out.push('\n');

    // ---- rows -----------------------------------------------------------
    for (at, label) in &shown {
        let entry = &entries[*at];
        if let Some(tok) = fence_token(&entry.event) {
            let before = at.checked_sub(1).map_or(first_epoch, |j| epochs_after[j]);
            let after = epochs_after[*at];
            let label = format!(" -- {label} {tok} @ {}: epoch {before} -> {after} ", entry.loc);
            let width = prefixw + columns.clone().count() * (cellw + 1) + 1;
            let _ = writeln!(out, "{label:-<width$}");
            continue;
        }

        let op = op_token(&entry.event);
        let mut line = format!("{label:>4}  {op:<opw$}  {:<locw$}  ", entry.loc.to_string());
        let row = rows.iter().find(|r| r.entry_index == *at);
        for c in columns.clone() {
            line.push('|');
            let cell = cell_text(row, entry, c, last_epoch, epochs_after[*at], cellw);
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
/// the executing epoch for checkers, spaces otherwise. `last` is the last
/// epoch column, where a still-open bar ends in `>`.
fn cell_text(
    row: Option<&WriteRow>,
    entry: &Entry,
    c: u64,
    last: u64,
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
                None if c == last => cell[cellw - 1] = '>',
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
