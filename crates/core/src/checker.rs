use pmtest_interval::{ByteRange, IntervalTree};
use pmtest_trace::packed::decode_event;
use pmtest_trace::{Entry, Event, LocResolver, PackedEntry, PackedOp, SourceLoc, Trace};

use crate::diag::{Diag, DiagKind};
use crate::model::{
    hops_op, hops_ordered_before, persist_failure, x86_op, x86_ordered_before, BuiltinModel,
    PersistencyModel,
};
use crate::shadow::ShadowMemory;

/// The recyclable working state of the replay: the shadow memory, the
/// transaction-checker scope, and the scratch buffers the replay loop needs.
///
/// Every trace is checked against logically fresh state, but the state's
/// *allocations* (segment vectors, interval-tree arena, range lists) are
/// expensive to rebuild per trace. A `CheckerScratch` is `reset()` between
/// traces instead, and the replay rewrites that state in place, so a worker
/// replaying through [`check_packed_with`] with a kept [`LocResolver`]
/// allocates nothing per entry once warm, beyond the diagnostics of a
/// failing trace (pinned by `crates/core/tests/alloc_free_replay.rs`;
/// segment maps past 2048 segments spill to a BTree, which allocates). Each
/// engine worker owns one. Pass it to [`check_trace_with`] or
/// [`check_packed_with`].
#[derive(Default)]
pub struct CheckerScratch {
    shadow: ShadowMemory,
    tx: TxScope,
    /// Location ids of the currently open `TX_BEGIN`s, innermost last (the
    /// stack's length is the transaction nesting depth). Kept so an
    /// unterminated-transaction diagnostic can name the begin that was
    /// never closed as its culprit.
    tx_begins: Vec<u32>,
    /// Segment-map representation switches already handed to telemetry;
    /// see [`take_repr_switch_delta`](Self::take_repr_switch_delta).
    reported_repr_switches: u64,
}

impl CheckerScratch {
    /// Creates fresh (empty) scratch state.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets to the logical state of a fresh scratch while keeping every
    /// backing allocation. Every check on recycled scratch calls it first.
    pub fn reset(&mut self) {
        self.shadow.clear();
        self.tx.active = false;
        self.tx.start_loc = None;
        self.tx.log.clear();
        self.tx.modified.clear();
        self.tx_begins.clear();
        // reported_repr_switches intentionally survives: the underlying
        // counters are cumulative across resets.
    }

    /// Read access to the shadow memory (for tests and custom checkers).
    #[must_use]
    pub fn shadow(&self) -> &ShadowMemory {
        &self.shadow
    }

    /// Cumulative flat→BTree representation switches across this scratch's
    /// segment maps (the shadow memory's).
    #[must_use]
    pub fn repr_switches(&self) -> u64 {
        self.shadow.repr_switches()
    }

    /// Representation switches since the last call (for feeding a telemetry
    /// counter incrementally from a recycled scratch).
    pub fn take_repr_switch_delta(&mut self) -> u64 {
        let total = self.repr_switches();
        let delta = total - self.reported_repr_switches;
        self.reported_repr_switches = total;
        delta
    }
}

/// State of an open `TX_CHECKER_START` … `TX_CHECKER_END` scope.
#[derive(Default)]
struct TxScope {
    active: bool,
    start_loc: Option<u32>,
    /// Ranges backed up by `TX_ADD`, attributed to the call that logged them.
    log: IntervalTree<u32>,
    /// Every range written inside the scope, in write order. Only their
    /// union is read, by `TX_CHECKER_END`, which sorts and merges the list
    /// once (see [`on_tx_checker_end`]).
    modified: Vec<ByteRange>,
}

/// What applying a rule needs beside the checker state: the model
/// (devirtualized when it is built in), the resolver of location ids, and
/// the diagnostics found so far. Locations travel as the packed records'
/// ids and are resolved only for a diagnostic or a custom model.
struct Rules<'a, L> {
    model: &'a dyn PersistencyModel,
    fast: Option<BuiltinModel>,
    locs: L,
    diags: Vec<Diag>,
}

impl<L: FnMut(u32) -> SourceLoc> Rules<'_, L> {
    /// Applies one *operation* event. For the built-in models the rules are
    /// called directly — no dynamic dispatch, no [`Entry`] reconstruction;
    /// custom models take the object-safe path. Both run the same rule code
    /// (`x86_op`/`hops_op`), so diagnostics are identical.
    #[inline]
    fn op(&mut self, shadow: &mut ShadowMemory, event: Event, at: u32) {
        match self.fast {
            Some(BuiltinModel::X86 { warn_performance }) => {
                x86_op(warn_performance, shadow, event, at, &mut self.locs, &mut self.diags);
            }
            Some(BuiltinModel::Hops) => hops_op(shadow, event, at, &mut self.locs, &mut self.diags),
            None => self.model.apply(shadow, &event.at((self.locs)(at)), &mut self.diags),
        }
    }

    #[inline]
    fn check_persist(&mut self, shadow: &ShadowMemory, range: ByteRange, at: u32) {
        match self.fast {
            Some(_) => persist_failure(shadow, range, at, &mut self.locs, &mut self.diags),
            None => self.model.check_persist(shadow, range, (self.locs)(at), &mut self.diags),
        }
    }

    #[inline]
    fn check_ordered_before(
        &mut self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        at: u32,
    ) {
        let (locs, diags) = (&mut self.locs, &mut self.diags);
        match self.fast {
            Some(BuiltinModel::X86 { .. }) => {
                x86_ordered_before(shadow, first, second, at, locs, diags);
            }
            Some(BuiltinModel::Hops) => hops_ordered_before(shadow, first, second, at, locs, diags),
            None => self.model.check_ordered_before(shadow, first, second, locs(at), diags),
        }
    }
}

/// A per-entry hook on the replay walk: called once per entry, in program
/// order, right after the checker applied it, with the shadow state it left
/// behind. The engine's entry timer and site profiler, the diagnosis-bundle
/// step capture, and `pmtest-explain`'s timeline are observers; the plain
/// replay passes `()`, which compiles to the bare loop. Run one with
/// [`check_trace_observed`].
pub trait ReplayObserver {
    /// Whether [`on_entry`](Self::on_entry) looks at anything; when it does
    /// not, the walk never builds the entry it would be handed.
    const OBSERVES: bool = true;

    /// Observes entry `index` of the trace.
    fn on_entry(&mut self, index: usize, entry: &Entry, shadow: &ShadowMemory);
}

impl ReplayObserver for () {
    const OBSERVES: bool = false;

    #[inline(always)]
    fn on_entry(&mut self, _: usize, _: &Entry, _: &ShadowMemory) {}
}

/// Validates one trace against a persistency model's checking rules (§4.4)
/// and the high-level transaction checkers (§5.1) — the one replay walk
/// every check runs.
///
/// The walk decodes the packed records one event at a time on the stack
/// (no `Vec<Entry>` is built) and applies each in a single fused pass:
/// operations update the [`ShadowMemory`] (for the built-in models the
/// rules are inlined, bypassing dynamic dispatch), checkers are validated
/// against it in place, and the transaction checker maintains the *log
/// tree* of `TX_ADD`ed ranges plus the ranges modified inside the checked
/// scope. Locations stay the records' interned ids from record to report:
/// `resolver` turns one into a [`SourceLoc`] only for a diagnostic, a
/// custom model or an observer. `obs` sees each entry right after it is
/// applied.
pub(crate) fn replay<O: ReplayObserver>(
    words: &[PackedEntry],
    model: &dyn PersistencyModel,
    scratch: &mut CheckerScratch,
    resolver: &mut LocResolver,
    obs: &mut O,
) -> Vec<Diag> {
    scratch.reset();
    let fast = model.builtin();
    // Only a dfence reads the shadow's open writes. A built-in model runs
    // one only for a DFence record; a custom model may run one anywhere.
    scratch.shadow.set_open_write_tracking(
        fast.is_none() || words.iter().any(|w| w.op() == PackedOp::DFence),
    );
    let mut rules = Rules { model, fast, locs: |id| resolver.resolve(id), diags: Vec::new() };
    let mut i = 0;
    let mut index = 0;
    while let Some((event, at, next)) = decode_event(words, i) {
        process(&mut rules, scratch, event, at);
        if O::OBSERVES {
            obs.on_entry(index, &event.at((rules.locs)(at)), &scratch.shadow);
        }
        i = next;
        index += 1;
    }
    rules.diags
}

/// Applies one event issued at location id `at`.
fn process<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    event: Event,
    at: u32,
) {
    // Fast path: no exclusions active (the overwhelmingly common case), so
    // no range clipping and no per-event allocation is needed.
    if !scratch.shadow.has_exclusions() {
        return process_unclipped(rules, scratch, event, at);
    }
    match event {
        Event::Write(range) => {
            for sub in scratch.shadow.in_scope(range) {
                write_sub(rules, scratch, sub, at);
            }
        }
        Event::Flush(range) => {
            for sub in scratch.shadow.in_scope(range) {
                rules.op(&mut scratch.shadow, Event::Flush(sub), at);
            }
        }
        Event::Fence | Event::OFence | Event::DFence => rules.op(&mut scratch.shadow, event, at),
        Event::TxBegin => scratch.tx_begins.push(at),
        Event::TxEnd => on_tx_end(rules, scratch, at),
        Event::TxAdd(range) => {
            if scratch.tx.active {
                for sub in scratch.shadow.in_scope(range) {
                    tx_add_sub(rules, scratch, sub, at);
                }
            }
        }
        Event::IsPersist(range) => {
            for sub in scratch.shadow.in_scope(range) {
                rules.check_persist(&scratch.shadow, sub, at);
            }
        }
        Event::IsOrderedBefore(first, second) => {
            for a in scratch.shadow.in_scope(first) {
                for b in scratch.shadow.in_scope(second) {
                    rules.check_ordered_before(&scratch.shadow, a, b, at);
                }
            }
        }
        Event::TxCheckerStart => on_tx_checker_start(scratch, at),
        Event::TxCheckerEnd => on_tx_checker_end(rules, scratch, at),
        Event::Exclude(range) => scratch.shadow.exclude(range),
        Event::Include(range) => scratch.shadow.include(range),
    }
}

/// The no-exclusions fast path of [`process`]: identical
/// semantics with every range passed through whole.
fn process_unclipped<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    event: Event,
    at: u32,
) {
    match event {
        Event::Write(range) => write_sub(rules, scratch, range, at),
        Event::Flush(_) | Event::Fence | Event::OFence | Event::DFence => {
            rules.op(&mut scratch.shadow, event, at);
        }
        Event::IsPersist(range) => rules.check_persist(&scratch.shadow, range, at),
        Event::IsOrderedBefore(first, second) => {
            rules.check_ordered_before(&scratch.shadow, first, second, at);
        }
        Event::TxAdd(range) => tx_add_sub(rules, scratch, range, at),
        Event::TxBegin => scratch.tx_begins.push(at),
        Event::TxEnd => on_tx_end(rules, scratch, at),
        Event::TxCheckerStart => on_tx_checker_start(scratch, at),
        Event::TxCheckerEnd => on_tx_checker_end(rules, scratch, at),
        Event::Exclude(range) => scratch.shadow.exclude(range),
        Event::Include(range) => scratch.shadow.include(range),
    }
}

fn on_tx_end<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    at: u32,
) {
    if scratch.tx_begins.pop().is_none() {
        rules.diags.push(Diag {
            kind: DiagKind::UnmatchedTxEnd,
            loc: (rules.locs)(at),
            range: None,
            culprit: None,
            message: "transaction end without a matching begin".to_owned(),
        });
    }
}

/// Opens (or re-opens) the checked scope; the log tree and modified list
/// are cleared in place, retaining their capacity for the recycled case.
fn on_tx_checker_start(scratch: &mut CheckerScratch, at: u32) {
    scratch.tx.active = true;
    scratch.tx.start_loc = Some(at);
    scratch.tx.log.clear();
    scratch.tx.modified.clear();
}

/// Handles one (possibly clipped) written sub-range.
fn write_sub<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    sub: ByteRange,
    at: u32,
) {
    if scratch.tx.active {
        // Missing-backup check (§5.1.1): inside a checked transaction,
        // every modified range must already be in the undo log.
        if !scratch.tx_begins.is_empty() {
            for gap in scratch.tx.log.uncovered(sub) {
                let loc = (rules.locs)(at);
                rules.diags.push(Diag {
                    kind: DiagKind::MissingLog,
                    loc,
                    range: Some(gap),
                    // The unlogged write itself is the site to fix.
                    culprit: Some(loc),
                    message: "persistent object modified inside a transaction without \
                              a prior TX_ADD backup"
                        .to_owned(),
                });
            }
        }
        if !sub.is_empty() {
            scratch.tx.modified.push(sub);
        }
    }
    rules.op(&mut scratch.shadow, Event::Write(sub), at);
}

fn tx_add_sub<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    sub: ByteRange,
    at: u32,
) {
    if !scratch.tx.active {
        return;
    }
    // Duplicate-log check (§5.1.2).
    if let Some((_, &earlier)) = scratch.tx.log.overlaps(sub).next() {
        rules.diags.push(Diag {
            kind: DiagKind::DuplicateLog,
            loc: (rules.locs)(at),
            range: Some(sub),
            culprit: Some((rules.locs)(earlier)),
            message: "object already added to the undo log in this transaction".to_owned(),
        });
    }
    scratch.tx.log.insert(sub, at);
}

/// Closes the checked scope: reports still-open transactions, then checks
/// that every range modified inside the scope persisted.
///
/// The modified ranges are checked as their union — the list sorted and
/// merged in place — which reports exactly what checking each range of a
/// per-write segment map would: every in-scope write lands in the shadow
/// memory with the same range, and only a write erases a shadow segment
/// boundary, so no shadow segment straddles a boundary of the modified set
/// and each reports once, in address order (DESIGN.md §12).
fn on_tx_checker_end<L: FnMut(u32) -> SourceLoc>(
    rules: &mut Rules<'_, L>,
    scratch: &mut CheckerScratch,
    at: u32,
) {
    if !scratch.tx.active {
        rules.diags.push(Diag {
            kind: DiagKind::UnterminatedTx,
            loc: (rules.locs)(at),
            range: None,
            culprit: None,
            message: "TX_CHECKER_END without a matching TX_CHECKER_START".to_owned(),
        });
        return;
    }
    // Incomplete-transaction check (§5.1.1).
    if !scratch.tx_begins.is_empty() {
        rules.diags.push(Diag {
            kind: DiagKind::UnterminatedTx,
            loc: (rules.locs)(at),
            range: None,
            // The innermost TX_BEGIN that was never closed.
            culprit: scratch
                .tx_begins
                .last()
                .copied()
                .or(scratch.tx.start_loc)
                .map(&mut rules.locs),
            message: format!(
                "{} transaction(s) still open at the end of the checked scope",
                scratch.tx_begins.len()
            ),
        });
    }
    // Auto-injected `isPersist` for every modified, in-scope object
    // (§5.1.1, Fig. 5b).
    merge_in_place(&mut scratch.tx.modified);
    let clipping = scratch.shadow.has_exclusions();
    for &range in &scratch.tx.modified {
        if clipping {
            for sub in scratch.shadow.in_scope(range) {
                rules.check_persist(&scratch.shadow, sub, at);
            }
        } else {
            rules.check_persist(&scratch.shadow, range, at);
        }
    }
    scratch.tx.active = false;
    scratch.tx.start_loc = None;
    scratch.tx.log.clear();
    scratch.tx.modified.clear();
}

/// Sorts `ranges` and merges overlapping or adjacent ones, in place: the
/// result is the union as disjoint ranges in address order.
fn merge_in_place(ranges: &mut Vec<ByteRange>) {
    ranges.sort_unstable_by_key(ByteRange::start);
    let mut kept = 0usize;
    for i in 0..ranges.len() {
        let next = ranges[i];
        match kept.checked_sub(1).map(|last| &mut ranges[last]) {
            Some(last) if next.start() <= last.end() => {
                *last = ByteRange::new(last.start(), last.end().max(next.end()));
            }
            _ => {
                ranges[kept] = next;
                kept += 1;
            }
        }
    }
    ranges.truncate(kept);
}

/// Checks one trace against `model`, returning all diagnostics.
///
/// This is the one-shot path; tests and custom tools can call it directly.
/// The engine's workers use [`check_packed_with`], which recycles the
/// checker's allocations across traces.
///
/// # Examples
///
/// ```
/// use pmtest_core::{check_trace, X86Model};
/// use pmtest_trace::{Event, Trace};
/// use pmtest_interval::ByteRange;
///
/// let mut trace = Trace::new(0);
/// let r = ByteRange::with_len(0, 8);
/// trace.push(Event::Write(r).here());
/// trace.push(Event::Flush(r).here());
/// trace.push(Event::Fence.here());
/// trace.push(Event::IsPersist(r).here());
/// assert!(check_trace(&trace, &X86Model::new()).is_empty());
/// ```
#[must_use]
pub fn check_trace(trace: &Trace, model: &dyn PersistencyModel) -> Vec<Diag> {
    check_trace_observed(trace, model, &mut ())
}

/// Checks one trace on fresh state like [`check_trace`], calling `obs` after
/// every entry with the shadow state that entry left behind — the entry
/// point for tools that watch the interval inference (the diagnosis-bundle
/// re-check, `pmtest-explain`'s timeline). Diagnostics are identical to
/// [`check_trace`].
///
/// # Examples
///
/// ```
/// use pmtest_core::{check_trace_observed, ReplayObserver, ShadowMemory, X86Model};
/// use pmtest_trace::{Entry, Event, Trace};
/// use pmtest_interval::ByteRange;
///
/// /// The model's epoch counter after every entry.
/// struct Epochs(Vec<u64>);
/// impl ReplayObserver for Epochs {
///     fn on_entry(&mut self, _: usize, _: &Entry, shadow: &ShadowMemory) {
///         self.0.push(shadow.timestamp());
///     }
/// }
///
/// let mut trace = Trace::new(0);
/// let r = ByteRange::with_len(0, 8);
/// trace.push(Event::Write(r).here());
/// trace.push(Event::Flush(r).here());
/// trace.push(Event::Fence.here());
/// let mut epochs = Epochs(Vec::new());
/// assert!(check_trace_observed(&trace, &X86Model::new(), &mut epochs).is_empty());
/// assert_eq!(epochs.0, [0, 0, 1]);
/// ```
pub fn check_trace_observed<O: ReplayObserver>(
    trace: &Trace,
    model: &dyn PersistencyModel,
    obs: &mut O,
) -> Vec<Diag> {
    replay(trace.packed(), model, &mut CheckerScratch::new(), &mut LocResolver::new(), obs)
}

/// Checks one trace on recycled scratch state. The scratch is reset first,
/// so results are identical to [`check_trace`]. Each call resolves locations
/// through a fresh [`LocResolver`], one allocation per trace; the engine's
/// workers keep theirs and call [`check_packed_with`].
///
/// # Examples
///
/// ```
/// use pmtest_core::{check_trace_with, CheckerScratch, X86Model};
/// use pmtest_trace::{Event, Trace};
/// use pmtest_interval::ByteRange;
///
/// let model = X86Model::new();
/// let mut scratch = CheckerScratch::new();
/// for id in 0..3 {
///     let mut trace = Trace::new(id);
///     let r = ByteRange::with_len(0, 8);
///     trace.push(Event::Write(r).here());
///     trace.push(Event::IsPersist(r).here());
///     assert_eq!(check_trace_with(&trace, &model, &mut scratch).len(), 1);
/// }
/// ```
#[must_use]
pub fn check_trace_with(
    trace: &Trace,
    model: &dyn PersistencyModel,
    scratch: &mut CheckerScratch,
) -> Vec<Diag> {
    replay(trace.packed(), model, scratch, &mut LocResolver::new(), &mut ())
}

/// Checks a packed record slice on recycled scratch state — the worker hot
/// path over arena-shipped batches. Entries are decoded one at a time on the
/// stack (locations resolved through the caller's [`LocResolver`] mirror),
/// so no per-trace `Vec<Entry>` is ever built. Diagnostics are identical to
/// decoding the slice and calling [`check_trace_with`].
#[must_use]
pub fn check_packed_with(
    words: &[PackedEntry],
    model: &dyn PersistencyModel,
    scratch: &mut CheckerScratch,
    resolver: &mut LocResolver,
) -> Vec<Diag> {
    replay(words, model, scratch, resolver, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HopsModel, X86Model};

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    fn trace(events: &[Event]) -> Trace {
        let mut t = Trace::new(0);
        for (i, &e) in events.iter().enumerate() {
            t.push(e.at(SourceLoc::new("t.rs", i as u32 + 1)));
        }
        t
    }

    fn kinds(diags: &[Diag]) -> Vec<DiagKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    #[test]
    fn figure4_trace() {
        // sfence; write A; clwb A; write B; sfence;
        // isOrderedBefore A B → FAIL; isPersist B → FAIL.
        let a = ByteRange::with_len(0x00, 8);
        let b = ByteRange::with_len(0x40, 8);
        let diags = check_trace(
            &trace(&[
                Event::Fence,
                Event::Write(a),
                Event::Flush(a),
                Event::Write(b),
                Event::Fence,
                Event::IsOrderedBefore(a, b),
                Event::IsPersist(b),
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::NotOrderedBefore, DiagKind::NotPersisted]);
        // Locations point at the checkers (lines 6 and 7).
        assert_eq!(diags[0].loc.line(), 6);
        assert_eq!(diags[1].loc.line(), 7);
        // The culprit of the isPersist failure is the write at line 4.
        assert_eq!(diags[1].culprit.map(|l| l.line()), Some(4));
    }

    #[test]
    fn figure7_trace() {
        // write(0x10,64); clwb(0x10,64); sfence; write(0x50,64);
        // isPersist(0x50,64) → FAIL; isOrderedBefore(0x10 → 0x50) → pass.
        let a = ByteRange::with_len(0x10, 64);
        let b = ByteRange::with_len(0x50, 64);
        let diags = check_trace(
            &trace(&[
                Event::Write(a),
                Event::Flush(a),
                Event::Fence,
                Event::Write(b),
                Event::IsPersist(b),
                Event::IsOrderedBefore(a, b),
            ]),
            &X86Model::new(),
        );
        // Note: [0x10,0x50) closed at 1; the overlap of a and b ([0x50,0x50))
        // is empty, so the ordering check sees A=(0,1) vs B=(1,∞) — pass.
        assert_eq!(kinds(&diags), [DiagKind::NotPersisted]);
    }

    #[test]
    fn clean_figure3a_trace() {
        let a = r(0, 8);
        let b = r(64, 72);
        let diags = check_trace(
            &trace(&[
                Event::Write(a),
                Event::Flush(a),
                Event::Fence,
                Event::Write(b),
                Event::Flush(b),
                Event::Fence,
                Event::IsOrderedBefore(a, b),
                Event::IsPersist(a),
                Event::IsPersist(b),
            ]),
            &X86Model::new(),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn clean_figure3b_trace_under_hops() {
        let a = r(0, 8);
        let b = r(64, 72);
        let diags = check_trace(
            &trace(&[
                Event::Write(a),
                Event::OFence,
                Event::Write(b),
                Event::DFence,
                Event::IsOrderedBefore(a, b),
                Event::IsPersist(a),
                Event::IsPersist(b),
            ]),
            &HopsModel::new(),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn tx_checker_detects_missing_log() {
        // Fig. 1b shape: head is TX_ADDed, length is not.
        let head = r(0, 8);
        let length = r(8, 16);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(head),
                Event::Write(head),
                Event::Write(length), // bug: no TX_ADD
                Event::Flush(r(0, 16)),
                Event::Fence,
                Event::TxEnd,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::MissingLog]);
        assert_eq!(diags[0].range, Some(length));
        assert_eq!(diags[0].loc.line(), 5);
        // The unlogged write is also the culprit to fix.
        assert_eq!(diags[0].culprit.map(|l| l.line()), Some(5));
    }

    #[test]
    fn tx_checker_detects_incomplete_transaction() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(a),
                Event::Write(a),
                Event::Flush(a),
                Event::Fence,
                // bug: no TxEnd
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::UnterminatedTx]);
        // Culprit: the TX_BEGIN (line 2) that was never closed.
        assert_eq!(diags[0].culprit.map(|l| l.line()), Some(2));
    }

    #[test]
    fn tx_checker_injects_is_persist_at_end() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(a),
                Event::Write(a),
                // bug: modified object never written back
                Event::TxEnd,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::NotPersisted]);
        assert_eq!(diags[0].culprit.map(|l| l.line()), Some(4));
    }

    #[test]
    fn tx_checker_detects_duplicate_log() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(a),
                Event::TxAdd(a), // bug: double log
                Event::Write(a),
                Event::Flush(a),
                Event::Fence,
                Event::TxEnd,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::DuplicateLog]);
        assert_eq!(diags[0].culprit.map(|l| l.line()), Some(3));
    }

    #[test]
    fn clean_transaction_passes() {
        let a = r(0, 8);
        let b = r(64, 72);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(a),
                Event::Write(a),
                Event::TxAdd(b),
                Event::Write(b),
                Event::Flush(a),
                Event::Flush(b),
                Event::Fence,
                Event::TxEnd,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn unmatched_tx_end_reported() {
        let diags = check_trace(&trace(&[Event::TxEnd]), &X86Model::new());
        assert_eq!(kinds(&diags), [DiagKind::UnmatchedTxEnd]);
    }

    #[test]
    fn tx_checker_end_without_start_reported() {
        let diags = check_trace(&trace(&[Event::TxCheckerEnd]), &X86Model::new());
        assert_eq!(kinds(&diags), [DiagKind::UnterminatedTx]);
    }

    #[test]
    fn exclusion_silences_checks_on_a_range() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::Exclude(a),
                Event::Write(a), // would be MissingLog + NotPersisted
                Event::TxEnd,
                Event::TxCheckerEnd,
                Event::IsPersist(a),
            ]),
            &X86Model::new(),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn include_restores_checking() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[Event::Exclude(a), Event::Include(a), Event::Write(a), Event::IsPersist(a)]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::NotPersisted]);
    }

    #[test]
    fn writes_outside_transactions_are_not_log_checked() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::Write(a), // outside TX_BEGIN/END: no MissingLog
                Event::Flush(a),
                Event::Fence,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn nested_transactions_must_all_terminate() {
        let a = r(0, 8);
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxBegin,
                Event::TxAdd(a),
                Event::Write(a),
                Event::Flush(a),
                Event::Fence,
                Event::TxEnd,
                // inner ended; outer still open
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::UnterminatedTx]);
        // TxEnd closed the inner begin (line 3); the outer (line 2) is the
        // one still open.
        assert_eq!(diags[0].culprit.map(|l| l.line()), Some(2));
    }

    #[test]
    fn partial_log_coverage_reports_only_the_gap() {
        let diags = check_trace(
            &trace(&[
                Event::TxCheckerStart,
                Event::TxBegin,
                Event::TxAdd(r(0, 8)),
                Event::Write(r(0, 16)), // bytes 8..16 unlogged
                Event::Flush(r(0, 16)),
                Event::Fence,
                Event::TxEnd,
                Event::TxCheckerEnd,
            ]),
            &X86Model::new(),
        );
        assert_eq!(kinds(&diags), [DiagKind::MissingLog]);
        assert_eq!(diags[0].range, Some(r(8, 16)));
    }
}
