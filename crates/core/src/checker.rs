use pmtest_interval::{ByteRange, IntervalTree, SegmentMap};
use pmtest_trace::packed::decode_next;
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
/// *allocations* (segment vectors, interval-tree arena, interner) are
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
    /// Locations of the currently open `TX_BEGIN`s, innermost last (the
    /// stack's length is the transaction nesting depth). Kept so an
    /// unterminated-transaction diagnostic can name the begin that was
    /// never closed as its culprit.
    tx_begins: Vec<SourceLoc>,
    /// Reused buffer for the modified-object sweep at `TX_CHECKER_END`.
    modified_ranges: Vec<ByteRange>,
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
        self.modified_ranges.clear();
        // reported_repr_switches intentionally survives: the underlying
        // counters are cumulative across resets.
    }

    /// Read access to the shadow memory (for tests and custom checkers).
    #[must_use]
    pub fn shadow(&self) -> &ShadowMemory {
        &self.shadow
    }

    /// Cumulative flat→BTree representation switches across this scratch's
    /// segment maps (shadow memory plus the transaction modified-set).
    #[must_use]
    pub fn repr_switches(&self) -> u64 {
        self.shadow.repr_switches() + self.tx.modified.repr_switches()
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
    start_loc: Option<SourceLoc>,
    /// Ranges backed up by `TX_ADD`, attributed to the call that logged them.
    log: IntervalTree<SourceLoc>,
    /// Ranges modified inside the scope, attributed to the last write.
    modified: SegmentMap<SourceLoc>,
}

/// Applies one *operation* event. For the built-in models the rules are
/// called directly — no dynamic dispatch, no per-event [`Entry`]
/// reconstruction; custom models take the object-safe path. Both run the
/// same rule code (`x86_op`/`hops_op`), so diagnostics are identical.
#[inline]
fn apply_op(
    fast: Option<BuiltinModel>,
    model: &dyn PersistencyModel,
    shadow: &mut ShadowMemory,
    event: Event,
    loc: SourceLoc,
    diags: &mut Vec<Diag>,
) {
    match fast {
        Some(BuiltinModel::X86 { warn_performance }) => {
            x86_op(warn_performance, shadow, event, loc, diags);
        }
        Some(BuiltinModel::Hops) => hops_op(shadow, event, loc, diags),
        None => model.apply(shadow, &event.at(loc), diags),
    }
}

#[inline]
fn do_check_persist(
    fast: Option<BuiltinModel>,
    model: &dyn PersistencyModel,
    shadow: &ShadowMemory,
    range: ByteRange,
    loc: SourceLoc,
    diags: &mut Vec<Diag>,
) {
    match fast {
        Some(_) => persist_failure(shadow, range, loc, diags),
        None => model.check_persist(shadow, range, loc, diags),
    }
}

#[inline]
fn do_check_ordered_before(
    fast: Option<BuiltinModel>,
    model: &dyn PersistencyModel,
    shadow: &ShadowMemory,
    first: ByteRange,
    second: ByteRange,
    loc: SourceLoc,
    diags: &mut Vec<Diag>,
) {
    match fast {
        Some(BuiltinModel::X86 { .. }) => x86_ordered_before(shadow, first, second, loc, diags),
        Some(BuiltinModel::Hops) => hops_ordered_before(shadow, first, second, loc, diags),
        None => model.check_ordered_before(shadow, first, second, loc, diags),
    }
}

/// A per-entry hook on the replay walk: called once per entry, in program
/// order, right after the checker applied it, with the shadow state it left
/// behind. The engine's timing and profiling layers, the diagnosis-bundle
/// step capture, and `pmtest-explain`'s timeline are observers; the plain
/// replay passes `()`, which compiles to the bare loop. Run one with
/// [`check_trace_observed`].
pub trait ReplayObserver {
    /// Observes entry `index` of the trace.
    fn on_entry(&mut self, index: usize, entry: &Entry, shadow: &ShadowMemory);
}

impl ReplayObserver for () {
    #[inline(always)]
    fn on_entry(&mut self, _: usize, _: &Entry, _: &ShadowMemory) {}
}

/// Validates one trace against a persistency model's checking rules (§4.4)
/// and the high-level transaction checkers (§5.1) — the one replay walk
/// every check runs.
///
/// The walk decodes the packed records one entry at a time on the stack
/// (no `Vec<Entry>` is built) and applies each in a single fused pass:
/// operations update the [`ShadowMemory`] (for the built-in models the
/// rules are inlined, bypassing dynamic dispatch), checkers are validated
/// against it in place, and the transaction checker maintains the *log
/// tree* of `TX_ADD`ed ranges plus the set of objects modified inside the
/// checked scope. `obs` sees each entry right after it is applied.
pub(crate) fn replay<O: ReplayObserver>(
    words: &[PackedEntry],
    model: &dyn PersistencyModel,
    scratch: &mut CheckerScratch,
    resolver: &mut LocResolver,
    obs: &mut O,
) -> Vec<Diag> {
    scratch.reset();
    let fast = model.builtin();
    let mut diags = Vec::new();
    let mut i = 0;
    let mut index = 0;
    while let Some((entry, next)) = decode_next(words, i, resolver) {
        process(model, fast, scratch, &mut diags, &entry);
        obs.on_entry(index, &entry, &scratch.shadow);
        i = next;
        index += 1;
    }
    diags
}

/// Applies one entry.
fn process(
    model: &dyn PersistencyModel,
    fast: Option<BuiltinModel>,
    scratch: &mut CheckerScratch,
    diags: &mut Vec<Diag>,
    entry: &Entry,
) {
    // Fast path: no exclusions active (the overwhelmingly common case), so
    // no range clipping and no per-event allocation is needed.
    if !scratch.shadow.has_exclusions() {
        return process_unclipped(model, fast, scratch, diags, entry);
    }
    match entry.event {
        Event::Write(range) => {
            for sub in scratch.shadow.in_scope(range) {
                write_sub(model, fast, scratch, diags, sub, entry.loc);
            }
        }
        Event::Flush(range) => {
            for sub in scratch.shadow.in_scope(range) {
                apply_op(fast, model, &mut scratch.shadow, Event::Flush(sub), entry.loc, diags);
            }
        }
        Event::Fence | Event::OFence | Event::DFence => {
            apply_op(fast, model, &mut scratch.shadow, entry.event, entry.loc, diags);
        }
        Event::TxBegin => scratch.tx_begins.push(entry.loc),
        Event::TxEnd => on_tx_end(scratch, diags, entry.loc),
        Event::TxAdd(range) => {
            if scratch.tx.active {
                for sub in scratch.shadow.in_scope(range) {
                    tx_add_sub(scratch, diags, sub, entry.loc);
                }
            }
        }
        Event::IsPersist(range) => {
            for sub in scratch.shadow.in_scope(range) {
                do_check_persist(fast, model, &scratch.shadow, sub, entry.loc, diags);
            }
        }
        Event::IsOrderedBefore(first, second) => {
            for a in scratch.shadow.in_scope(first) {
                for b in scratch.shadow.in_scope(second) {
                    do_check_ordered_before(fast, model, &scratch.shadow, a, b, entry.loc, diags);
                }
            }
        }
        Event::TxCheckerStart => on_tx_checker_start(scratch, entry.loc),
        Event::TxCheckerEnd => on_tx_checker_end(model, fast, scratch, diags, entry.loc),
        Event::Exclude(range) => scratch.shadow.exclude(range),
        Event::Include(range) => scratch.shadow.include(range),
    }
}

/// The no-exclusions fast path of [`process`]: identical
/// semantics with every range passed through whole.
fn process_unclipped(
    model: &dyn PersistencyModel,
    fast: Option<BuiltinModel>,
    scratch: &mut CheckerScratch,
    diags: &mut Vec<Diag>,
    entry: &Entry,
) {
    match entry.event {
        Event::Write(range) => write_sub(model, fast, scratch, diags, range, entry.loc),
        Event::Flush(_) | Event::Fence | Event::OFence | Event::DFence => {
            apply_op(fast, model, &mut scratch.shadow, entry.event, entry.loc, diags);
        }
        Event::IsPersist(range) => {
            do_check_persist(fast, model, &scratch.shadow, range, entry.loc, diags);
        }
        Event::IsOrderedBefore(first, second) => {
            do_check_ordered_before(fast, model, &scratch.shadow, first, second, entry.loc, diags);
        }
        Event::TxAdd(range) => tx_add_sub(scratch, diags, range, entry.loc),
        Event::TxBegin => scratch.tx_begins.push(entry.loc),
        Event::TxEnd => on_tx_end(scratch, diags, entry.loc),
        Event::TxCheckerStart => on_tx_checker_start(scratch, entry.loc),
        Event::TxCheckerEnd => on_tx_checker_end(model, fast, scratch, diags, entry.loc),
        Event::Exclude(range) => scratch.shadow.exclude(range),
        Event::Include(range) => scratch.shadow.include(range),
    }
}

fn on_tx_end(scratch: &mut CheckerScratch, diags: &mut Vec<Diag>, loc: SourceLoc) {
    if scratch.tx_begins.pop().is_none() {
        diags.push(Diag {
            kind: DiagKind::UnmatchedTxEnd,
            loc,
            range: None,
            culprit: None,
            message: "transaction end without a matching begin".to_owned(),
        });
    }
}

/// Opens (or re-opens) the checked scope; the log tree and modified set are
/// cleared in place, retaining their capacity for the recycled case.
fn on_tx_checker_start(scratch: &mut CheckerScratch, loc: SourceLoc) {
    scratch.tx.active = true;
    scratch.tx.start_loc = Some(loc);
    scratch.tx.log.clear();
    scratch.tx.modified.clear();
}

/// Handles one (possibly clipped) written sub-range.
fn write_sub(
    model: &dyn PersistencyModel,
    fast: Option<BuiltinModel>,
    scratch: &mut CheckerScratch,
    diags: &mut Vec<Diag>,
    sub: ByteRange,
    loc: SourceLoc,
) {
    // Missing-backup check (§5.1.1): inside a checked transaction, every
    // modified range must already be in the undo log.
    if scratch.tx.active && !scratch.tx_begins.is_empty() {
        for gap in scratch.tx.log.uncovered(sub) {
            diags.push(Diag {
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
    if scratch.tx.active {
        scratch.tx.modified.insert(sub, loc);
    }
    apply_op(fast, model, &mut scratch.shadow, Event::Write(sub), loc, diags);
}

fn tx_add_sub(scratch: &mut CheckerScratch, diags: &mut Vec<Diag>, sub: ByteRange, loc: SourceLoc) {
    if !scratch.tx.active {
        return;
    }
    // Duplicate-log check (§5.1.2).
    if let Some((_, earlier)) = scratch.tx.log.overlaps(sub).next() {
        diags.push(Diag {
            kind: DiagKind::DuplicateLog,
            loc,
            range: Some(sub),
            culprit: Some(*earlier),
            message: "object already added to the undo log in this transaction".to_owned(),
        });
    }
    scratch.tx.log.insert(sub, loc);
}

fn on_tx_checker_end(
    model: &dyn PersistencyModel,
    fast: Option<BuiltinModel>,
    scratch: &mut CheckerScratch,
    diags: &mut Vec<Diag>,
    loc: SourceLoc,
) {
    if !scratch.tx.active {
        diags.push(Diag {
            kind: DiagKind::UnterminatedTx,
            loc,
            range: None,
            culprit: None,
            message: "TX_CHECKER_END without a matching TX_CHECKER_START".to_owned(),
        });
        return;
    }
    // Incomplete-transaction check (§5.1.1).
    if !scratch.tx_begins.is_empty() {
        diags.push(Diag {
            kind: DiagKind::UnterminatedTx,
            loc,
            range: None,
            // The innermost TX_BEGIN that was never closed.
            culprit: scratch.tx_begins.last().copied().or(scratch.tx.start_loc),
            message: format!(
                "{} transaction(s) still open at the end of the checked scope",
                scratch.tx_begins.len()
            ),
        });
    }
    // Auto-injected `isPersist` for every modified, in-scope object
    // (§5.1.1, Fig. 5b). The range list goes through a recycled buffer.
    let mut ranges = std::mem::take(&mut scratch.modified_ranges);
    ranges.clear();
    ranges.extend(scratch.tx.modified.iter().map(|(r, _)| r));
    let clipping = scratch.shadow.has_exclusions();
    for &range in &ranges {
        if clipping {
            for sub in scratch.shadow.in_scope(range) {
                do_check_persist(fast, model, &scratch.shadow, sub, loc, diags);
            }
        } else {
            do_check_persist(fast, model, &scratch.shadow, range, loc, diags);
        }
    }
    scratch.modified_ranges = ranges;
    scratch.tx.active = false;
    scratch.tx.start_loc = None;
    scratch.tx.log.clear();
    scratch.tx.modified.clear();
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

/// Maximum number of distinct ranges the clean-lane DFA tracks before it
/// defers to the full checker. The paper's microbenchmark traces (Fig. 10a)
/// touch one or two objects; four slots covers them with room to spare.
const FAST_SLOTS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum FastState {
    Dirty,
    Flushed,
    Persisted,
}

/// The *clean lane*: a conservative single-pass DFA over packed records that
/// answers "is this trace certainly diagnostic-free under `model`?" without
/// decoding entries, resolving locations, or touching shadow memory.
///
/// The DFA tracks up to `FAST_SLOTS` (4) mutually disjoint ranges, each
/// matched *exactly* (same start and end on every reappearance), through
/// `dirty → flushed → persisted`. Anything it is not absolutely sure about —
/// partially overlapping ranges, transaction events, ordering checkers,
/// scope control, ops foreign to the model, a flush that could draw a
/// performance warning — makes it bail with `false`, and the caller runs the
/// full checker. `true` is a proof: the full checker would emit no
/// diagnostics, so the report is byte-identical either way (an empty
/// diagnostics list), verified by a differential property test.
#[must_use]
pub fn packed_clean(model: BuiltinModel, words: &[PackedEntry]) -> bool {
    let hops = matches!(model, BuiltinModel::Hops);
    let mut slots = [(0u64, 0u64, FastState::Dirty); FAST_SLOTS];
    let mut used = 0usize;
    for w in words {
        match w.op() {
            PackedOp::Write => {
                let (lo, hi) = (w.lo(), w.hi());
                if lo >= hi {
                    return false; // empty write: stay out of corner cases
                }
                let mut found = false;
                for s in slots[..used].iter_mut() {
                    if s.0 == lo && s.1 == hi {
                        // Re-dirty: matches the model resetting the flush
                        // interval on overwrite.
                        s.2 = FastState::Dirty;
                        found = true;
                        break;
                    }
                    if lo < s.1 && s.0 < hi {
                        return false; // partial overlap: defer
                    }
                }
                if !found {
                    if used == FAST_SLOTS {
                        return false;
                    }
                    slots[used] = (lo, hi, FastState::Dirty);
                    used += 1;
                }
            }
            PackedOp::Flush => {
                if hops {
                    return false; // foreign op under HOPS
                }
                let (lo, hi) = (w.lo(), w.hi());
                let mut closed = false;
                for s in slots[..used].iter_mut() {
                    if s.0 == lo && s.1 == hi {
                        if s.2 != FastState::Dirty {
                            return false; // duplicate flush may warn
                        }
                        s.2 = FastState::Flushed;
                        closed = true;
                        break;
                    }
                    if lo < s.1 && s.0 < hi {
                        return false;
                    }
                }
                if !closed {
                    return false; // flush of an unwritten range may warn
                }
            }
            PackedOp::Fence => {
                if hops {
                    return false;
                }
                for s in slots[..used].iter_mut() {
                    if s.2 == FastState::Flushed {
                        s.2 = FastState::Persisted;
                    }
                }
            }
            PackedOp::OFence => {
                if !hops {
                    return false; // foreign op under x86
                }
                // Epoch boundary: orders, persists nothing.
            }
            PackedOp::DFence => {
                if !hops {
                    return false;
                }
                for s in slots[..used].iter_mut() {
                    s.2 = FastState::Persisted;
                }
            }
            PackedOp::IsPersist => {
                let (lo, hi) = (w.lo(), w.hi());
                if lo >= hi {
                    return false;
                }
                for s in slots[..used].iter() {
                    if s.0 == lo && s.1 == hi {
                        if s.2 != FastState::Persisted {
                            return false; // would FAIL — full checker reports it
                        }
                        break;
                    }
                    if lo < s.1 && s.0 < hi {
                        return false;
                    }
                }
                // Disjoint from every tracked range: the checker would pass
                // it only if the range was never written — which holds, or
                // the write would have landed in a slot or bailed.
            }
            // Transactions, ordering checkers, scope control, continuation
            // records: always the full checker's business.
            _ => return false,
        }
    }
    true
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
