//! Differential test of the replay's shortcuts against a reference checker.
//!
//! The replay (`check_packed_with`) keeps only the state its diagnostics
//! read: locations stay the packed records' interned ids until a diagnostic
//! needs one, the shadow memory collects the ranges a `dfence` closes only
//! in a trace that holds a `dfence` record, and a checked transaction scope
//! keeps an append-only list of written ranges that `TX_CHECKER_END` sorts
//! and merges once. The reference below checks the same traces the long
//! way: it walks decoded entries through the models' object-safe methods
//! (locations interned from each entry's `SourceLoc`), on a shadow memory
//! that always collects open writes, with a scope that keeps a per-segment
//! `SegmentMap` of modified ranges attributed to their last write and
//! checks each segment at `TX_CHECKER_END`. Both must emit identical
//! diagnostics — kind, location, range, culprit, message — in the same
//! order.
//!
//! The generator draws from a small universe of overlapping, nested,
//! adjacent, disjoint and empty ranges, so in-scope writes overlap, flushes
//! split segments mid-scope, `Exclude`/`Include` clip a scope's ranges, and
//! scopes nest, re-open and stay unterminated; `dfence` is rare enough that
//! about half the traces hold none, under x86 (where it is foreign) and
//! HOPS alike.

use pmtest_core::{
    check_packed_with, CheckerScratch, Diag, DiagKind, HopsModel, PersistencyModel, ShadowMemory,
    X86Model,
};
use pmtest_interval::{ByteRange, IntervalTree, SegmentMap};
use pmtest_trace::{Entry, Event, LocResolver, SourceLoc, Trace};
use proptest::prelude::*;

/// The reference's checked-transaction scope: the modified ranges kept per
/// segment, each attributed to its last write.
#[derive(Default)]
struct RefScope {
    active: bool,
    start_loc: Option<SourceLoc>,
    log: IntervalTree<SourceLoc>,
    modified: SegmentMap<SourceLoc>,
}

/// The reference replay state.
struct Reference<'a> {
    model: &'a dyn PersistencyModel,
    shadow: ShadowMemory,
    scope: RefScope,
    begins: Vec<SourceLoc>,
    diags: Vec<Diag>,
}

impl<'a> Reference<'a> {
    fn check(trace: &Trace, model: &'a dyn PersistencyModel) -> Vec<Diag> {
        let mut r = Reference {
            model,
            shadow: ShadowMemory::new(),
            scope: RefScope::default(),
            begins: Vec::new(),
            diags: Vec::new(),
        };
        for entry in trace.entries() {
            r.entry(entry);
        }
        r.diags
    }

    fn entry(&mut self, Entry { event, loc }: Entry) {
        match event {
            Event::Write(range) => {
                for sub in self.shadow.in_scope(range) {
                    self.write(sub, loc);
                }
            }
            Event::Flush(range) => {
                for sub in self.shadow.in_scope(range) {
                    self.op(Event::Flush(sub), loc);
                }
            }
            Event::Fence | Event::OFence | Event::DFence => self.op(event, loc),
            Event::TxBegin => self.begins.push(loc),
            Event::TxEnd => {
                if self.begins.pop().is_none() {
                    self.diag(
                        DiagKind::UnmatchedTxEnd,
                        loc,
                        None,
                        None,
                        "transaction end without a matching begin".to_owned(),
                    );
                }
            }
            Event::TxAdd(range) => {
                if self.scope.active {
                    for sub in self.shadow.in_scope(range) {
                        if let Some((_, &earlier)) = self.scope.log.overlaps(sub).next() {
                            let message =
                                "object already added to the undo log in this transaction";
                            self.diag(
                                DiagKind::DuplicateLog,
                                loc,
                                Some(sub),
                                Some(earlier),
                                message.to_owned(),
                            );
                        }
                        self.scope.log.insert(sub, loc);
                    }
                }
            }
            Event::IsPersist(range) => {
                for sub in self.shadow.in_scope(range) {
                    self.model.check_persist(&self.shadow, sub, loc, &mut self.diags);
                }
            }
            Event::IsOrderedBefore(first, second) => {
                for a in self.shadow.in_scope(first) {
                    for b in self.shadow.in_scope(second) {
                        self.model.check_ordered_before(&self.shadow, a, b, loc, &mut self.diags);
                    }
                }
            }
            Event::TxCheckerStart => {
                self.scope.active = true;
                self.scope.start_loc = Some(loc);
                self.scope.log.clear();
                self.scope.modified.clear();
            }
            Event::TxCheckerEnd => self.checker_end(loc),
            Event::Exclude(range) => self.shadow.exclude(range),
            Event::Include(range) => self.shadow.include(range),
        }
    }

    fn op(&mut self, event: Event, loc: SourceLoc) {
        self.model.apply(&mut self.shadow, &event.at(loc), &mut self.diags);
    }

    fn write(&mut self, sub: ByteRange, loc: SourceLoc) {
        if self.scope.active && !self.begins.is_empty() {
            for gap in self.scope.log.uncovered(sub) {
                let message = "persistent object modified inside a transaction without a prior \
                               TX_ADD backup";
                self.diag(DiagKind::MissingLog, loc, Some(gap), Some(loc), message.to_owned());
            }
        }
        if self.scope.active {
            self.scope.modified.insert(sub, loc);
        }
        self.op(Event::Write(sub), loc);
    }

    fn checker_end(&mut self, loc: SourceLoc) {
        if !self.scope.active {
            let message = "TX_CHECKER_END without a matching TX_CHECKER_START".to_owned();
            self.diag(DiagKind::UnterminatedTx, loc, None, None, message);
            return;
        }
        if !self.begins.is_empty() {
            let culprit = self.begins.last().copied().or(self.scope.start_loc);
            let message = format!(
                "{} transaction(s) still open at the end of the checked scope",
                self.begins.len()
            );
            self.diag(DiagKind::UnterminatedTx, loc, None, culprit, message);
        }
        let segments: Vec<ByteRange> = self.scope.modified.iter().map(|(r, _)| r).collect();
        for range in segments {
            for sub in self.shadow.in_scope(range) {
                self.model.check_persist(&self.shadow, sub, loc, &mut self.diags);
            }
        }
        self.scope = RefScope::default();
    }

    fn diag(
        &mut self,
        kind: DiagKind,
        loc: SourceLoc,
        range: Option<ByteRange>,
        culprit: Option<SourceLoc>,
        message: String,
    ) {
        self.diags.push(Diag { kind, loc, range, culprit, message });
    }
}

/// A small universe of ranges that overlap, nest, abut, stand apart and
/// include an empty one.
fn arb_range() -> impl Strategy<Value = ByteRange> {
    prop_oneof![
        Just(ByteRange::new(0, 8)),
        Just(ByteRange::new(0, 16)),
        Just(ByteRange::new(4, 12)),
        Just(ByteRange::new(8, 16)),
        Just(ByteRange::new(8, 24)),
        Just(ByteRange::new(12, 20)),
        Just(ByteRange::new(16, 32)),
        Just(ByteRange::new(32, 64)),
        Just(ByteRange::new(40, 48)),
        Just(ByteRange::new(6, 6)),
    ]
}

/// Every event kind. `dfence` is rare (about half of the traces hold none);
/// writes and flushes dominate so scopes see overlapping writes and
/// mid-scope splits.
fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        8 => arb_range().prop_map(Event::Write),
        4 => arb_range().prop_map(Event::Flush),
        3 => Just(Event::Fence),
        1 => Just(Event::OFence),
        1 => Just(Event::DFence),
        2 => Just(Event::TxBegin),
        2 => Just(Event::TxEnd),
        4 => arb_range().prop_map(Event::TxAdd),
        2 => arb_range().prop_map(Event::IsPersist),
        1 => (arb_range(), arb_range()).prop_map(|(a, b)| Event::IsOrderedBefore(a, b)),
        3 => Just(Event::TxCheckerStart),
        3 => Just(Event::TxCheckerEnd),
        1 => arb_range().prop_map(Event::Exclude),
        1 => arb_range().prop_map(Event::Include),
    ]
}

/// A trace whose every entry has its own source line, so a culprit names
/// the exact entry it came from.
fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(arb_event(), 0..40).prop_map(|events| {
        let mut t = Trace::new(0);
        for (i, e) in events.into_iter().enumerate() {
            t.push(e.at(SourceLoc::new("replay_reference.rs", i as u32 + 1)));
        }
        t
    })
}

fn models() -> [Box<dyn PersistencyModel>; 3] {
    [
        Box::new(X86Model::new()),
        Box::new(X86Model::without_performance_checks()),
        Box::new(HopsModel::new()),
    ]
}

/// Checks `trace` both ways under every built-in model, on scratch and a
/// resolver recycled across calls as an engine worker recycles them.
fn assert_agrees(trace: &Trace, scratch: &mut CheckerScratch, resolver: &mut LocResolver) {
    for model in models() {
        let got = check_packed_with(trace.packed(), model.as_ref(), scratch, resolver);
        let want = Reference::check(trace, model.as_ref());
        assert_eq!(
            got,
            want,
            "{} diverges from the reference on {:?}",
            model.name(),
            trace.entries()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A few traces in a row on one recycled scratch, so a trace's state
    /// (a `dfence`-free scan, a scope's list) must not leak into the next.
    #[test]
    fn replay_matches_the_reference_checker(traces in proptest::collection::vec(arb_trace(), 1..4)) {
        let mut scratch = CheckerScratch::new();
        let mut resolver = LocResolver::new();
        for trace in &traces {
            assert_agrees(trace, &mut scratch, &mut resolver);
        }
    }
}

/// Traces that pin each shortcut's boundary case, checked on one recycled
/// scratch in sequence: a `dfence` trace right after `dfence`-free ones,
/// and a scope whose later writes cover, split and re-join earlier ones.
#[test]
fn pinned_shortcut_cases_match_the_reference_checker() {
    let r = ByteRange::new;
    let scoped = |events: &[Event]| {
        let mut all = vec![Event::TxCheckerStart, Event::TxBegin];
        all.extend_from_slice(events);
        all.extend([Event::TxEnd, Event::TxCheckerEnd]);
        all
    };
    let cases: Vec<Vec<Event>> = vec![
        // No dfence: the open writes are never collected.
        vec![Event::Write(r(0, 8)), Event::Write(r(4, 12)), Event::IsPersist(r(0, 16))],
        // A foreign dfence closes both writes, split at every write's ends.
        vec![
            Event::Write(r(8, 16)),
            Event::Write(r(0, 24)),
            Event::DFence,
            Event::Write(r(4, 12)),
            Event::IsPersist(r(0, 24)),
        ],
        // Two adjacent writes, a flush splitting the first, a rewrite
        // joining both: the scope checks the union once per segment.
        scoped(&[
            Event::TxAdd(r(0, 32)),
            Event::Write(r(0, 8)),
            Event::Write(r(8, 16)),
            Event::Flush(r(4, 12)),
            Event::Fence,
            Event::Write(r(4, 12)),
            Event::Write(r(16, 32)),
        ]),
        // An exclusion inside the scope clips the check at the end.
        scoped(&[
            Event::Write(r(0, 16)),
            Event::Exclude(r(4, 8)),
            Event::Write(r(8, 24)),
            Event::Include(r(4, 6)),
        ]),
        // A re-opened scope forgets the first scope's writes.
        vec![
            Event::TxCheckerStart,
            Event::Write(r(0, 8)),
            Event::TxCheckerStart,
            Event::Write(r(8, 16)),
            Event::TxCheckerEnd,
            Event::TxCheckerEnd,
        ],
    ];
    let mut scratch = CheckerScratch::new();
    let mut resolver = LocResolver::new();
    for events in cases {
        let trace = Trace::from_entries(
            0,
            events
                .iter()
                .enumerate()
                .map(|(i, e)| e.at(SourceLoc::new("pinned.rs", i as u32 + 1)))
                .collect(),
        );
        assert_agrees(&trace, &mut scratch, &mut resolver);
    }
}
