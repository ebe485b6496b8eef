use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use pmtest_interval::{ByteRange, SegmentMap};
use pmtest_trace::packed::{intern_loc, resolve_loc};
use pmtest_trace::SourceLoc;

use crate::epoch::{Epoch, EpochInterval};

/// The persistency status of one tracked address range (§4.4).
///
/// * `persist` — the epoch window in which the last write to this range may
///   become durable;
/// * `flush` — the window in which an issued writeback may take effect
///   (x86 only; the HOPS rules never set it, §5.2).
///
/// Source locations of the responsible write/flush are kept so diagnostics
/// can point at the culprit operation, not just the failing checker. They
/// are kept as the process-wide location ids the packed trace records carry
/// ([`intern_loc`](pmtest_trace::packed::intern_loc)), exactly as recorded:
/// the replay never re-interns a location, and the 4-byte id keeps this
/// state `Copy` when a write splits into many segments. Resolve them with
/// [`ShadowMemory::resolve_loc`]. The state is 64 bytes: two 24-byte
/// `Option<EpochInterval>`s and two 8-byte `Option<u32>`s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegState {
    /// Persist interval of the last write, if the range was written.
    pub persist: Option<EpochInterval>,
    /// Flush interval of the last writeback, if one was issued.
    pub flush: Option<EpochInterval>,
    /// Location id of the last write.
    pub write_loc: Option<u32>,
    /// Location id of the last writeback.
    pub flush_loc: Option<u32>,
}

/// What a writeback observed about the ranges it covered, used by the
/// performance checkers (§5.1.2).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlushObservation {
    /// Sub-ranges that had never been written (nothing to write back).
    pub unmodified: Vec<ByteRange>,
    /// Sub-ranges already covered by an issued or completed writeback, with
    /// the location id of the earlier writeback (or, failing that, write);
    /// resolve it with [`ShadowMemory::resolve_loc`].
    pub duplicate: Vec<(ByteRange, Option<u32>)>,
}

/// The per-trace shadow memory: a segment map from modified address ranges
/// to their persistency status, plus the global epoch timestamp (§4.4).
///
/// Every trace is checked against a *logically* fresh `ShadowMemory`; traces
/// are independent units of checking. The instance itself is built to be
/// recycled: [`clear`](Self::clear) resets the state while keeping every
/// backing allocation (segment vectors, range lists). Operations rewrite
/// segment state in place wherever they land on existing segment
/// boundaries, so once a pooled shadow memory has seen a trace's shape it
/// replays it without touching the allocator — as long as its segment map
/// stays in the flat representation (up to 2048 segments; see
/// [`SegmentMap`]).
///
/// # Examples
///
/// ```
/// use pmtest_core::ShadowMemory;
/// use pmtest_interval::ByteRange;
/// use pmtest_trace::SourceLoc;
///
/// let mut shadow = ShadowMemory::new();
/// let r = ByteRange::with_len(0x10, 64);
/// shadow.record_write(r, SourceLoc::here());
/// shadow.record_flush(r, SourceLoc::here());
/// assert!(!shadow.is_persisted(r));
/// shadow.fence();
/// assert!(shadow.is_persisted(r));
/// ```
pub struct ShadowMemory {
    map: SegmentMap<SegState>,
    timestamp: Epoch,
    /// Ranges with a writeback issued since the last fence.
    open_flushes: Vec<ByteRange>,
    /// Ranges written since the last durability fence (for `dfence`), each
    /// once. A `dfence` depends only on this set — it closes the persist
    /// intervals over each range and splits segments at each range's ends,
    /// in any order — so a repeated write adds nothing, and the set holds the
    /// distinct ranges written rather than one entry per write.
    open_writes: HashSet<ByteRange, BuildHasherDefault<RangeHasher>>,
    /// Whether writes are added to `open_writes`. Only a `dfence` reads the
    /// set, so the replay turns this off for a built-in model's trace that
    /// holds no `dfence` record ([`set_open_write_tracking`]); it is on
    /// otherwise.
    ///
    /// [`set_open_write_tracking`]: Self::set_open_write_tracking
    track_open_writes: bool,
    excluded: SegmentMap<()>,
}

impl Default for ShadowMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowMemory {
    /// Creates an empty shadow memory at epoch 0.
    #[must_use]
    pub fn new() -> Self {
        Self {
            map: SegmentMap::new(),
            timestamp: 0,
            open_flushes: Vec::new(),
            open_writes: HashSet::default(),
            track_open_writes: true,
            excluded: SegmentMap::new(),
        }
    }

    /// Resets to the empty epoch-0 state while retaining every backing
    /// allocation, so a recycled shadow memory checks its next trace without
    /// allocating. Equivalent to `*self = ShadowMemory::new()` semantically.
    pub fn clear(&mut self) {
        self.map.clear();
        self.timestamp = 0;
        self.open_flushes.clear();
        self.open_writes.clear();
        self.track_open_writes = true;
        self.excluded.clear();
    }

    /// Stops (or resumes) collecting the ranges a `dfence` closes. The replay
    /// turns collection off for a trace in which no `dfence` can run.
    pub(crate) fn set_open_write_tracking(&mut self, on: bool) {
        self.track_open_writes = on;
    }

    /// The current global epoch.
    #[must_use]
    pub fn timestamp(&self) -> Epoch {
        self.timestamp
    }

    /// Resolves a location id stored in a [`SegState`] or a flush
    /// observation through the process-wide table.
    #[must_use]
    pub fn resolve_loc(&self, id: u32) -> SourceLoc {
        resolve_loc(id)
    }

    /// Times the underlying segment maps migrated from their flat small-map
    /// representation to the BTree (cumulative; survives
    /// [`clear`](Self::clear)).
    #[must_use]
    pub fn repr_switches(&self) -> u64 {
        self.map.repr_switches() + self.excluded.repr_switches()
    }

    /// Records a store: clears any previous status over `range` and opens a
    /// fresh persist interval at the current epoch (§4.4 `write` rule).
    pub fn record_write(&mut self, range: ByteRange, loc: SourceLoc) {
        self.write(range, intern_loc(loc));
    }

    /// [`record_write`](Self::record_write) with the location's interned id.
    pub(crate) fn write(&mut self, range: ByteRange, loc: u32) {
        if range.is_empty() {
            return;
        }
        self.map.insert(
            range,
            SegState {
                persist: Some(EpochInterval::open(self.timestamp)),
                flush: None,
                write_loc: Some(loc),
                flush_loc: None,
            },
        );
        if self.track_open_writes {
            self.open_writes.insert(range);
        }
    }

    /// Records a writeback: opens a flush interval over `range` and reports
    /// what the performance checkers need (§4.4 `clwb` rule, §5.1.2).
    pub fn record_flush(&mut self, range: ByteRange, loc: SourceLoc) -> FlushObservation {
        self.flush(range, intern_loc(loc))
    }

    /// [`record_flush`](Self::record_flush) with the location's interned id.
    pub(crate) fn flush(&mut self, range: ByteRange, loc: u32) -> FlushObservation {
        let mut obs = FlushObservation::default();
        if range.is_empty() {
            return obs;
        }
        let ts = self.timestamp;
        self.map.update_range(range, |sub, cur| match cur {
            None => {
                // Never written: flushing unmodified data.
                obs.unmodified.push(sub);
                Some(SegState {
                    persist: None,
                    flush: Some(EpochInterval::open(ts)),
                    write_loc: None,
                    flush_loc: Some(loc),
                })
            }
            Some(state) => {
                let mut state = *state;
                let already_flushed = match (&state.flush, &state.persist) {
                    // A writeback is already in flight for this data.
                    (Some(f), _) if !f.is_closed() => true,
                    // The data already persisted and was not rewritten since.
                    (_, Some(p)) if p.is_closed() => true,
                    // Never written at all but flushed before.
                    (Some(_), None) => true,
                    _ => false,
                };
                if already_flushed {
                    obs.duplicate.push((sub, state.flush_loc.or(state.write_loc)));
                }
                if state.persist.is_none() && state.flush.is_some() {
                    // Re-flushing a never-written range: also unmodified.
                    obs.unmodified.push(sub);
                }
                state.flush = Some(EpochInterval::open(ts));
                state.flush_loc = Some(loc);
                Some(state)
            }
        });
        self.open_flushes.push(range);
        obs
    }
    /// An `sfence` (§4.4): advances the epoch, completes issued writebacks,
    /// and closes the persist intervals they cover.
    pub fn fence(&mut self) {
        self.timestamp += 1;
        let ts = self.timestamp;
        for &range in &self.open_flushes {
            self.map.update_range(range, |_, cur| {
                let mut state = *cur?;
                if let Some(f) = &mut state.flush {
                    if !f.is_closed() {
                        f.close(ts);
                        if let Some(p) = &mut state.persist {
                            p.close(ts);
                        }
                    }
                }
                Some(state)
            });
        }
        self.open_flushes.clear();
    }

    /// A HOPS `ofence` (§5.2): advances the epoch without forcing
    /// durability.
    pub fn ofence(&mut self) {
        self.timestamp += 1;
    }

    /// A HOPS `dfence` (§5.2): advances the epoch and closes the persist
    /// interval of every prior write.
    pub fn dfence(&mut self) {
        debug_assert!(self.track_open_writes, "a dfence in a trace scanned as dfence-free");
        self.timestamp += 1;
        let ts = self.timestamp;
        for &range in &self.open_writes {
            self.map.update_range(range, |_, cur| {
                let mut state = *cur?;
                if let Some(p) = &mut state.persist {
                    p.close(ts);
                }
                Some(state)
            });
        }
        self.open_writes.clear();
        self.open_flushes.clear();
    }

    /// The persist intervals (with write locations) of the written
    /// sub-ranges of `range`.
    #[must_use]
    pub fn persist_intervals(
        &self,
        range: ByteRange,
    ) -> Vec<(ByteRange, EpochInterval, Option<SourceLoc>)> {
        self.map
            .overlapping(range)
            .filter_map(|(sub, st)| st.persist.map(|p| (sub, p, st.write_loc.map(resolve_loc))))
            .collect()
    }

    /// Whether every written byte of `range` has a closed persist interval.
    #[must_use]
    pub fn is_persisted(&self, range: ByteRange) -> bool {
        self.map.overlapping(range).all(|(_, st)| st.persist.is_none_or(|p| p.is_closed()))
    }

    /// Direct access to the raw segment states overlapping `range`.
    pub fn states_in(&self, range: ByteRange) -> impl Iterator<Item = (ByteRange, &SegState)> {
        self.map.overlapping(range)
    }

    // ------------------------------------------------------------------
    // Testing scope (PMTest_EXCLUDE / PMTest_INCLUDE, §4.2)
    // ------------------------------------------------------------------

    /// Removes `range` from the testing scope.
    pub fn exclude(&mut self, range: ByteRange) {
        self.excluded.insert(range, ());
    }

    /// Adds a previously excluded `range` back to the testing scope.
    pub fn include(&mut self, range: ByteRange) {
        self.excluded.remove(range);
    }

    /// Whether any exclusions are active (fast path: none usually are).
    #[must_use]
    pub fn has_exclusions(&self) -> bool {
        !self.excluded.is_empty()
    }

    /// The sub-ranges of `range` still in the testing scope.
    #[must_use]
    pub fn in_scope(&self, range: ByteRange) -> Vec<ByteRange> {
        if self.excluded.is_empty() {
            return vec![range];
        }
        self.excluded.gaps(range)
    }

    /// Whether any part of `range` is in the testing scope.
    #[must_use]
    pub fn is_in_scope(&self, range: ByteRange) -> bool {
        !self.excluded.covers(range)
    }
}

/// Hasher for the [`ByteRange`] keys of `open_writes`: a multiplicative mix
/// of the two bounds. Deterministic, and cheap next to `SipHash` on the write
/// path; the keys are the program's own addresses, not adversarial input.
#[derive(Default)]
struct RangeHasher(u64);

impl Hasher for RangeHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(23) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 31)
    }
}

impl fmt::Debug for ShadowMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShadowMemory")
            .field("timestamp", &self.timestamp)
            .field("segments", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc() -> SourceLoc {
        SourceLoc::new("test.rs", 1)
    }

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn write_opens_interval_at_current_epoch() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        let pis = sh.persist_intervals(r(0, 8));
        assert_eq!(pis.len(), 1);
        assert_eq!(pis[0].1, EpochInterval::open(0));
        assert!(!sh.is_persisted(r(0, 8)));
    }

    #[test]
    fn figure7_walkthrough() {
        // write(0x10,64); clwb(0x10,64); sfence; write(0x50,64)
        let mut sh = ShadowMemory::new();
        let a = ByteRange::with_len(0x10, 64);
        let b = ByteRange::with_len(0x50, 64);
        sh.record_write(a, loc());
        let obs = sh.record_flush(a, loc());
        assert!(obs.unmodified.is_empty() && obs.duplicate.is_empty());
        sh.fence();
        assert_eq!(sh.timestamp(), 1);
        sh.record_write(b, loc());
        // PI(A ∖ B) = (0,1) closed; PI(B) = (1,∞) open.
        let a_only = ByteRange::new(0x10, 0x50);
        let pis = sh.persist_intervals(a_only);
        assert!(pis.iter().all(|(_, p, _)| *p == EpochInterval::closed(0, 1)));
        let pis_b = sh.persist_intervals(b);
        assert_eq!(pis_b[0].1, EpochInterval::open(1));
        assert!(sh.is_persisted(a_only));
        assert!(!sh.is_persisted(b));
    }

    #[test]
    fn fence_without_flush_does_not_persist() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.fence();
        assert!(!sh.is_persisted(r(0, 8)));
        assert_eq!(sh.persist_intervals(r(0, 8))[0].1, EpochInterval::open(0));
    }

    #[test]
    fn flush_without_fence_does_not_persist() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.record_flush(r(0, 8), loc());
        assert!(!sh.is_persisted(r(0, 8)));
    }

    #[test]
    fn write_after_flush_reopens_interval() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.record_flush(r(0, 8), loc());
        sh.record_write(r(0, 8), loc()); // clears the pending flush (§4.4)
        sh.fence();
        assert!(!sh.is_persisted(r(0, 8)), "write invalidated the writeback");
    }

    #[test]
    fn partial_flush_persists_only_covered_bytes() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 16), loc());
        sh.record_flush(r(0, 8), loc());
        sh.fence();
        assert!(sh.is_persisted(r(0, 8)));
        assert!(!sh.is_persisted(r(8, 16)));
        assert!(!sh.is_persisted(r(0, 16)));
    }

    #[test]
    fn unwritten_range_is_vacuously_persisted() {
        let sh = ShadowMemory::new();
        assert!(sh.is_persisted(r(100, 200)));
        assert!(sh.persist_intervals(r(100, 200)).is_empty());
    }

    #[test]
    fn flush_of_unmodified_data_is_observed() {
        let mut sh = ShadowMemory::new();
        let obs = sh.record_flush(r(0, 8), loc());
        assert_eq!(obs.unmodified, [r(0, 8)]);
        assert!(obs.duplicate.is_empty());
    }

    #[test]
    fn double_flush_is_observed() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        let first = sh.record_flush(r(0, 8), loc());
        assert!(first.duplicate.is_empty());
        let second = sh.record_flush(r(0, 8), loc());
        assert_eq!(second.duplicate.len(), 1);
        assert_eq!(second.duplicate[0].0, r(0, 8));
    }

    #[test]
    fn flush_after_persist_is_duplicate() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.record_flush(r(0, 8), loc());
        sh.fence();
        let obs = sh.record_flush(r(0, 8), loc());
        assert_eq!(obs.duplicate.len(), 1, "re-flushing persisted data");
    }

    #[test]
    fn flush_covering_written_and_unwritten_splits_observation() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        let obs = sh.record_flush(r(0, 16), loc());
        assert_eq!(obs.unmodified, [r(8, 16)]);
        assert!(obs.duplicate.is_empty());
    }

    #[test]
    fn dfence_closes_all_writes() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.record_write(r(100, 108), loc());
        sh.ofence();
        sh.record_write(r(200, 208), loc());
        assert_eq!(sh.timestamp(), 1);
        sh.dfence();
        assert!(sh.is_persisted(r(0, 300)));
        assert_eq!(sh.timestamp(), 2);
    }

    #[test]
    fn dfence_closes_every_interval_after_more_writes_than_segments() {
        // x86 dialect: no dfence drains the open writes, so they pile up —
        // 200 writes (some overlapping their neighbours) over a few segments.
        let mut sh = ShadowMemory::new();
        for round in 0..50 {
            for seg in 0..4u64 {
                sh.record_write(r(seg * 64, seg * 64 + 8 + round % 3), loc());
            }
            sh.fence();
        }
        let segments = sh.states_in(r(0, 1024)).count();
        assert!(segments < 200, "the 200 writes must outnumber the {segments} segments");
        assert!(!sh.is_persisted(r(0, 1024)));
        // A foreign dfence still closes every open persist interval.
        sh.dfence();
        assert!(sh.states_in(r(0, 1024)).all(|(_, st)| st.persist.is_some_and(|p| p.is_closed())));
    }

    #[test]
    fn dfence_splits_at_the_ends_of_every_write_since_the_last_one() {
        // B overwrites A whole, so A's ends are no segment boundary any
        // more; the dfence still splits there, once however often B repeats.
        let mut sh = ShadowMemory::new();
        sh.record_write(r(8, 16), loc());
        for _ in 0..3 {
            sh.record_write(r(0, 24), loc());
        }
        let subs =
            |sh: &ShadowMemory| sh.states_in(r(0, 24)).map(|(sub, _)| sub).collect::<Vec<_>>();
        assert_eq!(subs(&sh), [r(0, 24)]);
        sh.dfence();
        assert_eq!(subs(&sh), [r(0, 8), r(8, 16), r(16, 24)]);
        assert!(sh.is_persisted(r(0, 24)));
        // The writes were drained: the next dfence splits nothing new.
        sh.record_write(r(4, 12), loc());
        sh.dfence();
        assert_eq!(subs(&sh), [r(0, 4), r(4, 12), r(12, 16), r(16, 24)]);
    }

    #[test]
    fn ofence_advances_epoch_only() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 8), loc());
        sh.ofence();
        assert_eq!(sh.timestamp(), 1);
        assert!(!sh.is_persisted(r(0, 8)));
        sh.record_write(r(8, 16), loc());
        assert_eq!(sh.persist_intervals(r(8, 16))[0].1, EpochInterval::open(1));
    }

    #[test]
    fn exclusion_scope() {
        let mut sh = ShadowMemory::new();
        sh.exclude(r(0, 10));
        assert_eq!(sh.in_scope(r(0, 20)), [r(10, 20)]);
        assert!(!sh.is_in_scope(r(0, 10)));
        assert!(sh.is_in_scope(r(5, 15)));
        sh.include(r(0, 10));
        assert_eq!(sh.in_scope(r(0, 20)), [r(0, 20)]);
    }

    #[test]
    fn write_loc_retained_for_attribution() {
        let mut sh = ShadowMemory::new();
        let wloc = SourceLoc::new("app.rs", 99);
        sh.record_write(r(0, 8), wloc);
        let pis = sh.persist_intervals(r(0, 8));
        assert_eq!(pis[0].2, Some(wloc));
    }

    #[test]
    fn cleared_shadow_behaves_like_fresh() {
        let mut sh = ShadowMemory::new();
        sh.record_write(r(0, 16), SourceLoc::new("old.rs", 1));
        sh.record_flush(r(0, 8), SourceLoc::new("old.rs", 2));
        sh.fence();
        sh.exclude(r(100, 110));
        sh.clear();
        assert_eq!(sh.timestamp(), 0);
        assert!(!sh.has_exclusions());
        assert!(sh.persist_intervals(r(0, 16)).is_empty());
        // Replaying figure 7 on the recycled instance gives fresh results,
        // including correctly re-interned locations.
        let wloc = SourceLoc::new("new.rs", 7);
        sh.record_write(r(0, 8), wloc);
        sh.record_flush(r(0, 8), SourceLoc::new("new.rs", 8));
        sh.fence();
        assert!(sh.is_persisted(r(0, 8)));
        assert_eq!(sh.persist_intervals(r(0, 8))[0].2, Some(wloc));
        // A fence after clear must not close stale open_flushes ranges.
        let mut sh2 = ShadowMemory::new();
        sh2.record_write(r(0, 8), wloc);
        sh2.record_flush(r(0, 8), wloc);
        sh2.clear();
        sh2.record_write(r(0, 8), wloc);
        sh2.fence();
        assert!(!sh2.is_persisted(r(0, 8)), "pre-clear flush must be forgotten");
    }
}
