use std::collections::BTreeMap;
use std::fmt;

use crate::ByteRange;

/// Segment count past which a map spills from the flat vector to the BTree.
///
/// Updates that land on existing segment boundaries — every flush and fence
/// update of the PMFS and kv traces measured — rewrite the flat vector in
/// place after a binary search, so the only flat cost that grows with the
/// segment count is the tail move when a segment is inserted or removed
/// mid-map. In the `checker_replay` live-segment sweep (DESIGN.md §12),
/// where half the writes of the 2048-segment rows and all of the
/// 4096-segment rows insert a new segment mid-map, the flat vector is ahead
/// through 2048 segments and the BTree at 4096.
const FLAT_MAX: usize = 2048;

/// A map from non-overlapping half-open byte ranges to values.
///
/// This is the container backing the PMTest *shadow memory* (§4.4): each
/// modified address range maps to its persistency status, and the engine
/// needs cheap range-wise updates and lookups. Overlapping inserts split
/// or truncate the segments already present, exactly like writing over part
/// of a previously tracked range.
///
/// Internally the map is **adaptive**: while small it is a flat sorted
/// vector of `(start, end, value)` segments — binary-searched reads, values
/// overwritten in place when an update lands on existing segment boundaries,
/// and one tail move per segment inserted or removed. Past [`FLAT_MAX`]
/// segments it spills into a `BTreeMap` keyed by segment start and stays
/// there until cleared. [`clear`](Self::clear) keeps the flat vector's
/// capacity, so a recycled map that stays flat allocates nothing; the BTree
/// allocates and frees nodes as segments come and go. The invariant either
/// way (checked in debug builds and by property tests) is that segments are
/// non-empty, sorted, and pairwise disjoint.
///
/// # Examples
///
/// ```
/// use pmtest_interval::{ByteRange, SegmentMap};
///
/// let mut map = SegmentMap::new();
/// map.insert(ByteRange::new(0, 64), 'x');
/// map.insert(ByteRange::new(16, 32), 'y');
/// let segs: Vec<_> = map.iter().map(|(r, v)| (r.start(), r.end(), *v)).collect();
/// assert_eq!(segs, [(0, 16, 'x'), (16, 32, 'y'), (32, 64, 'x')]);
/// ```
#[derive(Clone)]
pub struct SegmentMap<V> {
    /// The small-map representation: `(start, end, value)`, sorted by start.
    /// Authoritative while `in_tree` is false; kept (empty, capacity
    /// retained) while spilled so `clear` can recycle it.
    flat: Vec<(u64, u64, V)>,
    /// The large-map representation: start -> (end, value). Authoritative
    /// while `in_tree` is true.
    tree: BTreeMap<u64, (u64, V)>,
    in_tree: bool,
    /// Flat→tree migrations over the map's lifetime (not reset by `clear`).
    repr_switches: u64,
}

impl<V> Default for SegmentMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> SegmentMap<V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        Self { flat: Vec::new(), tree: BTreeMap::new(), in_tree: false, repr_switches: 0 }
    }

    /// Number of stored segments (not bytes).
    #[must_use]
    pub fn len(&self) -> usize {
        if self.in_tree {
            self.tree.len()
        } else {
            self.flat.len()
        }
    }

    /// Whether the map holds no segments.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all segments, retaining the flat vector's capacity so a
    /// recycled map allocates nothing on its next fill. A spilled map drops
    /// back to the flat representation.
    pub fn clear(&mut self) {
        self.flat.clear();
        self.tree.clear();
        self.in_tree = false;
    }

    /// Times this map migrated from the flat to the BTree representation
    /// (cumulative; survives [`clear`](Self::clear) so recycled maps keep
    /// reporting).
    #[must_use]
    pub fn repr_switches(&self) -> u64 {
        self.repr_switches
    }

    /// Whether the map currently uses the flat small-map representation.
    #[must_use]
    pub fn is_flat(&self) -> bool {
        !self.in_tree
    }

    /// Index of the first flat segment whose end is after `addr` — the first
    /// candidate to overlap a range starting at `addr`. (Starts and ends are
    /// both sorted because segments are disjoint.)
    fn flat_first_overlapping(&self, addr: u64) -> usize {
        self.flat.partition_point(|&(_, e, _)| e <= addr)
    }

    /// Returns the value covering `addr`, if any.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<&V> {
        if self.in_tree {
            let (&start, (end, value)) = self.tree.range(..=addr).next_back()?;
            (start <= addr && addr < *end).then_some(value)
        } else {
            let idx = self.flat.partition_point(|&(s, _, _)| s <= addr).checked_sub(1)?;
            let (_, end, value) = &self.flat[idx];
            (addr < *end).then_some(value)
        }
    }

    /// Returns the segment (range and value) covering `addr`, if any.
    #[must_use]
    pub fn get_segment(&self, addr: u64) -> Option<(ByteRange, &V)> {
        if self.in_tree {
            let (&start, (end, value)) = self.tree.range(..=addr).next_back()?;
            (start <= addr && addr < *end).then(|| (ByteRange::new(start, *end), value))
        } else {
            let idx = self.flat.partition_point(|&(s, _, _)| s <= addr).checked_sub(1)?;
            let (start, end, value) = &self.flat[idx];
            (addr < *end).then(|| (ByteRange::new(*start, *end), value))
        }
    }

    /// Iterates over all segments in address order.
    pub fn iter(&self) -> Segments<'_, V> {
        Segments {
            inner: if self.in_tree {
                SegmentsInner::Tree(self.tree.iter())
            } else {
                SegmentsInner::Flat(self.flat.iter())
            },
        }
    }

    /// Iterates over the segments overlapping `range`, clipped to `range`.
    ///
    /// Each yielded pair is `(clipped_range, value)`; gaps inside `range` are
    /// skipped (see [`SegmentMap::gaps`] for the complement).
    pub fn overlapping(&self, range: ByteRange) -> Overlapping<'_, V> {
        let inner = if self.in_tree {
            // The first candidate may start before `range.start()`.
            let first_start = self
                .tree
                .range(..=range.start())
                .next_back()
                .map(|(&s, _)| s)
                .unwrap_or(range.start());
            OverlapInner::Tree(self.tree.range(first_start..range.end()))
        } else {
            let lo = self.flat_first_overlapping(range.start());
            OverlapInner::Flat(self.flat[lo..].iter())
        };
        Overlapping { inner, range }
    }

    /// Iterates over the maximal sub-ranges of `range` not covered by any
    /// segment.
    pub fn gaps(&self, range: ByteRange) -> Vec<ByteRange> {
        let mut gaps = Vec::new();
        let mut cursor = range.start();
        for (seg, _) in self.overlapping(range) {
            if cursor < seg.start() {
                gaps.push(ByteRange::new(cursor, seg.start()));
            }
            cursor = seg.end();
        }
        if cursor < range.end() {
            gaps.push(ByteRange::new(cursor, range.end()));
        }
        gaps
    }

    /// Whether every byte of `range` is covered by some segment.
    #[must_use]
    pub fn covers(&self, range: ByteRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let mut cursor = range.start();
        for (seg, _) in self.overlapping(range) {
            if seg.start() > cursor {
                return false;
            }
            cursor = seg.end();
        }
        cursor >= range.end()
    }

    /// Whether any byte of `range` is covered by some segment.
    #[must_use]
    pub fn overlaps(&self, range: ByteRange) -> bool {
        self.overlapping(range).next().is_some()
    }
}

impl<V: Clone> SegmentMap<V> {
    /// Maps `range` to `value`, overwriting anything previously stored there.
    ///
    /// Existing segments that partially overlap `range` are split; their
    /// portions outside `range` keep their old values. When `range` is
    /// exactly one existing segment, its value is overwritten in place.
    pub fn insert(&mut self, range: ByteRange, value: V) {
        if range.is_empty() {
            return;
        }
        if self.in_tree {
            match self.tree.get_mut(&range.start()) {
                Some((end, old)) if *end == range.end() => *old = value,
                _ => {
                    self.tree_carve(range);
                    self.tree.insert(range.start(), (range.end(), value));
                }
            }
        } else {
            let lo = self.flat_first_overlapping(range.start());
            match self.flat.get_mut(lo) {
                Some((s, e, old)) if *s == range.start() && *e == range.end() => *old = value,
                _ => {
                    self.flat_replace(lo, range, Some(value));
                    self.maybe_spill();
                }
            }
        }
        self.debug_check();
    }

    /// Removes all coverage of `range`; segments partially overlapping it are
    /// truncated or split.
    pub fn remove(&mut self, range: ByteRange) {
        if range.is_empty() {
            return;
        }
        if self.in_tree {
            self.tree_carve(range);
        } else {
            let lo = self.flat_first_overlapping(range.start());
            self.flat_replace(lo, range, None);
        }
        self.debug_check();
    }

    /// Applies `f` to every sub-segment of `range`, including uncovered gaps.
    ///
    /// For each maximal sub-range with uniform current value (`Some(v)` for a
    /// covered sub-range, `None` for a gap), `f(sub_range, current)` decides
    /// the new value: `Some(v)` stores `v`, `None` leaves the sub-range empty.
    /// Sub-ranges are visited in address order.
    ///
    /// This is the primitive behind the paper's checking rules: a `write`
    /// replaces the status over its range, a `clwb` updates the flush interval
    /// of covered sub-ranges and can inspect gaps to flag unnecessary
    /// writebacks. Segments straddling either end of `range` are split at
    /// that end first; then every covered segment is rewritten in place.
    /// When `range` is exactly covered by existing segments (a flush of what
    /// was written, a fence over what was flushed) nothing moves and nothing
    /// is allocated: each value is overwritten where it lies.
    pub fn update_range<F>(&mut self, range: ByteRange, mut f: F)
    where
        F: FnMut(ByteRange, Option<&V>) -> Option<V>,
    {
        if range.is_empty() {
            return;
        }
        if self.in_tree {
            self.tree_update_range(range, f);
        } else {
            // Splitting at the end first keeps the index the start split
            // returns valid.
            self.flat_split_at(range.end());
            let mut i = self.flat_split_at(range.start());
            let mut cursor = range.start();
            while cursor < range.end() {
                let next =
                    self.flat.get(i).filter(|seg| seg.0 < range.end()).map(|&(s, e, _)| (s, e));
                let gap_end = next.map_or(range.end(), |(s, _)| s);
                if cursor < gap_end {
                    if let Some(new) = f(ByteRange::new(cursor, gap_end), None) {
                        self.flat.insert(i, (cursor, gap_end, new));
                        i += 1;
                    }
                }
                let Some((s, e)) = next else { break };
                match f(ByteRange::new(s, e), Some(&self.flat[i].2)) {
                    Some(new) => {
                        self.flat[i].2 = new;
                        i += 1;
                    }
                    None => {
                        self.flat.remove(i);
                    }
                }
                cursor = e;
            }
            self.maybe_spill();
        }
        self.debug_check();
    }

    /// Spills the flat representation into the BTree once it outgrows
    /// [`FLAT_MAX`]. One-way until [`clear`](Self::clear).
    fn maybe_spill(&mut self) {
        if !self.in_tree && self.flat.len() > FLAT_MAX {
            self.tree.extend(self.flat.drain(..).map(|(s, e, v)| (s, (e, v))));
            self.in_tree = true;
            self.repr_switches += 1;
        }
    }

    /// Splits the flat segment straddling `addr`, if any, so that a segment
    /// boundary falls on `addr`; both halves keep the segment's value.
    /// Returns the index of the first segment starting at or after `addr`.
    fn flat_split_at(&mut self, addr: u64) -> usize {
        let i = self.flat_first_overlapping(addr);
        match self.flat.get_mut(i) {
            Some((s, e, v)) if *s < addr => {
                let right = (addr, *e, v.clone());
                *e = addr;
                self.flat.insert(i + 1, right);
                i + 1
            }
            _ => i,
        }
    }

    /// Replaces the flat segments overlapping `range` — the window starting
    /// at `lo`, the first of them — by `middle` over all of `range` (or by
    /// nothing), keeping the out-of-range overhangs of the boundary segments.
    /// One splice: the tail moves at most once.
    fn flat_replace(&mut self, lo: usize, range: ByteRange, middle: Option<V>) {
        let hi = lo + self.flat[lo..].partition_point(|&(s, _, _)| s < range.end());
        let (left, right) = if lo < hi {
            let (s, _, ref v) = self.flat[lo];
            let left = (s < range.start()).then(|| (s, range.start(), v.clone()));
            let (_, e, ref v) = self.flat[hi - 1];
            (left, (e > range.end()).then(|| (range.end(), e, v.clone())))
        } else {
            (None, None)
        };
        let middle = middle.map(|v| (range.start(), range.end(), v));
        self.flat.splice(lo..hi, left.into_iter().chain(middle).chain(right));
    }

    /// BTree-representation `update_range`: the flat algorithm over BTree
    /// entries, rewriting each run of contiguous segments in one range walk.
    fn tree_update_range<F>(&mut self, range: ByteRange, mut f: F)
    where
        F: FnMut(ByteRange, Option<&V>) -> Option<V>,
    {
        self.tree_split_at(range.start());
        self.tree_split_at(range.end());
        let mut cursor = range.start();
        while cursor < range.end() {
            let mut erased = None;
            for (&s, (e, value)) in self.tree.range_mut(cursor..range.end()) {
                if s > cursor {
                    break;
                }
                cursor = *e;
                match f(ByteRange::new(s, *e), Some(value)) {
                    Some(new) => *value = new,
                    None => {
                        erased = Some(s);
                        break;
                    }
                }
            }
            if let Some(s) = erased {
                self.tree.remove(&s);
                continue;
            }
            if cursor < range.end() {
                let gap_end =
                    self.tree.range(cursor..range.end()).next().map_or(range.end(), |(&s, _)| s);
                if let Some(new) = f(ByteRange::new(cursor, gap_end), None) {
                    self.tree.insert(cursor, (gap_end, new));
                }
                cursor = gap_end;
            }
        }
    }

    /// Splits the BTree segment straddling `addr`, if any (see
    /// [`flat_split_at`](Self::flat_split_at)).
    fn tree_split_at(&mut self, addr: u64) {
        if let Some((_, (end, value))) = self.tree.range_mut(..addr).next_back() {
            if *end > addr {
                let right = (*end, value.clone());
                *end = addr;
                self.tree.insert(addr, right);
            }
        }
    }

    /// BTree-representation carve: removes `range` coverage, splitting
    /// boundary segments so that no remaining segment overlaps `range`.
    fn tree_carve(&mut self, range: ByteRange) {
        self.tree_split_at(range.start());
        self.tree_split_at(range.end());
        while let Some((&s, _)) = self.tree.range(range.start()..range.end()).next() {
            self.tree.remove(&s);
        }
    }

    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let mut prev_end = 0u64;
            for (r, _) in self.iter() {
                let (s, e) = (r.start(), r.end());
                debug_assert!(s < e, "empty segment [{s:#x},{e:#x})");
                debug_assert!(s >= prev_end, "overlapping segments at {s:#x}");
                prev_end = e;
            }
        }
    }
}

/// Representation-independent equality: two maps are equal when they hold
/// the same segments, whether flat or spilled.
impl<V: PartialEq> PartialEq for SegmentMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for SegmentMap<V> {}

impl<V: fmt::Debug> fmt::Debug for SegmentMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter().map(|(r, v)| (format!("{r:?}"), v))).finish()
    }
}

enum SegmentsInner<'a, V> {
    Flat(std::slice::Iter<'a, (u64, u64, V)>),
    Tree(std::collections::btree_map::Iter<'a, u64, (u64, V)>),
}

/// Iterator over the segments of a [`SegmentMap`] in address order.
pub struct Segments<'a, V> {
    inner: SegmentsInner<'a, V>,
}

impl<'a, V> Iterator for Segments<'a, V> {
    type Item = (ByteRange, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            SegmentsInner::Flat(it) => it.next().map(|(s, e, v)| (ByteRange::new(*s, *e), v)),
            SegmentsInner::Tree(it) => it.next().map(|(&s, (e, v))| (ByteRange::new(s, *e), v)),
        }
    }
}

enum OverlapInner<'a, V> {
    Flat(std::slice::Iter<'a, (u64, u64, V)>),
    Tree(std::collections::btree_map::Range<'a, u64, (u64, V)>),
}

/// Iterator over the segments of a [`SegmentMap`] overlapping a query range,
/// clipped to it (see [`SegmentMap::overlapping`]).
pub struct Overlapping<'a, V> {
    inner: OverlapInner<'a, V>,
    range: ByteRange,
}

impl<'a, V> Iterator for Overlapping<'a, V> {
    type Item = (ByteRange, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (s, e, v) = match &mut self.inner {
                OverlapInner::Flat(it) => {
                    let (s, e, v) = it.next()?;
                    (*s, *e, v)
                }
                OverlapInner::Tree(it) => {
                    let (&s, (e, v)) = it.next()?;
                    (s, *e, v)
                }
            };
            if s >= self.range.end() {
                return None;
            }
            if let Some(clip) = ByteRange::new(s, e).intersection(&self.range) {
                return Some((clip, v));
            }
        }
    }
}

impl<V: Clone> FromIterator<(ByteRange, V)> for SegmentMap<V> {
    fn from_iter<T: IntoIterator<Item = (ByteRange, V)>>(iter: T) -> Self {
        let mut map = SegmentMap::new();
        for (r, v) in iter {
            map.insert(r, v);
        }
        map
    }
}

impl<V: Clone> Extend<(ByteRange, V)> for SegmentMap<V> {
    fn extend<T: IntoIterator<Item = (ByteRange, V)>>(&mut self, iter: T) {
        for (r, v) in iter {
            self.insert(r, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    fn dump(map: &SegmentMap<char>) -> Vec<(u64, u64, char)> {
        map.iter().map(|(rg, v)| (rg.start(), rg.end(), *v)).collect()
    }

    #[test]
    fn insert_disjoint() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 10), 'a');
        m.insert(r(20, 30), 'b');
        assert_eq!(dump(&m), [(0, 10, 'a'), (20, 30, 'b')]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn insert_splits_enclosing_segment() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 100), 'a');
        m.insert(r(40, 60), 'b');
        assert_eq!(dump(&m), [(0, 40, 'a'), (40, 60, 'b'), (60, 100, 'a')]);
    }

    #[test]
    fn insert_overwrites_contained_segments() {
        let mut m = SegmentMap::new();
        m.insert(r(10, 20), 'a');
        m.insert(r(30, 40), 'b');
        m.insert(r(0, 50), 'c');
        assert_eq!(dump(&m), [(0, 50, 'c')]);
    }

    #[test]
    fn insert_truncates_left_and_right_neighbours() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 20), 'a');
        m.insert(r(30, 50), 'b');
        m.insert(r(10, 40), 'c');
        assert_eq!(dump(&m), [(0, 10, 'a'), (10, 40, 'c'), (40, 50, 'b')]);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut m = SegmentMap::new();
        m.insert(r(5, 5), 'a');
        assert!(m.is_empty());
    }

    #[test]
    fn get_lookups() {
        let mut m = SegmentMap::new();
        m.insert(r(10, 20), 'a');
        assert_eq!(m.get(10), Some(&'a'));
        assert_eq!(m.get(19), Some(&'a'));
        assert_eq!(m.get(20), None);
        assert_eq!(m.get(9), None);
        assert_eq!(m.get_segment(15), Some((r(10, 20), &'a')));
    }

    #[test]
    fn remove_splits() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 100), 'a');
        m.remove(r(40, 60));
        assert_eq!(dump(&m), [(0, 40, 'a'), (60, 100, 'a')]);
        assert!(!m.covers(r(0, 100)));
        assert!(m.covers(r(0, 40)));
    }

    #[test]
    fn overlapping_clips_to_query() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 10), 'a');
        m.insert(r(10, 20), 'b');
        m.insert(r(25, 35), 'c');
        let got: Vec<_> =
            m.overlapping(r(5, 30)).map(|(rg, v)| (rg.start(), rg.end(), *v)).collect();
        assert_eq!(got, [(5, 10, 'a'), (10, 20, 'b'), (25, 30, 'c')]);
    }

    #[test]
    fn gaps_and_covers() {
        let mut m = SegmentMap::new();
        m.insert(r(10, 20), 'a');
        m.insert(r(30, 40), 'b');
        assert_eq!(m.gaps(r(0, 50)), [r(0, 10), r(20, 30), r(40, 50)]);
        assert_eq!(m.gaps(r(12, 18)), []);
        assert!(m.covers(r(12, 18)));
        assert!(!m.covers(r(15, 35)));
        assert!(m.overlaps(r(15, 35)));
        assert!(!m.overlaps(r(20, 30)));
        assert!(m.covers(r(7, 7)), "empty range is vacuously covered");
    }

    #[test]
    fn update_range_visits_gaps_and_segments() {
        let mut m = SegmentMap::new();
        m.insert(r(10, 20), 'a');
        let mut seen = Vec::new();
        m.update_range(r(0, 30), |sub, cur| {
            seen.push((sub.start(), sub.end(), cur.copied()));
            Some(cur.copied().unwrap_or('x'))
        });
        assert_eq!(seen, [(0, 10, None), (10, 20, Some('a')), (20, 30, None)]);
        assert_eq!(dump(&m), [(0, 10, 'x'), (10, 20, 'a'), (20, 30, 'x')]);
    }

    #[test]
    fn update_range_can_erase() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 30), 'a');
        m.update_range(r(10, 20), |_, _| None);
        assert_eq!(dump(&m), [(0, 10, 'a'), (20, 30, 'a')]);
    }

    #[test]
    fn update_range_clips_straddling_segments() {
        let mut m = SegmentMap::new();
        m.insert(r(0, 100), 'a');
        let mut seen = Vec::new();
        m.update_range(r(40, 60), |sub, cur| {
            seen.push((sub.start(), sub.end(), cur.copied()));
            Some('b')
        });
        assert_eq!(seen, [(40, 60, Some('a'))]);
        assert_eq!(dump(&m), [(0, 40, 'a'), (40, 60, 'b'), (60, 100, 'a')]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut m: SegmentMap<char> = [(r(0, 4), 'a'), (r(4, 8), 'b')].into_iter().collect();
        m.extend([(r(8, 12), 'c')]);
        assert_eq!(dump(&m), [(0, 4, 'a'), (4, 8, 'b'), (8, 12, 'c')]);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut m = SegmentMap::new();
        assert_eq!(format!("{m:?}"), "{}");
        m.insert(r(0, 1), 'z');
        assert!(format!("{m:?}").contains("0x0"));
    }

    /// Fills with `n` disjoint two-byte segments starting at 0.
    fn filled(n: u64) -> SegmentMap<char> {
        let mut m = SegmentMap::new();
        for i in 0..n {
            m.insert(r(i * 4, i * 4 + 2), 'a');
        }
        m
    }

    #[test]
    fn spills_to_tree_past_the_crossover() {
        let m = filled(FLAT_MAX as u64);
        assert!(m.is_flat());
        assert_eq!(m.repr_switches(), 0);
        let mut m = m;
        m.insert(r(10_000, 10_002), 'z');
        assert!(!m.is_flat(), "crossing FLAT_MAX must spill");
        assert_eq!(m.repr_switches(), 1);
        assert_eq!(m.len(), FLAT_MAX + 1);
        // The spilled map keeps behaving identically.
        assert_eq!(m.get(0), Some(&'a'));
        assert_eq!(m.get(10_001), Some(&'z'));
        m.insert(r(1, 5), 'b');
        assert_eq!(m.get(4), Some(&'b'));
    }

    #[test]
    fn exact_overwrites_keep_every_boundary_in_both_representations() {
        for mut m in [filled(8), filled(FLAT_MAX as u64 + 1)] {
            let flat = m.is_flat();
            let before: Vec<ByteRange> = m.iter().map(|(rg, _)| rg).collect();
            m.insert(r(4, 6), 'b');
            // Fill the gap after [0, 2), then update exactly over both
            // segments, keeping the first and erasing the second.
            m.insert(r(2, 4), 'x');
            let mut seen = Vec::new();
            m.update_range(r(0, 4), |sub, cur| {
                seen.push((sub.start(), sub.end(), cur.copied()));
                cur.filter(|&&v| v != 'x').map(|_| 'c')
            });
            assert_eq!(seen, [(0, 2, Some('a')), (2, 4, Some('x'))]);
            let after: Vec<ByteRange> = m.iter().map(|(rg, _)| rg).collect();
            assert_eq!(after, before, "flat={flat}");
            assert_eq!(
                (m.get(0), m.get(2), m.get(4), m.get(8)),
                (Some(&'c'), None, Some(&'b'), Some(&'a'))
            );
        }
    }

    #[test]
    fn clear_returns_to_flat_and_keeps_the_switch_count() {
        let mut m = filled(FLAT_MAX as u64 + 10);
        assert!(!m.is_flat());
        m.clear();
        assert!(m.is_empty());
        assert!(m.is_flat(), "clear drops back to the flat representation");
        assert_eq!(m.repr_switches(), 1, "switch count is cumulative");
        m.insert(r(0, 8), 'q');
        assert_eq!(dump(&m), [(0, 8, 'q')]);
    }

    #[test]
    fn representation_does_not_affect_equality() {
        let flat = filled(4);
        let mut spilled = filled(FLAT_MAX as u64 + 1);
        assert!(!spilled.is_flat());
        for i in 4..=FLAT_MAX as u64 {
            spilled.remove(r(i * 4, i * 4 + 2));
        }
        assert!(spilled.len() == flat.len());
        assert_eq!(spilled, flat, "same segments must compare equal across representations");
    }

    #[test]
    fn update_range_on_spilled_map_matches_flat() {
        let mut flat = filled(8);
        let mut spilled = filled(FLAT_MAX as u64 + 1);
        for i in 8..=FLAT_MAX as u64 {
            spilled.remove(r(i * 4, i * 4 + 2));
        }
        let bump = |_: ByteRange, cur: Option<&char>| Some(cur.copied().unwrap_or('x'));
        flat.update_range(r(0, 40), bump);
        spilled.update_range(r(0, 40), bump);
        assert_eq!(flat, spilled);
    }
}
