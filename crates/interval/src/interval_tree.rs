use std::fmt;

use crate::ByteRange;

/// An augmented balanced interval tree over possibly overlapping byte ranges.
///
/// The paper's transaction checker keeps a *log tree* of the ranges backed up
/// by `TX_ADD` (§5.1.1); the engine then asks, for every write inside a
/// transaction, whether the written range is fully covered by logged ranges,
/// and whether a new `TX_ADD` duplicates an existing one. Unlike
/// [`SegmentMap`](crate::SegmentMap), entries here may overlap and are never
/// merged, so each hit can be attributed to the specific `TX_ADD` call site
/// that created it.
///
/// The tree is an arena-allocated AVL tree ordered by interval start and
/// augmented with the maximum end per subtree, giving `O(log n)` insertion
/// and `O(log n + k)` overlap queries.
///
/// # Examples
///
/// ```
/// use pmtest_interval::{ByteRange, IntervalTree};
///
/// let mut tree = IntervalTree::new();
/// tree.insert(ByteRange::new(0, 10), "log A");
/// tree.insert(ByteRange::new(20, 30), "log B");
/// assert!(tree.covers(ByteRange::new(2, 8)));
/// assert!(!tree.covers(ByteRange::new(5, 25)));
/// let hits: Vec<_> = tree.overlaps(ByteRange::new(5, 25)).map(|(_, v)| *v).collect();
/// assert_eq!(hits, ["log A", "log B"]);
/// ```
#[derive(Clone)]
pub struct IntervalTree<V> {
    nodes: Vec<Node<V>>,
    root: Option<usize>,
}

#[derive(Clone)]
struct Node<V> {
    range: ByteRange,
    value: V,
    max_end: u64,
    height: i32,
    left: Option<usize>,
    right: Option<usize>,
}

impl<V> Default for IntervalTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> IntervalTree<V> {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self { nodes: Vec::new(), root: None }
    }

    /// Number of stored intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds no intervals.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Removes all intervals.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.root = None;
    }

    /// Inserts `range` with `value`. Overlapping and duplicate ranges are
    /// allowed; empty ranges are ignored.
    pub fn insert(&mut self, range: ByteRange, value: V) {
        if range.is_empty() {
            return;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            range,
            value,
            max_end: range.end(),
            height: 1,
            left: None,
            right: None,
        });
        self.root = Some(self.insert_at(self.root, id));
    }

    /// Iterates over the intervals overlapping `range` (pre-order).
    ///
    /// The iterator allocates nothing: its depth-first stack is a fixed
    /// array sized for the tree's height bound (see `MAX_STACK`).
    pub fn overlaps(&self, range: ByteRange) -> Overlaps<'_, V> {
        let mut it = Overlaps { tree: self, range, stack: [0; MAX_STACK], depth: 0 };
        if let Some(root) = self.root {
            it.push(root);
        }
        it
    }

    /// Whether any stored interval overlaps `range`.
    #[must_use]
    pub fn overlaps_any(&self, range: ByteRange) -> bool {
        self.overlaps(range).next().is_some()
    }

    /// Whether the union of stored intervals fully covers `range`.
    ///
    /// An empty `range` is vacuously covered.
    #[must_use]
    pub fn covers(&self, range: ByteRange) -> bool {
        if range.is_empty() {
            return true;
        }
        let mut cursor = range.start();
        let mut gap = false;
        self.walk_in_order(self.root, range, &mut |hit| {
            gap = hit.start() > cursor;
            cursor = cursor.max(hit.end());
            !gap && cursor < range.end()
        });
        !gap && cursor >= range.end()
    }

    /// The maximal sub-ranges of `range` not covered by any stored interval.
    ///
    /// Allocates only when there is a gap to report.
    pub fn uncovered(&self, range: ByteRange) -> Vec<ByteRange> {
        let mut gaps = Vec::new();
        let mut cursor = range.start();
        self.walk_in_order(self.root, range, &mut |hit| {
            if hit.start() > cursor {
                gaps.push(ByteRange::new(cursor, hit.start()));
            }
            cursor = cursor.max(hit.end());
            true
        });
        if cursor < range.end() {
            gaps.push(ByteRange::new(cursor, range.end()));
        }
        gaps
    }

    /// Visits the intervals overlapping `range` in start order (an in-order
    /// walk of the start-keyed tree, pruned by `max_end`) until `visit`
    /// returns `false`. Returns whether the walk ran to the end.
    fn walk_in_order(
        &self,
        at: Option<usize>,
        range: ByteRange,
        visit: &mut impl FnMut(ByteRange) -> bool,
    ) -> bool {
        let Some(id) = at else { return true };
        let node = &self.nodes[id];
        if node.max_end <= range.start() {
            return true;
        }
        if !self.walk_in_order(node.left, range, visit) {
            return false;
        }
        // This start and every start in the right subtree are past the query.
        if node.range.start() >= range.end() {
            return true;
        }
        if node.range.overlaps(&range) && !visit(node.range) {
            return false;
        }
        self.walk_in_order(node.right, range, visit)
    }

    /// Iterates over all stored intervals in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ByteRange, &V)> {
        self.nodes.iter().map(|n| (n.range, &n.value))
    }

    fn insert_at(&mut self, at: Option<usize>, id: usize) -> usize {
        let Some(cur) = at else { return id };
        if self.nodes[id].range.start() < self.nodes[cur].range.start() {
            self.nodes[cur].left = Some(self.insert_at(self.nodes[cur].left, id));
        } else {
            self.nodes[cur].right = Some(self.insert_at(self.nodes[cur].right, id));
        }
        self.fixup(cur)
    }

    fn height(&self, n: Option<usize>) -> i32 {
        n.map_or(0, |i| self.nodes[i].height)
    }

    fn max_end(&self, n: Option<usize>) -> u64 {
        n.map_or(0, |i| self.nodes[i].max_end)
    }

    fn refresh(&mut self, n: usize) {
        let (l, r) = (self.nodes[n].left, self.nodes[n].right);
        self.nodes[n].height = 1 + self.height(l).max(self.height(r));
        self.nodes[n].max_end = self.nodes[n].range.end().max(self.max_end(l)).max(self.max_end(r));
    }

    fn balance_factor(&self, n: usize) -> i32 {
        self.height(self.nodes[n].left) - self.height(self.nodes[n].right)
    }

    fn rotate_right(&mut self, n: usize) -> usize {
        let l = self.nodes[n].left.expect("rotate_right requires left child");
        self.nodes[n].left = self.nodes[l].right;
        self.nodes[l].right = Some(n);
        self.refresh(n);
        self.refresh(l);
        l
    }

    fn rotate_left(&mut self, n: usize) -> usize {
        let r = self.nodes[n].right.expect("rotate_left requires right child");
        self.nodes[n].right = self.nodes[r].left;
        self.nodes[r].left = Some(n);
        self.refresh(n);
        self.refresh(r);
        r
    }

    fn fixup(&mut self, n: usize) -> usize {
        self.refresh(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            let l = self.nodes[n].left.expect("left-heavy implies left child");
            if self.balance_factor(l) < 0 {
                self.nodes[n].left = Some(self.rotate_left(l));
            }
            self.rotate_right(n)
        } else if bf < -1 {
            let r = self.nodes[n].right.expect("right-heavy implies right child");
            if self.balance_factor(r) > 0 {
                self.nodes[n].right = Some(self.rotate_right(r));
            }
            self.rotate_left(n)
        } else {
            n
        }
    }
}

impl<V: fmt::Debug> fmt::Debug for IntervalTree<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_by_key(|(r, _)| (r.start(), r.end()));
        f.debug_map().entries(entries.into_iter().map(|(r, v)| (format!("{r:?}"), v))).finish()
    }
}

impl<V> FromIterator<(ByteRange, V)> for IntervalTree<V> {
    fn from_iter<T: IntoIterator<Item = (ByteRange, V)>>(iter: T) -> Self {
        let mut tree = IntervalTree::new();
        for (r, v) in iter {
            tree.insert(r, v);
        }
        tree
    }
}

/// Capacity of the [`Overlaps`] stack. The pre-order walk holds at most one
/// pending left child per level of the current path plus the two children of
/// the node just visited, so at most `height + 1` entries; an AVL tree of `n`
/// nodes is under `1.4405 * log2(n + 2)` high, below 93 even for `n = 2^64`.
const MAX_STACK: usize = 96;

/// Iterator over the intervals of an [`IntervalTree`] that overlap a query
/// range.
pub struct Overlaps<'a, V> {
    tree: &'a IntervalTree<V>,
    range: ByteRange,
    stack: [usize; MAX_STACK],
    depth: usize,
}

impl<V> Overlaps<'_, V> {
    fn push(&mut self, id: usize) {
        self.stack[self.depth] = id;
        self.depth += 1;
    }
}

impl<'a, V> Iterator for Overlaps<'a, V> {
    type Item = (ByteRange, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while self.depth > 0 {
            self.depth -= 1;
            let node = &self.tree.nodes[self.stack[self.depth]];
            // Prune subtrees whose max_end cannot reach the query.
            if node.max_end <= self.range.start() {
                continue;
            }
            if let Some(l) = node.left {
                self.push(l);
            }
            // Right subtree only matters if this start is before query end.
            if node.range.start() < self.range.end() {
                if let Some(r) = node.right {
                    self.push(r);
                }
            }
            if node.range.overlaps(&self.range) {
                return Some((node.range, &node.value));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn empty_tree() {
        let tree: IntervalTree<()> = IntervalTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.overlaps(r(0, 100)).count(), 0);
        assert!(!tree.overlaps_any(r(0, 100)));
        assert!(tree.covers(r(5, 5)), "empty range vacuously covered");
        assert!(!tree.covers(r(0, 1)));
    }

    #[test]
    fn overlap_query_basics() {
        let tree: IntervalTree<i32> =
            [(r(0, 10), 1), (r(5, 15), 2), (r(20, 30), 3)].into_iter().collect();
        let mut hits: Vec<i32> = tree.overlaps(r(8, 22)).map(|(_, v)| *v).collect();
        hits.sort_unstable();
        assert_eq!(hits, [1, 2, 3]);
        assert_eq!(tree.overlaps(r(15, 20)).count(), 0, "touching is not overlap");
    }

    #[test]
    fn duplicates_are_kept() {
        let mut tree = IntervalTree::new();
        tree.insert(r(0, 10), "first");
        tree.insert(r(0, 10), "second");
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.overlaps(r(0, 1)).count(), 2);
    }

    #[test]
    fn coverage_union() {
        let tree: IntervalTree<()> =
            [(r(0, 10), ()), (r(10, 20), ()), (r(15, 40), ())].into_iter().collect();
        assert!(tree.covers(r(0, 40)));
        assert!(tree.covers(r(5, 35)));
        assert!(!tree.covers(r(0, 41)));
        assert_eq!(tree.uncovered(r(0, 50)), [r(40, 50)]);
    }

    #[test]
    fn uncovered_reports_interior_gaps() {
        let tree: IntervalTree<()> = [(r(10, 20), ()), (r(30, 40), ())].into_iter().collect();
        assert_eq!(tree.uncovered(r(0, 50)), [r(0, 10), r(20, 30), r(40, 50)]);
    }

    #[test]
    fn clear_resets() {
        let mut tree: IntervalTree<()> = [(r(0, 10), ())].into_iter().collect();
        tree.clear();
        assert!(tree.is_empty());
        assert!(!tree.overlaps_any(r(0, 10)));
    }

    #[test]
    fn empty_insert_ignored() {
        let mut tree = IntervalTree::new();
        tree.insert(r(5, 5), ());
        assert!(tree.is_empty());
    }

    #[test]
    fn stays_balanced_under_sorted_inserts() {
        let mut tree = IntervalTree::new();
        let n = 1024u64;
        for i in 0..n {
            tree.insert(r(i * 10, i * 10 + 5), i);
        }
        let root = tree.root.expect("non-empty");
        let h = tree.nodes[root].height;
        assert!(h <= 2 * (64 - (n.leading_zeros() as i32)), "height {h} too large");
        // Every interval individually findable.
        for i in (0..n).step_by(97) {
            let hits: Vec<u64> =
                tree.overlaps(r(i * 10 + 1, i * 10 + 2)).map(|(_, v)| *v).collect();
            assert_eq!(hits, [i]);
        }
    }

    #[test]
    fn debug_nonempty() {
        let tree: IntervalTree<i32> = [(r(0, 4), 7)].into_iter().collect();
        assert!(format!("{tree:?}").contains('7'));
    }
}
