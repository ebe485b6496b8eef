//! Property tests for the *adaptive* `SegmentMap` (flat small-map fast path
//! with automatic BTree spill) against a naive per-byte `BTreeMap<u64, u8>`
//! reference model.
//!
//! The sibling suite in `properties.rs` exercises the value semantics over a
//! tiny address space; this one stresses what the adaptive representation
//! adds: randomized range sequences in both representations, `clear`
//! interleaved mid-sequence (a recycled map must behave like a fresh one),
//! and query equivalence on both sides of a switch. Half the sequences start
//! from a map spilled by disjoint one-byte inserts above the ops' address
//! space, since a sequence of a hundred-odd ops alone stays far below the
//! crossover. Exact overwrites and aligned re-flushes (updates over a run of
//! existing segments) drive the in-place update path in both
//! representations.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use pmtest_interval::{ByteRange, SegmentMap};
use proptest::prelude::*;

/// Wide enough that dozens of small disjoint segments fit.
const ADDR_SPACE: u64 = 4096;

/// Most one-byte segments the spilled start inserts before it must have
/// crossed to the BTree.
const MAX_SPILL_SEGMENTS: u64 = 1 << 16;

/// Short ranges keep segments from merging away; long ones exercise splits.
fn arb_range() -> impl Strategy<Value = ByteRange> {
    prop_oneof![
        // Small disjoint-ish segments: drive the segment count up.
        (0..ADDR_SPACE / 8, 1u64..8).prop_map(|(slot, len)| {
            let start = slot * 8;
            ByteRange::new(start, (start + len).min(ADDR_SPACE))
        }),
        // Arbitrary spans: exercise straddling splits and bulk overwrites.
        (0..ADDR_SPACE, 0..ADDR_SPACE).prop_map(|(a, b)| {
            let (s, e) = if a <= b { (a, b) } else { (b, a) };
            ByteRange::new(s, e)
        }),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(ByteRange, u8),
    Remove(ByteRange),
    Update(ByteRange, u8),
    /// Update that erases the odd-valued covered parts of the range.
    Thin(ByteRange),
    /// Insert over exactly the `n % len`-th segment: an in-place overwrite.
    Overwrite(usize, u8),
    /// Update from the start of the `n % len`-th segment to the end of the
    /// one `span` segments later: exactly covered when they are contiguous,
    /// like a flush of what was written.
    Reflush(usize, usize, u8),
    Clear,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_range(), any::<u8>()).prop_map(|(r, v)| Op::Insert(r, v)),
        arb_range().prop_map(Op::Remove),
        (arb_range(), any::<u8>()).prop_map(|(r, v)| Op::Update(r, v)),
        arb_range().prop_map(Op::Thin),
        (any::<usize>(), any::<u8>()).prop_map(|(n, v)| Op::Overwrite(n, v)),
        (any::<usize>(), 0usize..4, any::<u8>()).prop_map(|(n, span, v)| Op::Reflush(n, span, v)),
        Just(Op::Clear),
    ]
}

/// Turns the segment-relative ops into range ops over `map`'s current
/// segments, so map and reference see the same range (`None`: empty map).
fn resolve(map: &SegmentMap<u8>, op: &Op) -> Option<Op> {
    let nth = |n: usize| map.iter().nth(n % map.len()).map(|(r, _)| r);
    Some(match *op {
        Op::Overwrite(_, _) | Op::Reflush(_, _, _) if map.is_empty() => return None,
        Op::Overwrite(n, v) => Op::Insert(nth(n)?, v),
        Op::Reflush(n, span, v) => {
            let first = n % map.len();
            let last = (first + span).min(map.len() - 1);
            Op::Update(ByteRange::new(nth(first)?.start(), nth(last)?.end()), v)
        }
        ref other => other.clone(),
    })
}

/// Per-byte reference model: address -> value.
fn apply_reference(model: &mut BTreeMap<u64, u8>, op: &Op) {
    match op {
        Op::Insert(r, v) => {
            for a in r.start()..r.end() {
                model.insert(a, *v);
            }
        }
        Op::Remove(r) => {
            for a in r.start()..r.end() {
                model.remove(&a);
            }
        }
        Op::Update(r, v) => {
            for a in r.start()..r.end() {
                let cur = model.get(&a).copied();
                model.insert(a, cur.map_or(*v, |c| c.wrapping_add(*v)));
            }
        }
        Op::Thin(r) => {
            for a in r.start()..r.end() {
                if model.get(&a).is_some_and(|v| v % 2 == 1) {
                    model.remove(&a);
                }
            }
        }
        Op::Clear => model.clear(),
        Op::Overwrite(..) | Op::Reflush(..) => unreachable!("resolved before applying"),
    }
}

fn apply_map(map: &mut SegmentMap<u8>, op: &Op) {
    match op {
        Op::Insert(r, v) => map.insert(*r, *v),
        Op::Remove(r) => map.remove(*r),
        Op::Update(r, v) => {
            map.update_range(*r, |_, cur| Some(cur.copied().map_or(*v, |c| c.wrapping_add(*v))))
        }
        Op::Thin(r) => map.update_range(*r, |_, cur| cur.copied().filter(|v| v % 2 == 0)),
        Op::Clear => map.clear(),
        Op::Overwrite(..) | Op::Reflush(..) => unreachable!("resolved before applying"),
    }
}

/// Applies `op` to both sides; returns the resolved op, if any.
fn apply(map: &mut SegmentMap<u8>, reference: &mut BTreeMap<u64, u8>, op: &Op) -> Option<Op> {
    let op = resolve(map, op)?;
    apply_map(map, &op);
    apply_reference(reference, &op);
    Some(op)
}

/// The map's segments, exploded to bytes — must equal the reference exactly.
fn explode(map: &SegmentMap<u8>) -> BTreeMap<u64, u8> {
    let mut bytes = BTreeMap::new();
    for (r, v) in map.iter() {
        for a in r.start()..r.end() {
            bytes.insert(a, *v);
        }
    }
    bytes
}

/// A map spilled to the BTree by disjoint one-byte inserts every other byte
/// from [`ADDR_SPACE`] up, and its reference. The segment-relative ops pick
/// these segments too; the range ops leave them in place.
fn spilled_start() -> &'static (SegmentMap<u8>, BTreeMap<u64, u8>) {
    static START: OnceLock<(SegmentMap<u8>, BTreeMap<u64, u8>)> = OnceLock::new();
    START.get_or_init(|| {
        let (mut map, mut reference) = (SegmentMap::new(), BTreeMap::new());
        for i in 0..MAX_SPILL_SEGMENTS {
            if !map.is_flat() {
                return (map, reference);
            }
            let op = Op::Insert(ByteRange::with_len(ADDR_SPACE + i * 2, 1), i as u8);
            apply(&mut map, &mut reference, &op);
        }
        panic!("{MAX_SPILL_SEGMENTS} disjoint segments never crossed to the BTree");
    })
}

/// An empty map, or (when `spilled`) the spilled start.
fn start(spilled: bool) -> (SegmentMap<u8>, BTreeMap<u64, u8>) {
    if spilled {
        spilled_start().clone()
    } else {
        (SegmentMap::new(), BTreeMap::new())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Insert/split/remove/update/clear sequences leave the adaptive map
    /// byte-for-byte equal to the reference, at every step, regardless of
    /// which representation it is currently in.
    #[test]
    fn adaptive_map_matches_per_byte_reference(
        spilled in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 0..120),
    ) {
        let (mut map, mut reference) = start(spilled);
        for op in &ops {
            let applied = apply(&mut map, &mut reference, op);
            if matches!(applied, Some(Op::Clear)) {
                prop_assert!(map.is_empty());
                prop_assert!(
                    map.is_flat(),
                    "a cleared map must return to the flat representation"
                );
            }
        }
        prop_assert_eq!(explode(&map), reference);
    }

    /// Point and range queries agree with the reference on both sides of a
    /// representation switch.
    #[test]
    fn adaptive_map_queries_match_reference(
        spilled in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 0..120),
        probes in prop::collection::vec(arb_range(), 1..8),
    ) {
        let (mut map, mut reference) = start(spilled);
        for op in &ops {
            apply(&mut map, &mut reference, op);
        }
        for q in &probes {
            prop_assert_eq!(
                map.get(q.start()).copied(),
                reference.get(&q.start()).copied()
            );
            let ref_covers = (q.start()..q.end()).all(|a| reference.contains_key(&a));
            let ref_overlaps = (q.start()..q.end()).any(|a| reference.contains_key(&a));
            prop_assert_eq!(map.covers(*q), ref_covers);
            prop_assert_eq!(map.overlaps(*q), ref_overlaps);
            // overlapping() + gaps() partition the probe range.
            let covered: u64 = map.overlapping(*q).map(|(r, _)| r.len()).sum::<u64>()
                + map.gaps(*q).iter().map(ByteRange::len).sum::<u64>();
            prop_assert_eq!(covered, q.len());
            // Clipped overlaps agree with the reference byte-wise.
            for (sub, v) in map.overlapping(*q) {
                for a in sub.start()..sub.end() {
                    prop_assert_eq!(reference.get(&a), Some(v));
                }
            }
        }
    }

    /// A map that crossed to the tree and was cleared behaves exactly like a
    /// fresh one under a second op sequence (recycling equivalence).
    #[test]
    fn cleared_map_is_equivalent_to_fresh(
        spilled in any::<bool>(),
        warmup in prop::collection::vec(arb_op(), 40..100),
        ops in prop::collection::vec(arb_op(), 0..60),
    ) {
        let (mut recycled, mut scratch_reference) = start(spilled);
        for op in &warmup {
            apply(&mut recycled, &mut scratch_reference, op);
        }
        let switched_during_warmup = recycled.repr_switches();
        recycled.clear();

        let (mut fresh, mut reference) = (SegmentMap::new(), BTreeMap::new());
        for op in &ops {
            if let Some(op) = apply(&mut fresh, &mut reference, op) {
                apply_map(&mut recycled, &op);
            }
        }
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(explode(&recycled), reference);
        // The cumulative switch counter only ever grows.
        prop_assert!(recycled.repr_switches() >= switched_during_warmup);
    }

    /// Structural invariant under randomized sequences: segments non-empty,
    /// sorted, disjoint — in either representation.
    #[test]
    fn segments_stay_sorted_and_disjoint(
        spilled in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 0..120),
    ) {
        let (mut map, mut reference) = start(spilled);
        for op in &ops {
            apply(&mut map, &mut reference, op);
            let mut prev_end = 0u64;
            for (r, _) in map.iter() {
                prop_assert!(!r.is_empty());
                prop_assert!(r.start() >= prev_end);
                prev_end = r.end();
            }
        }
    }
}
