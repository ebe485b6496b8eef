//! Allocation regression test for the checker's steady state: once a
//! recycled `CheckerScratch` and `LocResolver` have replayed a trace shape,
//! replaying it again through `check_packed_with` must not touch the heap.
//!
//! Two shapes, each under both built-in models in its clean idiom: a
//! kv-shaped batch of short redo-log transactions (tens of entries and a
//! handful of live segments each) and a pmfs-shaped journal stream (tens of
//! thousands of entries, 150+ live segments, some writes straddling earlier
//! ones). A third batch mixes x86 kv traces with ones that end in a foreign
//! `dfence`, the only traces for which the replay collects open writes. A
//! counting global allocator tallies per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pmtest_core::{
    check_packed_with, CheckerScratch, DiagKind, HopsModel, PersistencyModel, X86Model,
};
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, LocResolver, Trace};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so counting neither allocates
// nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[derive(Clone, Copy)]
enum Dialect {
    X86,
    Hops,
}

/// Orders what came before against what comes after: `sfence` on x86, an
/// `ofence` under HOPS. On x86 the ranges are written back first, so the
/// fence also makes them durable.
fn order(t: &mut Trace, dialect: Dialect, written: &[ByteRange]) {
    match dialect {
        Dialect::X86 => {
            for &r in written {
                t.push(Event::Flush(r).here());
            }
            t.push(Event::Fence.here());
        }
        Dialect::Hops => t.push(Event::OFence.here()),
    }
}

/// Makes `written` durable: writeback + `sfence` on x86, a `dfence` under
/// HOPS.
fn make_durable(t: &mut Trace, dialect: Dialect, written: &[ByteRange]) {
    match dialect {
        Dialect::X86 => order(t, dialect, written),
        Dialect::Hops => t.push(Event::DFence.here()),
    }
}

/// One transaction: journal/log record first, ordered before the logged
/// updates, all under a transaction checker, then the updates made durable
/// and checked.
fn transaction(t: &mut Trace, dialect: Dialect, log: ByteRange, updates: &[ByteRange]) {
    t.push(Event::TxCheckerStart.here());
    t.push(Event::TxBegin.here());
    t.push(Event::TxAdd(log).here());
    t.push(Event::Write(log).here());
    order(t, dialect, &[log]);
    for &r in updates {
        t.push(Event::TxAdd(r).here());
        t.push(Event::Write(r).here());
    }
    t.push(Event::TxEnd.here());
    make_durable(t, dialect, updates);
    t.push(Event::TxCheckerEnd.here());
    t.push(Event::IsOrderedBefore(log, updates[0]).here());
    for &r in updates {
        t.push(Event::IsPersist(r).here());
    }
}

/// A kv store's sets, one trace each: a redo-log record at a cycling log
/// slot, then the fields of the key's node and its bucket slot.
fn kv_traces(dialect: Dialect) -> Vec<Trace> {
    const LOG: u64 = 0x1000;
    const VALUES: u64 = 0x10_0000;
    const BUCKETS: u64 = 0x20_0000;
    (0..64u64)
        .map(|set| {
            let mut t = Trace::new(set);
            let key = set * 37 % 61;
            let log = ByteRange::with_len(LOG + (set % 16) * 128, 96);
            let node = VALUES + key * 256;
            let fields = [0, 8, 16, 32].map(|off| ByteRange::with_len(node + off, 8));
            let value = ByteRange::with_len(node + 64, 64);
            let bucket = ByteRange::with_len(BUCKETS + (key % 16) * 8, 8);
            transaction(&mut t, dialect, log, &[value, fields[0], fields[1], fields[2], bucket]);
            t
        })
        .collect()
}

/// A file system's journal stream as one long trace: each op journals into a
/// cycling slot, then updates an inode field and a data chunk. Every fourth
/// op rewrites a chunk shifted by half its size, straddling two earlier
/// chunks, as overwrites after a truncate do.
fn pmfs_trace(dialect: Dialect) -> Trace {
    const JOURNAL: u64 = 0x1000;
    const INODES: u64 = 0x10_0000;
    const DATA: u64 = 0x20_0000;
    let mut t = Trace::new(0);
    for op in 0..1500u64 {
        let journal = ByteRange::with_len(JOURNAL + (op % 32) * 64, 64);
        let inode = ByteRange::with_len(INODES + (op * 37 % 64) * 128, 16);
        let chunk = (op * 11 % 16) * 1024 + (op * 5 % 7) * 128;
        let shift = if op % 4 == 3 { 64 } else { 0 };
        let data = ByteRange::with_len(DATA + chunk + shift, 128);
        transaction(&mut t, dialect, journal, &[inode, data]);
    }
    t
}

/// Replays `traces` until warm, then counts the allocations of three more
/// replays and returns them per entry.
fn steady_state_allocations_per_entry(traces: &[Trace], model: &dyn PersistencyModel) -> f64 {
    let mut scratch = CheckerScratch::new();
    let mut resolver = LocResolver::new();
    let mut replay = |scratch: &mut CheckerScratch| {
        for t in traces {
            let diags = check_packed_with(t.packed(), model, scratch, &mut resolver);
            assert!(diags.is_empty(), "{} trace must check clean: {diags:?}", model.name());
        }
    };
    for _ in 0..2 {
        replay(&mut scratch);
    }
    let before = allocations();
    for _ in 0..3 {
        replay(&mut scratch);
    }
    let entries: usize = traces.iter().map(Trace::len).sum::<usize>() * 3;
    (allocations() - before) as f64 / entries as f64
}

/// Segments the shadow memory holds after replaying `trace`.
fn live_segments(trace: &Trace, model: &dyn PersistencyModel) -> usize {
    let mut scratch = CheckerScratch::new();
    let _ = check_packed_with(trace.packed(), model, &mut scratch, &mut LocResolver::new());
    scratch.shadow().states_in(ByteRange::new(0, u64::MAX)).count()
}

#[test]
fn kv_shaped_replay_allocates_nothing_under_x86() {
    let traces = kv_traces(Dialect::X86);
    assert_eq!(steady_state_allocations_per_entry(&traces, &X86Model::new()), 0.0);
}

#[test]
fn kv_shaped_replay_allocates_nothing_under_hops() {
    let traces = kv_traces(Dialect::Hops);
    assert_eq!(steady_state_allocations_per_entry(&traces, &HopsModel::new()), 0.0);
}

#[test]
fn pmfs_shaped_replay_allocates_nothing_under_x86() {
    let trace = pmfs_trace(Dialect::X86);
    let model = X86Model::new();
    let live = live_segments(&trace, &model);
    assert!(live >= 150, "pmfs-shaped trace holds {live} live segments");
    assert_eq!(steady_state_allocations_per_entry(&[trace], &model), 0.0);
}

#[test]
fn pmfs_shaped_replay_allocates_nothing_under_hops() {
    let trace = pmfs_trace(Dialect::Hops);
    let model = HopsModel::new();
    let live = live_segments(&trace, &model);
    assert!(live >= 150, "pmfs-shaped trace holds {live} live segments");
    assert_eq!(steady_state_allocations_per_entry(&[trace], &model), 0.0);
}

#[test]
fn x86_dfence_traces_among_dfence_free_ones_allocate_only_their_diagnostics() {
    let model = X86Model::new();
    let mut traces = kv_traces(Dialect::X86);
    // Every eighth set ends in a foreign dfence (one WARN), so the replay
    // collects that trace's writes for it, after seven traces that collect
    // none.
    for t in traces.iter_mut().skip(7).step_by(8) {
        t.push(Event::DFence.here());
    }
    let lone = [Trace::from_entries(0, vec![Event::DFence.here()])];
    let mut scratch = CheckerScratch::new();
    let mut resolver = LocResolver::new();
    // Allocations and diagnostics of one replay of `traces`.
    let mut replay = |traces: &[Trace]| {
        let before = allocations();
        let mut diags = 0;
        for t in traces {
            let found = check_packed_with(t.packed(), &model, &mut scratch, &mut resolver);
            assert!(found.iter().all(|d| d.kind == DiagKind::ForeignOperation), "{found:?}");
            diags += found.len() as u64;
        }
        (allocations() - before, diags)
    };
    for _ in 0..2 {
        replay(&traces);
        replay(&lone);
    }
    let (per_diag, one) = replay(&lone);
    assert_eq!(one, 1);
    let (allocs, diags) = replay(&traces);
    assert_eq!(diags, 8, "one WARN per dfence trace");
    assert_eq!(allocs, diags * per_diag, "the replay allocates beyond its diagnostics");
}
