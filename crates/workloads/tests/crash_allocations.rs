//! Allocation regression tests for crash recording and exploration.
//!
//! - Recording a program keeps one compact crash log: op records, one
//!   payload slab holding every write's bytes, and call sites. Recording
//!   allocates only when one of those grows, never once per write.
//! - A sweep keeps one working image and one recovery buffer, carried from
//!   crash point to crash point, so neither its images nor its points
//!   allocate; only the cursor's line state grows, with the log. That holds
//!   in model and random mode alike, and the queue's in-place recovery
//!   allocates nothing on a clean image.
//!
//! A counting global allocator tallies per thread, so tests running in
//! parallel do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use pmtest_core::explore::{explore, ExploreConfig, ExploreMode, ExploreReport, RecoveryProc};
use pmtest_interval::ByteRange;
use pmtest_pmem::crash::{CrashSim, ValuedOp};
use pmtest_pmem::{PmHeap, PmPool};
use pmtest_trace::{Event, MemorySink};
use pmtest_workloads::{CheckMode, FaultSet, PmQueue, QueueRecovery};

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

/// The explore-queue benchmark's shape: 96 one-line enqueues on a 16 KiB
/// pool behind a 4 KiB root area.
const IMAGE_BYTES: usize = 16 << 10;
const ROOT: u64 = 4096;
const ENQUEUES: usize = 96;
const VALUE_BYTES: usize = 48;

/// Growths a doubling vector makes on its way to a million elements.
const GROWTHS_PER_VEC: u64 = 21;

fn values() -> Vec<Vec<u8>> {
    (0..ENQUEUES).map(|i| vec![i as u8 + 1; VALUE_BYTES]).collect()
}

/// An empty queue on a pool whose events go to `sink`.
fn queue(sink: pmtest_trace::SharedSink) -> (Arc<PmPool>, PmQueue) {
    let pool = Arc::new(PmPool::new(IMAGE_BYTES, sink));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let q = PmQueue::create(heap, CheckMode::None, FaultSet::none()).expect("create queue");
    (pool, q)
}

/// Enqueues `values` on a fresh untracked queue, crash-recorded or not;
/// returns the allocations the enqueues made and the recording.
fn enqueue_allocations(values: &[Vec<u8>], record: bool) -> (u64, Option<CrashSim>) {
    let (pool, q) = queue(Arc::new(pmtest_trace::NullSink));
    if record {
        pool.begin_crash_recording();
    }
    let before = allocations();
    for v in values {
        q.enqueue(v).expect("enqueue");
    }
    let made = allocations() - before;
    (made, CrashSim::from_pool(&pool))
}

#[test]
fn recording_allocates_for_log_growth_not_per_write() {
    let values = values();
    let sink = Arc::new(MemorySink::new());
    let (_pool, q) = queue(sink.clone());
    let _ = sink.take_trace(0);
    for v in &values {
        q.enqueue(v).expect("enqueue");
    }
    let writes = sink.snapshot().iter().filter(|e| matches!(e.event, Event::Write(_))).count();

    let (plain, none) = enqueue_allocations(&values, false);
    let (recorded, sim) = enqueue_allocations(&values, true);
    assert!(none.is_none());
    let sim = sim.expect("recording active");
    let extra = recorded - plain;
    // The op records, the payload slab and the sites each grow by doubling.
    assert!(
        extra <= 3 * GROWTHS_PER_VEC,
        "recording {writes} writes ({} ops) cost {extra} allocations beyond the plain run; \
         log growth needs at most {}",
        sim.op_count(),
        3 * GROWTHS_PER_VEC
    );
    assert!(writes as u64 > 3 * GROWTHS_PER_VEC, "{writes} writes cannot tell the two apart");
}

/// Accepts every image without looking at it, so the sweep's own
/// allocations are all that is counted.
struct AcceptAll;

impl RecoveryProc for AcceptAll {
    fn name(&self) -> &str {
        "accept-all"
    }

    fn check(&self, _point: usize, _image: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// `epochs` epochs, each writing every one of `lines` cache lines twice and
/// ending in a fence with no flush: nothing is ever forced, so each crash
/// point after the first fence has at least `3^lines` reachable images.
/// The base is the explore-queue image size.
fn unflushed_sim(epochs: usize, lines: u64) -> CrashSim {
    let mut ops = Vec::new();
    for e in 0..epochs {
        for line in 0..lines {
            for half in 0..2u64 {
                let range = ByteRange::with_len(line * 64 + half * 8, 8);
                ops.push(ValuedOp::Write { range, data: vec![e as u8 + 1; 8] });
            }
        }
        ops.push(ValuedOp::Fence);
    }
    CrashSim::new(vec![0; IMAGE_BYTES], ops)
}

/// Sweeps `sim` with `proc` under `cfg`; returns the clean report with the
/// allocations the sweep made.
fn counted_sweep(
    sim: &CrashSim,
    proc: &dyn RecoveryProc,
    cfg: &ExploreConfig,
) -> (ExploreReport, u64) {
    let before = allocations();
    let report = explore(sim, proc, cfg);
    let made = allocations() - before;
    assert!(report.is_clean(), "{}", report.render());
    (report, made)
}

fn model(cap: usize) -> ExploreConfig {
    ExploreConfig { max_states_per_point: cap, ..ExploreConfig::default() }
}

fn random(points: usize, samples_per_point: usize) -> ExploreConfig {
    let mode = ExploreMode::Random { seed: 3, points, samples_per_point };
    ExploreConfig { mode, ..ExploreConfig::default() }
}

/// Asserts that two sweeps of one sim, differing only in images per point,
/// made the same allocations.
fn assert_same_allocations(few: (ExploreReport, u64), many: (ExploreReport, u64)) {
    let ((few, few_allocs), (many, many_allocs)) = (few, many);
    assert_eq!(few.points.len(), many.points.len());
    assert!(many.stats.images_checked >= 10 * few.stats.images_checked);
    assert_eq!(
        few_allocs,
        many_allocs,
        "{} more images cost {} more allocations",
        many.stats.images_checked - few.stats.images_checked,
        many_allocs.saturating_sub(few_allocs)
    );
}

#[test]
fn model_sweeps_allocate_per_point_not_per_image() {
    let sim = unflushed_sim(8, 6);
    assert_same_allocations(
        counted_sweep(&sim, &AcceptAll, &model(4)),
        counted_sweep(&sim, &AcceptAll, &model(4096)),
    );
}

#[test]
fn random_sweeps_allocate_per_point_not_per_image() {
    let sim = unflushed_sim(8, 6);
    assert_same_allocations(
        counted_sweep(&sim, &AcceptAll, &random(64, 4)),
        counted_sweep(&sim, &AcceptAll, &random(64, 256)),
    );
}

/// Asserts that a sweep with more crash points made at most one more
/// allocation per added point: the cursor's line state grows with the log,
/// and nothing is allocated per point.
fn assert_at_most_one_allocation_per_added_point(
    short: (ExploreReport, u64),
    long: (ExploreReport, u64),
) {
    let ((short, short_allocs), (long, long_allocs)) = (short, long);
    let added = long.points.len() - short.points.len();
    let per_point = long_allocs.saturating_sub(short_allocs) as f64 / added as f64;
    assert!(
        per_point <= 1.0,
        "{per_point:.2} allocations per added crash point ({short_allocs} -> {long_allocs} for \
         {} -> {} points, {} -> {} images)",
        short.points.len(),
        long.points.len(),
        short.stats.images_checked,
        long.stats.images_checked
    );
}

#[test]
fn model_sweep_allocations_grow_with_points() {
    let short = counted_sweep(&unflushed_sim(8, 6), &AcceptAll, &model(4096));
    let long = counted_sweep(&unflushed_sim(32, 6), &AcceptAll, &model(4096));
    assert_eq!(long.0.points.len(), 4 * short.0.points.len() - 3);
    assert_at_most_one_allocation_per_added_point(short, long);
}

#[test]
fn random_sweep_allocations_grow_with_points() {
    let short = counted_sweep(&unflushed_sim(8, 6), &AcceptAll, &random(64, 4));
    let long = counted_sweep(&unflushed_sim(32, 6), &AcceptAll, &random(512, 4));
    assert_at_most_one_allocation_per_added_point(short, long);
}

#[test]
fn in_place_queue_recovery_allocates_nothing() {
    let values = values();
    let (_, sim) = enqueue_allocations(&values, true);
    let sim = sim.expect("recording active");
    let proc = QueueRecovery::new(ROOT, values, 0);
    let (queue, queue_allocs) = counted_sweep(&sim, &proc, &model(4096));
    let (accept, accept_allocs) = counted_sweep(&sim, &AcceptAll, &model(4096));
    assert_eq!(queue.stats.images_checked, accept.stats.images_checked);
    assert_eq!(queue_allocs, accept_allocs, "recovering {} images", queue.stats.images_checked);
}
