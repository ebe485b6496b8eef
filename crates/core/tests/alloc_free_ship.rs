//! Allocation regression test for the ship path: once a producer's ring has
//! made one warm lap, recording, shipping and checking a trace must not
//! touch the heap — record buffers are traded between the recording arena,
//! the staged batch, the ring slots and the workers' spares, never
//! allocated. Only the result vectors still grow, by doubling.
//!
//! The engine's workers allocate on threads of their own, so the counting
//! allocator tallies process-wide, and this binary holds one test: a second
//! test running beside it would add its allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pmtest_core::{PmTestSession, ThreadRecorder};
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, Sink};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting is one relaxed atomic add,
// which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Traces each counted phase ships.
const TRACES: usize = 10_000;

/// Records one clean four-entry trace through `sink` and seals it.
fn sink_trace(session: &PmTestSession) {
    let r = ByteRange::with_len(0, 8);
    session.record(Event::Write(r).here());
    session.record(Event::Flush(r).here());
    session.record(Event::Fence.here());
    session.is_persist(r);
    session.send_trace().expect("trace submitted");
}

/// The same trace through a [`ThreadRecorder`].
fn recorder_trace(rec: &mut ThreadRecorder) {
    let r = ByteRange::with_len(0, 8);
    rec.record(Event::Write(r).here());
    rec.record(Event::Flush(r).here());
    rec.record(Event::Fence.here());
    rec.is_persist(r);
    rec.send_trace().expect("trace submitted");
}

/// Runs `lap` warm-up traces, then counts the allocations of [`TRACES`]
/// more and of collecting their report.
fn count_phase(session: &PmTestSession, lap: usize, mut trace: impl FnMut()) -> u64 {
    for _ in 0..lap {
        trace();
    }
    assert!(session.take_report().is_clean());
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..TRACES {
        trace();
    }
    let report = session.take_report();
    let allocations = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(report.traces().len(), TRACES);
    assert!(report.is_clean());
    allocations
}

/// Traces that take a producer's ring once around, twice over: every ring
/// slot, the staged and recording arenas and the worker's spare each record
/// a full batch at least once.
fn warm_lap(session: &PmTestSession, batch: usize) -> usize {
    2 * (session.queue_capacity() + 4) * batch
}

#[test]
fn a_warm_ring_ships_without_allocating() {
    let unbatched = PmTestSession::builder().build();
    unbatched.start();
    let sink = count_phase(&unbatched, warm_lap(&unbatched, 1), || sink_trace(&unbatched));

    let batched = PmTestSession::builder().batch_capacity(32).build();
    batched.start();
    let batch32 = count_phase(&batched, warm_lap(&batched, 32), || sink_trace(&batched));

    let mut rec = unbatched.recorder();
    let recorder = count_phase(&unbatched, warm_lap(&unbatched, 1), || recorder_trace(&mut rec));

    let total = sink + batch32 + recorder;
    assert!(
        total * 100 < 3 * TRACES as u64,
        "{total} allocations over {} traces (Sink path {sink}, batch 32 {batch32}, \
         recorder {recorder}): more than one per 100 traces",
        3 * TRACES
    );
}
