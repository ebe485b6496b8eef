//! Allocation regression test for the ship path: once a producer's buffers
//! have made a warm lap, recording, handing over and checking a trace must
//! not touch the heap — record buffers are traded between the recording
//! arena, the staged arena, the mailbox and the workers' spares, never
//! allocated. That holds in both regimes: a worker keeping pace takes one
//! trace per handoff, and a worker the producer outruns takes handoffs up to
//! the record bound. Only the result vectors still grow, by doubling.
//!
//! The engine's workers allocate on threads of their own, so the counting
//! allocator tallies process-wide, and this binary holds one test: a second
//! test running beside it would add its allocations to the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pmtest_core::{Diag, PersistencyModel, PmTestSession, ShadowMemory, ThreadRecorder, X86Model};
use pmtest_interval::ByteRange;
use pmtest_trace::{Entry, Event, Sink, SourceLoc};

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

/// Warm-up traces for a producer whose handoffs carry one trace or a few:
/// its four rotating buffers each record a handoff many times over.
const WARM_LAP: usize = 1_000;

/// Warm-up traces for a producer that outruns its worker: handoffs of up to
/// a record bound's worth (about a thousand of these traces), so each of the
/// four rotating buffers holds a full handoff several times over.
const OUTRUN_WARM_LAP: usize = 30_000;

/// x86 rules through the object-safe path, with every fence held for a few
/// microseconds: a worker checking with it falls behind a producer
/// recording short traces, so traces batch up to the record bound.
#[derive(Debug)]
struct SlowX86(X86Model);

impl PersistencyModel for SlowX86 {
    fn name(&self) -> &str {
        "x86"
    }

    fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>) {
        if entry.event == Event::Fence {
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_micros(2) {
                std::hint::spin_loop();
            }
        }
        self.0.apply(shadow, entry, diags);
    }

    fn check_persist(
        &self,
        shadow: &ShadowMemory,
        range: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        self.0.check_persist(shadow, range, loc, diags);
    }

    fn check_ordered_before(
        &self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        self.0.check_ordered_before(shadow, first, second, loc, diags);
    }
}

#[test]
fn warm_handoffs_ship_without_allocating() {
    let session = PmTestSession::builder().build();
    session.start();
    let sink = count_phase(&session, WARM_LAP, || sink_trace(&session));

    let mut rec = session.recorder();
    let recorder = count_phase(&session, WARM_LAP, || recorder_trace(&mut rec));

    let slow = PmTestSession::builder().model(SlowX86(X86Model::new())).build();
    slow.start();
    let outrun = count_phase(&slow, OUTRUN_WARM_LAP, || sink_trace(&slow));
    let stats = slow.stats();
    assert!(
        stats.mean_batch_size() > 10.0 && stats.backpressure_stalls > 0,
        "the producer must outrun its worker up to the record bound: {stats:?}"
    );

    let total = sink + recorder + outrun;
    assert!(
        total * 100 < 3 * TRACES as u64,
        "{total} allocations over {} traces (Sink path {sink}, recorder {recorder}, \
         outrun worker {outrun}): more than one per 100 traces",
        3 * TRACES
    );
}
