//! Stress tests for the sharded checking engine: many producers, many
//! workers, mixed submission sizes, traces batching behind busy workers —
//! no trace may be lost, and merging the per-worker result shards must
//! preserve both the trace order (by id) and the program order of
//! diagnostics *within* each trace.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pmtest::core::ShadowMemory;
use pmtest::prelude::*;

/// Fences padding each contended trace: four such traces pass the record
/// bound a producer may hold untaken, so submissions regularly wait for a
/// worker's take (fences alone add no diagnostic).
const PAD_FENCES: usize = 1024;

fn clean_trace(id: u64) -> Trace {
    let r = ByteRange::with_len(0, 8);
    let mut t = Trace::new(id);
    t.push(Event::Write(r).here());
    t.push(Event::Flush(r).here());
    t.push(Event::Fence.here());
    t.push(Event::IsPersist(r).here());
    t
}

/// A trace with two failing `isPersist` checkers on distinct ranges, padded
/// with [`PAD_FENCES`] fences before them. The diagnostics must come back in
/// program order: first the checker on `[lo)`, then the one on `[hi)`.
fn two_failure_trace(id: u64) -> Trace {
    let lo = ByteRange::with_len(0, 8);
    let hi = ByteRange::with_len(64, 8);
    let mut t = Trace::new(id);
    t.push(Event::Write(lo).here());
    t.push(Event::Write(hi).here());
    for _ in 0..PAD_FENCES {
        t.push(Event::Fence.here());
    }
    t.push(Event::IsPersist(lo).here()); // FAIL 1: lo never flushed
    t.push(Event::IsPersist(hi).here()); // FAIL 2: hi never flushed
    t
}

#[test]
fn no_trace_lost_under_producer_worker_contention() {
    const PRODUCERS: u64 = 8;
    const TRACES_PER_PRODUCER: u64 = 250;
    // Eight threads share the engine's own producer, and padded traces fill
    // its record bound, so submissions regularly stall on backpressure.
    let engine = Arc::new(Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() }));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let engine = engine.clone();
            s.spawn(move || {
                let base = p * TRACES_PER_PRODUCER;
                let mut batch = Vec::new();
                for i in 0..TRACES_PER_PRODUCER {
                    let id = base + i;
                    // Mix submission shapes: singles, and batches of varying
                    // size (flushed every 7 traces).
                    if p % 2 == 0 {
                        engine.submit(two_failure_trace(id)).unwrap();
                    } else {
                        batch.push(two_failure_trace(id));
                        if batch.len() == 7 {
                            engine.submit_batch(std::mem::take(&mut batch)).unwrap();
                        }
                    }
                }
                engine.submit_batch(batch).unwrap();
            });
        }
    });
    let report = engine.take_report();
    let total = PRODUCERS * TRACES_PER_PRODUCER;
    assert_eq!(report.traces().len(), total as usize, "every submitted trace is checked");
    assert_eq!(report.fail_count(), 2 * total as usize);

    // Shard merge is ordered by trace id, with every id present exactly once.
    let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
    assert_eq!(ids, (0..total).collect::<Vec<_>>());

    // Within each trace, diagnostics keep program order regardless of which
    // worker checked it: the range-0 failure strictly before the range-64
    // failure.
    for trace in report.traces() {
        assert_eq!(trace.diags.len(), 2, "trace {}", trace.trace_id);
        assert_eq!(trace.diags[0].range, Some(ByteRange::with_len(0, 8)));
        assert_eq!(trace.diags[1].range, Some(ByteRange::with_len(64, 8)));
    }

    let stats = engine.stats();
    assert_eq!(stats.traces_submitted, total);
    assert_eq!(stats.traces_checked, total);
    assert!(stats.backpressure_stalls > 0, "padded traces under 8 producers must stall");
    assert!(stats.queue_highwater >= 1);
}

#[test]
fn accumulate_and_drain_survive_concurrent_submission() {
    // report() (accumulating) interleaved with ongoing submissions, then a
    // final take_report() drains everything exactly once.
    let engine = Arc::new(Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() }));
    for round in 0..5u64 {
        let base = round * 100;
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let engine = engine.clone();
                s.spawn(move || {
                    let ids = (base + p * 25)..(base + (p + 1) * 25);
                    engine.submit_batch(ids.map(clean_trace).collect()).unwrap();
                });
            }
        });
        let report = engine.report();
        assert_eq!(report.traces().len(), ((round + 1) * 100) as usize, "report accumulates");
        assert!(report.is_clean());
    }
    assert_eq!(engine.take_report().traces().len(), 500, "take_report drains all");
    assert_eq!(engine.report().traces().len(), 0, "drained");
}

/// x86 rules through the object-safe path, holding every worker in its
/// first check while `hold` is set.
#[derive(Debug)]
struct HeldX86 {
    hold: Arc<AtomicBool>,
    x86: X86Model,
}

impl PersistencyModel for HeldX86 {
    fn name(&self) -> &str {
        "x86"
    }

    fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>) {
        while self.hold.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.x86.apply(shadow, entry, diags);
    }

    fn check_persist(
        &self,
        shadow: &ShadowMemory,
        range: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        self.x86.check_persist(shadow, range, loc, diags);
    }

    fn check_ordered_before(
        &self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        self.x86.check_ordered_before(shadow, first, second, loc, diags);
    }
}

#[test]
fn batched_sessions_with_many_threads_lose_nothing() {
    const THREADS: usize = 6;
    const TRACES_PER_THREAD: usize = 100;
    // The workers are held until every thread has exited, so each thread's
    // traces batch behind its full mailbox and are still staged at exit.
    let hold = Arc::new(AtomicBool::new(true));
    let model = HeldX86 { hold: hold.clone(), x86: X86Model::new() };
    let session = PmTestSession::builder().workers(4).model(model).build();
    session.start();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let session = session.clone();
            s.spawn(move || {
                session.thread_init();
                for _ in 0..TRACES_PER_THREAD {
                    let r = ByteRange::with_len(0, 8);
                    session.record(Event::Write(r).here());
                    session.record(Event::Flush(r).here());
                    session.record(Event::Fence.here());
                    session.is_persist(r);
                    session.send_trace().expect("trace produced");
                }
                // Traces are still staged here; the thread exits anyway.
            });
        }
    });
    hold.store(false, Ordering::Release);
    let report = session.finish();
    assert_eq!(report.traces().len(), THREADS * TRACES_PER_THREAD);
    assert!(report.is_clean(), "{report}");
    let stats = session.stats();
    assert_eq!(stats.traces_submitted, (THREADS * TRACES_PER_THREAD) as u64);
    assert!(
        stats.batches_submitted < stats.traces_submitted,
        "batching must actually coalesce: {} batches for {} traces",
        stats.batches_submitted,
        stats.traces_submitted
    );
}
