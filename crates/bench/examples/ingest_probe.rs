//! Component timing probe for the ingest path. Not a benchmark of record —
//! a diagnostic for where the per-trace nanoseconds go, ending with the
//! `Full` telemetry level's own five-stage latency decomposition
//! (record→ring-push, ring-wait, claim/steal→replay, replay, report-merge)
//! from an instrumented w4/b32 round. Run with:
//! `cargo run --release -p pmtest-bench --example ingest_probe [traces]`

use std::time::Instant;

use pmtest_core::PmTestSession;
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, Sink, TraceArena};

fn time(label: &str, traces: u64, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    let ns = start.elapsed().as_nanos() as f64 / traces as f64;
    println!("{label:<44} {ns:>8.1} ns/trace ({:>6.2} M/s)", 1e3 / ns);
}

fn main() {
    let traces: u64 = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(500_000);
    let r = ByteRange::with_len(0, 8);

    // Floor: encode 5 entries into a reused arena, seal, clear.
    let mut arena = TraceArena::new();
    time("arena encode+seal only", traces, || {
        for id in 0..traces {
            arena.push(Event::Write(r).here());
            arena.push(Event::Flush(r).here());
            arena.push(Event::Fence.here());
            arena.push(Event::IsPersist(r).here());
            arena.seal(id);
            if arena.sealed() >= 32 {
                arena.clear();
            }
        }
    });

    // Session record path with tracking disabled: pure overhead floor of
    // the sink calls.
    let session = PmTestSession::builder().workers(1).batch_capacity(32).build();
    time("session record, disabled", traces, || {
        for _ in 0..traces {
            session.record(Event::Write(r).here());
            session.record(Event::Flush(r).here());
            session.record(Event::Fence.here());
            session.is_persist(r);
            session.send_trace();
        }
    });

    // Produce side alone: tracking on, but a batch capacity nothing reaches,
    // so no trace ever ships (one big arena grows instead).
    let produce_only = traces.min(500_000);
    let session = PmTestSession::builder().workers(1).batch_capacity(usize::MAX >> 1).build();
    session.start();
    time("session produce path, no shipping", produce_only, || {
        for _ in 0..produce_only {
            session.record(Event::Write(r).here());
            session.record(Event::Flush(r).here());
            session.record(Event::Fence.here());
            session.is_persist(r);
            session.send_trace();
        }
    });
    drop(session);

    // Report merge: what `take_report` pays to sort one round's results.
    {
        use pmtest_core::{Report, TraceReport};
        let round = traces.min(500_000);
        let reports: Vec<TraceReport> =
            (0..round).map(|id| TraceReport { trace_id: id, diags: Vec::new() }).collect();
        let mut merged = Report::default();
        time("report extend_traces (pre-sorted ids)", round, || {
            merged.extend_traces(reports);
        });
    }

    // Recorder-handle produce path: owned arena, no TLS/RefCell per event.
    let session = PmTestSession::builder().workers(1).batch_capacity(usize::MAX >> 1).build();
    session.start();
    let mut rec = session.recorder();
    time("recorder produce path, no shipping", produce_only, || {
        for _ in 0..produce_only {
            rec.record(Event::Write(r).here());
            rec.record(Event::Flush(r).here());
            rec.record(Event::Fence.here());
            rec.is_persist(r);
            rec.send_trace();
        }
    });
    drop(rec);
    drop(session);

    // Full single-producer pipeline, inline on the main thread.
    for batch in [32usize, 256] {
        let session = PmTestSession::builder().workers(1).batch_capacity(batch).build();
        session.start();
        for _ in 0..2_000 {
            session.record(Event::Write(r).here());
            session.record(Event::Flush(r).here());
            session.record(Event::Fence.here());
            session.is_persist(r);
            session.send_trace();
        }
        assert!(session.take_report().is_clean());
        time(&format!("1 producer inline, w1/b{batch}"), traces, || {
            for _ in 0..traces {
                session.record(Event::Write(r).here());
                session.record(Event::Flush(r).here());
                session.record(Event::Fence.here());
                session.is_persist(r);
                session.send_trace();
            }
            assert!(session.take_report().is_clean());
        });
        let stats = session.stats();
        println!(
            "    stalls={} steals={} highwater={}",
            stats.backpressure_stalls, stats.steals, stats.queue_highwater
        );
    }

    // Recorder-handle pipeline: the peak-ingest configuration.
    for batch in [256usize, 1024] {
        let session = PmTestSession::builder().workers(1).batch_capacity(batch).build();
        session.start();
        let mut rec = session.recorder();
        for _ in 0..2_000 {
            rec.record(Event::Write(r).here());
            rec.record(Event::Flush(r).here());
            rec.record(Event::Fence.here());
            rec.is_persist(r);
            rec.send_trace();
        }
        rec.flush();
        assert!(session.take_report().is_clean());
        time(&format!("1 recorder inline, w1/b{batch}"), traces, || {
            for _ in 0..traces {
                rec.record(Event::Write(r).here());
                rec.record(Event::Flush(r).here());
                rec.record(Event::Fence.here());
                rec.is_persist(r);
                rec.send_trace();
            }
            rec.flush();
            assert!(session.take_report().is_clean());
        });
        let stats = session.stats();
        println!(
            "    stalls={} steals={} highwater={}",
            stats.backpressure_stalls, stats.steals, stats.queue_highwater
        );
    }

    // Stage-latency decomposition: the same w4/b32 short-trace round with
    // the `Full` telemetry level, broken into the five per-batch pipeline stages
    // (record→ring-push, ring-wait, claim/steal→replay, replay,
    // report-merge). Per-*batch* numbers — divide by the batch size for the
    // per-trace share.
    {
        let round = traces.min(500_000);
        let session = PmTestSession::builder()
            .workers(4)
            .batch_capacity(32)
            .telemetry(pmtest_core::TelemetryConfig::at(pmtest_core::TelemetryLevel::Full))
            .build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..round / 4 {
                        session.record(Event::Write(r).here());
                        session.record(Event::Flush(r).here());
                        session.record(Event::Fence.here());
                        session.is_persist(r);
                        session.send_trace();
                    }
                });
            }
        });
        assert!(session.take_report().is_clean());
        let snap = session.telemetry_snapshot();
        println!("\nstage latency decomposition (4 producers, w4/b32, per batch):");
        for stage in ["record_push", "ring_wait", "claim_replay", "replay", "report_merge"] {
            let h = snap
                .histogram_with("engine_stage_ns", "stage", stage)
                .expect("stage histograms register unconditionally");
            let mean = if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 };
            println!(
                "    {stage:<14} n={:>6}  mean {:>9.0} ns  p50 {:>9.0}  p90 {:>9.0}  p99 {:>9.0}",
                h.count, mean, h.p50, h.p90, h.p99
            );
        }
        println!("    {}", session.telemetry_summary().replace('\n', "\n    "));
    }

    // Verdict-cache decomposition: a repetitive workload (one 62-record
    // shape over 30 distinct ranges, so the uncached run pays a long fused
    // replay) checked cache-off then cache-on, with the hit-rate breakdown
    // by tier.
    {
        let round = traces.min(100_000);
        let record_rep = |session: &PmTestSession| {
            for i in 0..30u64 {
                let range = ByteRange::with_len(i * 64, 64);
                session.record(Event::Write(range).here());
                session.record(Event::Flush(range).here());
            }
            session.record(Event::Fence.here());
            session.is_persist(ByteRange::with_len(0, 64));
            session.send_trace();
        };
        println!("\nverdict-cache decomposition (1 producer, w1/b32, repetitive shape):");
        let mut uncached_ns = 0.0;
        for cached in [false, true] {
            let session = PmTestSession::builder()
                .workers(1)
                .batch_capacity(32)
                .verdict_cache(cached)
                .build();
            session.start();
            for _ in 0..2_000 {
                record_rep(&session);
            }
            assert!(session.take_report().is_clean());
            let start = Instant::now();
            for _ in 0..round {
                record_rep(&session);
            }
            assert!(session.take_report().is_clean());
            let ns = start.elapsed().as_nanos() as f64 / round as f64;
            let label = if cached { "repetitive, cache on" } else { "repetitive, cache off" };
            println!("    {label:<40} {ns:>8.1} ns/trace ({:>6.2} M/s)", 1e3 / ns);
            if cached {
                println!("    memoization speedup: {:.2}x", uncached_ns / ns);
                let stats = session.verdict_cache_stats().expect("cache enabled");
                let lookups =
                    (stats.l1_hits + stats.l2_hits + stats.misses + stats.bypasses).max(1);
                let share = |n: u64| 100.0 * n as f64 / lookups as f64;
                println!(
                    "    lookups={lookups}: L1 hits {:.2}% | L2 hits {:.2}% | misses {:.2}% \
                     | bypasses {:.2}% (hit rate {:.4})",
                    share(stats.l1_hits),
                    share(stats.l2_hits),
                    share(stats.misses),
                    share(stats.bypasses),
                    stats.hit_rate(),
                );
                println!(
                    "    L2 resident: {} entries, {} bytes ({} inserts, {} evictions)",
                    stats.entries, stats.bytes_resident, stats.inserts, stats.evictions
                );
            } else {
                uncached_ns = ns;
            }
        }
    }
}
