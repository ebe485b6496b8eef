//! Engine telemetry end to end: drive a mixed multi-threaded workload at
//! the `Full` telemetry level, then export what the engine observed in all
//! three machine-readable formats (JSON-lines, Prometheus text exposition,
//! single-document JSON), the diagnostics as JSON-lines, and the ingest
//! spans as a Perfetto-loadable Chrome trace-event file.
//!
//! The emitted files land in `bench_results/` (same shape as the benchmark
//! reports there); CI re-parses them with the `obs-check` binary to keep the
//! formats honest. Open `TELEMETRY_trace.trace.json` at
//! <https://ui.perfetto.dev> to see the ship/claim/replay/merge timeline.
//!
//! Run with: `cargo run --release --example telemetry`

use pmtest::obs::writer;
use pmtest::prelude::*;

const THREADS: u64 = 4;
const TRACES_PER_THREAD: u64 = 100;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Full telemetry level: diagnosis bundles by re-check, the
    // profiler, timing histograms AND the per-thread span buffers. The
    // verdict cache is on too — with the Full level observing every replay
    // it must bypass every trace, so the exported counters demonstrate the
    // bypass predicate.
    let session = PmTestSession::builder()
        .workers(2)
        .telemetry(TelemetryConfig::at(TelemetryLevel::Full))
        .verdict_cache(true)
        .build();
    session.start();

    // A deliberately mixed workload: mostly clean traces, some missing their
    // persist barrier (FAIL: not_persisted), some flushing twice
    // (WARN: duplicate_flush) — so the per-kind counters all move.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = session.clone();
            s.spawn(move || {
                session.thread_init();
                let pool = PmPool::new(4096, session.sink());
                for i in 0..TRACES_PER_THREAD {
                    let r = pool.write_u64((i % 64) * 8, t << 32 | i).expect("write");
                    match i % 10 {
                        0 => {} // no barrier at all: isPersist below FAILs
                        1 => {
                            pool.flush(r);
                            pool.flush(r); // duplicate writeback: WARN
                            pool.fence();
                        }
                        _ => pool.persist_barrier(r),
                    }
                    session.is_persist(r);
                    session.send_trace();
                }
            });
        }
    });
    let bundles = session.take_bundles();
    let report = session.take_report();
    let snap = session.telemetry_snapshot();

    println!("== run ==");
    println!("{}", report.summary());
    println!("{}", session.telemetry_summary());

    println!("\n== Prometheus text exposition (excerpt) ==");
    for line in snap.to_prometheus().lines().filter(|l| {
        l.starts_with("# TYPE")
            || l.starts_with("engine_traces_checked")
            || l.starts_with("engine_diag_total")
            || l.starts_with("session_flush_total")
    }) {
        println!("{line}");
    }

    println!("\n== JSON-lines (first 10 of {}) ==", snap.to_json_lines().lines().count());
    for line in snap.to_json_lines().lines().take(10) {
        println!("{line}");
    }

    // Dump everything next to the benchmark reports, in their shape.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/bench_results");
    let doc = writer::write_snapshot(dir, "TELEMETRY_demo", &snap)?;
    let jsonl = writer::write_json_lines(dir, "telemetry_demo", &snap)?;
    let diags = format!("{dir}/telemetry_diags.jsonl");
    std::fs::write(&diags, report.to_json_lines())?;
    // Each failing trace was re-checked into a diagnosis bundle
    // (bounded); dump the first one for `pmtest-explain` / `obs-check`.
    let bundle = writer::write_lines(dir, "EXPLAIN_demo", &bundles[0].to_json_lines())?;
    // The ingest spans as Chrome trace-event JSON — load this file in the
    // Perfetto UI to see every producer's ship spans above each worker's
    // claim/replay/merge lanes.
    let chrome = session.chrome_trace();
    let trace_path = format!("{dir}/TELEMETRY_trace.trace.json");
    std::fs::write(&trace_path, &chrome)?;
    println!("\nwrote {}", doc.display());
    println!("wrote {}", jsonl.display());
    println!("wrote {diags}");
    println!("wrote {} ({} bundles captured)", bundle.display(), bundles.len());
    println!("wrote {trace_path} (open at https://ui.perfetto.dev)");

    // The demo doubles as a smoke test: the planted bugs must be visible in
    // both the report and the telemetry counters.
    let expected = (THREADS * TRACES_PER_THREAD) as usize;
    assert_eq!(report.traces().len(), expected);
    assert_eq!(report.fail_count() as u64, THREADS * TRACES_PER_THREAD / 10);
    assert_eq!(report.warn_count() as u64, THREADS * TRACES_PER_THREAD / 10);
    assert_eq!(snap.counter("engine_traces_checked"), Some(expected as u64));
    assert_eq!(
        snap.counter_sum("engine_diag_total"),
        (report.fail_count() + report.warn_count()) as u64
    );
    assert!(snap.histogram("engine_check_latency_ns").map_or(0, |h| h.count) >= expected as u64);
    // Every handoff is counted once, under the label of its caller, and
    // its fill lands in the batch-fill histogram.
    let handoffs = snap.counter("engine_batches_submitted").expect("registered");
    assert_eq!(snap.counter_sum("session_flush_total"), handoffs, "handoffs counted by cause");
    for cause in ["send_trace", "result_point", "idle_worker"] {
        let labelled = snap.counters.iter().any(|c| {
            c.name == "session_flush_total"
                && c.labels.iter().any(|(k, v)| k == "cause" && v == cause)
        });
        assert!(labelled, "session_flush_total{{cause={cause}}} exported");
    }
    let fill = snap.histogram("session_batch_fill").expect("registered");
    assert_eq!((fill.count, fill.sum), (handoffs, expected as u64), "traces per handoff");
    assert!(!bundles.is_empty(), "failing traces must auto-capture diagnosis bundles");
    assert!(bundles.iter().all(|b| !b.steps.is_empty()), "bundles carry the trace's steps");
    // The five ingest stages all saw traffic, and the exported trace-event
    // file is schema-valid and non-trivial.
    for stage in ["record_push", "ring_wait", "claim_replay", "replay", "report_merge"] {
        let h = snap.histogram_with("engine_stage_ns", "stage", stage).expect("stage registered");
        assert!(h.count > 0, "stage {stage} recorded no batches");
    }
    let stats = pmtest::obs::trace_event::validate_str(&chrome)
        .map_err(|e| format!("invalid trace-event JSON: {e}"))?;
    assert!(stats.pairs > 0, "the Full level captured no spans");
    assert!(stats.threads >= 2, "producer and worker tracks expected, got {stats:?}");
    assert_eq!(snap.counter_sum("engine_spans_dropped"), 0, "span buffers must not overflow here");
    // The verdict cache saw every trace and bypassed all of them: at the
    // Full level the replay observers must see every occurrence cold.
    assert_eq!(snap.counter("verdict_cache_bypasses"), Some(expected as u64));
    assert_eq!(snap.counter("verdict_cache_l1_hits"), Some(0));
    assert_eq!(snap.counter("verdict_cache_l2_hits"), Some(0));
    assert_eq!(snap.counter("verdict_cache_misses"), Some(0));
    assert_eq!(snap.gauge("verdict_cache_entries"), Some(0.0), "bypassed traces cache nothing");
    Ok(())
}
