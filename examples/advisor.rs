//! Cross-trace performance profiling and the optimization advisor end to
//! end: drive a multi-threaded workload that plants the three wasteful
//! persistency shapes — duplicate writebacks, fences that order no new
//! work, and duplicate undo-log entries — with profiling on, then rank the
//! waste into source-located suggestions and emit the deterministic
//! `pmtest-advisor/v1` document next to the benchmark reports.
//!
//! The emitted `bench_results/ADVISOR_demo.json` is schema-checked by the
//! `obs-check` binary in CI and renders as tables with:
//! `cargo run -p pmtest-explain -- --advise bench_results/ADVISOR_demo.json`
//!
//! Run with: `cargo run --release --example advisor`

use std::sync::Arc;

use pmtest::obs::advisor;
use pmtest::prelude::*;
use pmtest::txlib::ObjPool;

const THREADS: u64 = 4;
const TRACES_PER_THREAD: u64 = 51;
const TX_TRACES: u64 = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Profile level, which includes Bundles but not the timing
    // histograms or spans: every checked trace's replay additionally feeds
    // the site-keyed profile store.
    let session = PmTestSession::builder()
        .workers(2)
        .telemetry(TelemetryConfig::at(TelemetryLevel::Profile))
        .build();
    session.start();

    // Low-level waste, from four threads at once: every third trace flushes
    // the same line twice (WARN duplicate_flush → flush-coalescing
    // suggestion), every third issues a fence that orders nothing
    // (redundant-fence suggestion); the rest are clean.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = session.clone();
            s.spawn(move || {
                session.thread_init();
                let pool = PmPool::new(4096, session.sink());
                for i in 0..TRACES_PER_THREAD {
                    let r = pool.write_u64((i % 64) * 8, t << 32 | i).expect("write");
                    match i % 3 {
                        0 => {
                            pool.flush(r);
                            pool.flush(r); // duplicate writeback of the same line
                            pool.fence();
                        }
                        1 => {
                            pool.persist_barrier(r);
                            pool.fence(); // orders no new work
                        }
                        _ => pool.persist_barrier(r),
                    }
                    session.is_persist(r);
                    session.send_trace();
                }
            });
        }
    });

    // Transactional waste: every transaction backs up the same object
    // twice (WARN duplicate_log → log-elision suggestion).
    let pm = Arc::new(PmPool::new(1 << 16, session.sink()));
    let pool = Arc::new(ObjPool::create(pm, 64, PersistMode::X86)?);
    let obj = pool.root().start();
    for i in 0..TX_TRACES {
        pool.pool().emit(Event::TxCheckerStart);
        let mut tx = pool.begin_tx()?;
        tx.add(ByteRange::with_len(obj, 8))?;
        tx.add(ByteRange::with_len(obj, 8))?; // already logged above
        tx.write_u64(obj, i)?;
        tx.commit()?;
        pool.pool().emit(Event::TxCheckerEnd);
        session.send_trace();
    }

    let report = session.take_report();
    let profile = session.profile();
    let advisor_report = session.advisor_report();
    let snap = session.telemetry_snapshot();

    println!("== run ==");
    println!("{}", report.summary());
    println!("{}", session.telemetry_summary());

    println!("\n== top suggestions ==");
    for s in advisor_report.top(5) {
        println!(
            "#{} {:<16} {:<24} count={:<4} wasted={}B score={}",
            s.rank,
            s.kind.code(),
            s.site,
            s.count,
            s.wasted_bytes,
            s.score
        );
    }

    // Emit the deterministic advisor document next to the benchmark
    // reports; CI re-validates it with `obs-check` and `pmtest-explain
    // --advise` renders it as top-K tables with per-site drill-down.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/bench_results");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/ADVISOR_demo.json");
    std::fs::write(&path, advisor_report.to_json())?;
    println!("\nwrote {path}");
    println!("render with: cargo run -p pmtest-explain -- --advise {path}");

    // The demo doubles as a smoke test: the planted waste must surface as
    // ranked, source-located suggestions and a schema-valid document.
    let per_thread_third = TRACES_PER_THREAD.div_ceil(3);
    let expected_traces = THREADS * TRACES_PER_THREAD + TX_TRACES;
    assert_eq!(report.traces().len() as u64, expected_traces);
    assert_eq!(report.fail_count(), 0, "waste is advisory, not a failure:\n{report}");
    assert_eq!(snap.counter("profile_traces_profiled"), Some(expected_traces));
    assert_eq!(profile.traces, expected_traces);

    let kind_at = |kind: &str| {
        advisor_report
            .suggestions
            .iter()
            .find(|s| s.kind.code() == kind)
            .unwrap_or_else(|| panic!("no {kind} suggestion"))
    };
    let dup_flush = kind_at("flush_coalescing");
    assert_eq!(dup_flush.count, THREADS * per_thread_third, "one per planted double flush");
    assert!(dup_flush.site.contains("advisor.rs:"), "sited in this file: {}", dup_flush.site);
    assert_eq!(kind_at("redundant_fence").count, THREADS * per_thread_third);
    assert_eq!(kind_at("log_elision").count, TX_TRACES);
    let json = advisor_report.to_json();
    let stats = advisor::validate(&json).map_err(|e| format!("advisor document invalid: {e}"))?;
    assert_eq!(stats.suggestions, advisor_report.suggestions.len());
    assert_eq!(stats.traces, expected_traces);
    Ok(())
}
