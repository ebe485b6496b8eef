//! Submission throughput of the checking engine: traces/second as a
//! function of worker count (1–16) and session batch capacity (1 vs 32),
//! under the short traces where dispatch overhead dominates (the regime of
//! Fig. 10a's microbenchmarks and Fig. 12b's scaling study) — plus
//! peak-ingest rows driving the engine through the owned `ThreadRecorder`
//! handle at large batch sizes.
//!
//! Each measured iteration submits a fixed round of short traces and ends
//! with the `PMTest_GET_RESULT` barrier, so the number includes checking,
//! not just enqueueing. Results are written to
//! `bench_results/BENCH_engine.json` together with the engine's pipeline
//! counters (ring occupancy high-water, backpressure stalls, steal counts,
//! batch totals) and how often shipped batches reused their rings'
//! recycled buffers without growing them.
//!
//! Run with: `cargo bench -p pmtest-bench --bench engine_throughput`
//! (`PMTEST_BENCH_TRACES` overrides the per-round trace count.)

use std::fmt::Write as _;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmtest_core::{PmTestSession, Report, TelemetryConfig, TelemetryLevel, ThreadRecorder};
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, Sink};

/// Traces submitted per measured iteration (at least one per producer, so
/// a degenerate override cannot divide by zero in the rate math).
fn traces_per_round() -> u64 {
    std::env::var("PMTEST_BENCH_TRACES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
        .max(PRODUCERS)
}

/// Entries per trace: write + flush + fence + checker — the short-trace
/// shape of the paper's microbenchmarks.
const ENTRIES_PER_TRACE: u64 = 4;

/// Concurrent instrumented threads feeding the session, as in the paper's
/// multi-client setups (Fig. 12b). Several producers keep the dispatch path
/// contended, which is exactly what batching is meant to amortize.
const PRODUCERS: u64 = 4;

/// The worker-count axis of the matrix. 16 on a small host is deliberate:
/// it exercises the oversubscribed regime where the dispatch tie-break
/// matters most.
const WORKER_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Adding workers must never make throughput *worse* at the same batched
/// load: every batch-32 row from 1 to 16 workers may run up to this factor
/// above the 4-worker row (measurement noise) before the bench fails. The
/// rotating tie-break this originally guarded against regressed 8w/b32 to
/// 1.42x the 4-worker time; the flat-through-16 requirement pins the ingest
/// plane's work-stealing behaviour in the oversubscribed regime.
/// Set `PMTEST_BENCH_NO_ASSERT=1` (as CI's smoke run does) to report only.
const SCALING_SLACK: f64 = 1.15;

/// Oversubscription budget (the 155→187 ns w1→w16 drift guard): the
/// batch-32 floor at 16 workers may not exceed the single-worker floor by
/// more than this factor. [`SCALING_SLACK`] pins every b32 row to the
/// 4-worker row; this pins the far end of the axis to the near end, so the
/// whole curve has to stay flat, not just its middle.
/// Same `PMTEST_BENCH_NO_ASSERT=1` escape hatch.
const W16_VS_W1_SLACK: f64 = 1.25;

/// Minimum speedup of the cached repetitive-workload row over its uncached
/// twin (floor over floor). The workload repeats one 62-record trace shape,
/// so the cache serves ~everything after the first occurrence; anything
/// under 3x means the cached path stopped being a hash lookup.
const REP_SPEEDUP_MIN: f64 = 3.0;

/// Budget for the cached-probe microbench row: fingerprint + L1 lookup on
/// the short 4-entry trace shape, in nanoseconds (floor sample).
const CACHED_PROBE_BUDGET_NS: f64 = 40.0;

/// Minimum verdict-cache hit rate over the repetitive workload (count-based,
/// from the cache's own counters — not a timing number).
const REP_HIT_RATE_MIN: f64 = 0.95;

/// Telemetry-off budget against the *committed* baseline: at
/// `TelemetryLevel::Off` (the default), the w4/b32 session row's floor
/// sample may not run more than this factor above the ns/trace recorded in
/// the committed `bench_results/BENCH_engine.json` (its floor field when
/// present, else its median). This is the guard that keeps the
/// observability layers honest — "off" has to keep compiling down to a
/// branch on an atomic. Same `PMTEST_BENCH_NO_ASSERT=1` escape hatch.
const BASELINE_SLACK: f64 = 1.05;

/// Records and submits one round of short traces from [`PRODUCERS`]
/// threads, then drains the engine.
fn run_round(session: &PmTestSession, traces: u64) {
    let per_producer = traces / PRODUCERS;
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            s.spawn(|| {
                session.thread_init();
                let r = ByteRange::with_len(0, 8);
                for _ in 0..per_producer {
                    session.record(Event::Write(r).here());
                    session.record(Event::Flush(r).here());
                    session.record(Event::Fence.here());
                    session.is_persist(r);
                    session.send_trace();
                }
            });
        }
    });
    check_round(&session.take_report(), per_producer * PRODUCERS);
}

/// A round's report must be clean and hold exactly the round's traces: one
/// that times fewer than it sent would report a rate it did not reach.
fn check_round(report: &Report, traces: u64) {
    assert!(report.is_clean(), "bench traces must check clean");
    assert_eq!(report.traces().len() as u64, traces, "the report must hold the round's traces");
}

/// Distinct 64-byte ranges per repetitive-workload trace, so the uncached
/// run pays a long fused replay — the production-shaped cost the verdict
/// cache memoizes.
const REP_RANGES: u64 = 30;

/// Records one repetitive-workload trace: [`REP_RANGES`] write+flush pairs
/// over distinct ranges, a fence, and a checker — 62 records, one shape,
/// identical on every call (same ranges, same source sites), which is what
/// makes the whole round a single cache fingerprint.
fn record_repetitive_trace(session: &PmTestSession) {
    for i in 0..REP_RANGES {
        let r = ByteRange::with_len(i * 64, 64);
        session.record(Event::Write(r).here());
        session.record(Event::Flush(r).here());
    }
    session.record(Event::Fence.here());
    session.is_persist(ByteRange::with_len(0, 64));
    session.send_trace();
}

/// Records and submits one round of repetitive-workload traces from
/// [`PRODUCERS`] threads, then drains the engine. The A/B pair of rows runs
/// this with the verdict cache off and on.
fn run_round_repetitive(session: &PmTestSession, traces: u64) {
    let per_producer = traces / PRODUCERS;
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            s.spawn(|| {
                session.thread_init();
                for _ in 0..per_producer {
                    record_repetitive_trace(session);
                }
            });
        }
    });
    check_round(&session.take_report(), per_producer * PRODUCERS);
}

/// One round of short traces through an owned [`ThreadRecorder`], inline on
/// the bench thread — the peak-ingest configuration: no `Sink`-path TLS, no
/// producer-thread spawns, one producer saturating the plane.
fn run_round_recorder(rec: &mut ThreadRecorder, session: &PmTestSession, traces: u64) {
    let r = ByteRange::with_len(0, 8);
    for _ in 0..traces {
        rec.record(Event::Write(r).here());
        rec.record(Event::Flush(r).here());
        rec.record(Event::Fence.here());
        rec.is_persist(r);
        rec.send_trace();
    }
    rec.flush();
    check_round(&session.take_report(), traces);
}

struct Sample {
    /// `"session"` for the 4-producer `Sink`-path rows, `"recorder"` for
    /// the single-producer owned-handle rows.
    path: &'static str,
    workers: usize,
    batch: usize,
    /// Median over the sample batches — the headline number reported in
    /// the JSON.
    ns_per_trace: f64,
    /// Best (minimum) sample batch — the cost floor. The regression guards
    /// compare floors: on a shared single-core host, scheduler noise only
    /// ever *adds* time, so a noisy-neighbor episode inflates the median
    /// but cannot lower the floor, while a real code-cost increase raises
    /// both.
    floor_ns_per_trace: f64,
    /// First and third quartiles over the sample batches: the row's spread.
    q1_ns_per_trace: f64,
    q3_ns_per_trace: f64,
}

impl Sample {
    /// The row of the benchmark `group` ran last, whose iterations each
    /// handled `traces` traces.
    fn of_last(
        group: &criterion::BenchmarkGroup<'_>,
        path: &'static str,
        workers: usize,
        batch: usize,
        traces: u64,
    ) -> Self {
        let per = |ns: Option<f64>| ns.expect("benchmark just ran") / traces as f64;
        let (q1, q3) = group.last_quartiles_ns().expect("benchmark just ran");
        Self {
            path,
            workers,
            batch,
            ns_per_trace: per(group.last_estimate_ns()),
            floor_ns_per_trace: per(group.last_best_ns()),
            q1_ns_per_trace: per(Some(q1)),
            q3_ns_per_trace: per(Some(q3)),
        }
    }

    fn traces_per_sec(&self) -> f64 {
        1e9 / self.ns_per_trace
    }

    fn floor_traces_per_sec(&self) -> f64 {
        1e9 / self.floor_ns_per_trace
    }
}

fn bench_matrix(c: &mut Criterion) -> Vec<Sample> {
    let traces = traces_per_round();
    let mut samples = Vec::new();
    let mut group = c.benchmark_group("engine_throughput");
    group.throughput(Throughput::Elements(traces));
    for &workers in &WORKER_COUNTS {
        for &batch in &[1usize, 32] {
            // Queue depth left to the derived default (256/batch, floored
            // at 32): bounded like the kernel FIFO (§4.5), so dispatch cost
            // includes the producer/worker handoff, without the pinned
            // depth-4 queues that used to stall batched rounds.
            let session = PmTestSession::builder().workers(workers).batch_capacity(batch).build();
            session.start();
            run_round(&session, traces); // warm the rings' buffers
            group.bench_with_input(
                BenchmarkId::new(format!("w{workers}"), format!("b{batch}")),
                &traces,
                |b, &traces| b.iter(|| run_round(&session, traces)),
            );
            samples.push(Sample::of_last(&group, "session", workers, batch, traces));
        }
    }
    // A/B rows: the reference w4/b32 configuration at each telemetry level
    // above `Off`. Not part of the scaling assertion — they exist so the
    // overhead of the observability plane is measured in every run, next to
    // the off row they are compared against. The row names predate the
    // levels and stay, because CI's structural guard reads them:
    // * `session-recorder` — `Bundles`, which re-checks only failing
    //   traces, so the clean traces here cost what they cost at `Off`;
    // * `session-profiling` — `Profile`. It observes the replay walk
    //   (profiled traces skip the verdict cache), so this row prices the
    //   advisor's data collection;
    // * `session-telemetry` — `Full`: the profile plus stage timing and
    //   span tracing.
    // The `Off` guard is the plain w4/b32 row above, whose floor assertion
    // keeps the unobserved path from regressing.
    for (path, id, level) in [
        ("session-telemetry", "telemetry_w4", TelemetryLevel::Full),
        ("session-recorder", "recorder_w4", TelemetryLevel::Bundles),
        ("session-profiling", "profiling_w4", TelemetryLevel::Profile),
    ] {
        let session = PmTestSession::builder()
            .workers(4)
            .batch_capacity(32)
            .telemetry(TelemetryConfig::at(level))
            .build();
        session.start();
        run_round(&session, traces); // warm the rings' buffers
        group.bench_with_input(BenchmarkId::new(id, "b32"), &traces, |b, &traces| {
            b.iter(|| run_round(&session, traces))
        });
        samples.push(Sample::of_last(&group, path, 4, 32, traces));
    }
    // Repetitive-workload A/B rows: one 62-record trace shape repeated for
    // the whole round, checked with the verdict cache off (`session-rep`,
    // the full fused-replay cost) and on (`session-cached`, a fingerprint
    // plus an L1 probe per trace after the first). The ratio of the two
    // floors is the memoization win on production-shaped traffic.
    for cached in [false, true] {
        let session =
            PmTestSession::builder().workers(4).batch_capacity(32).verdict_cache(cached).build();
        session.start();
        run_round_repetitive(&session, traces); // warm buffers and cache
        let id = if cached { "cached_w4" } else { "rep_w4" };
        group.bench_with_input(BenchmarkId::new(id, "b32"), &traces, |b, &traces| {
            b.iter(|| run_round_repetitive(&session, traces))
        });
        let path = if cached { "session-cached" } else { "session-rep" };
        samples.push(Sample::of_last(&group, path, 4, 32, traces));
    }
    // Cached-probe microbench row: the marginal cost of the cached path in
    // isolation — fingerprint the short 4-entry trace shape and probe a
    // resident L1 entry. No engine, no dispatch: this is the number the
    // <=40 ns/trace cached-path budget pins.
    {
        use pmtest_core::cache::{CachedVerdict, VerdictCache, WorkerCache};
        use pmtest_core::VerdictCacheConfig;
        let mut words = Vec::new();
        let r = ByteRange::with_len(0, 8);
        for event in [Event::Write(r), Event::Flush(r), Event::Fence, Event::IsPersist(r)] {
            pmtest_trace::packed::encode_into(&mut words, event.here());
        }
        let cache = VerdictCache::new(&VerdictCacheConfig::default());
        let mut wc = WorkerCache::new();
        let fp = wc.fingerprint(&words);
        wc.install(&cache, fp, CachedVerdict::new(Vec::new()));
        group.bench_with_input(BenchmarkId::new("cached_probe", "b1"), &traces, |b, _| {
            b.iter(|| {
                let fp = wc.fingerprint(criterion::black_box(&words));
                criterion::black_box(wc.lookup(&cache, fp).is_some())
            })
        });
        samples.push(Sample::of_last(&group, "cached-probe", 1, 1, 1));
    }
    // Peak-ingest rows: one producer recording through the owned handle.
    for &(workers, batch) in &[(1usize, 256usize), (1, 1024), (2, 1024)] {
        let session = PmTestSession::builder().workers(workers).batch_capacity(batch).build();
        session.start();
        let mut rec = session.recorder();
        run_round_recorder(&mut rec, &session, traces); // warm the buffers
        group.bench_with_input(
            BenchmarkId::new(format!("rec_w{workers}"), format!("b{batch}")),
            &traces,
            |b, &traces| b.iter(|| run_round_recorder(&mut rec, &session, traces)),
        );
        samples.push(Sample::of_last(&group, "recorder", workers, batch, traces));
    }
    group.finish();
    samples
}

/// Engine counters and ship-path buffer reuse from one 4-worker batch-32
/// round, for the JSON report.
fn stats_sample(traces: u64) -> String {
    let session = PmTestSession::builder().workers(4).batch_capacity(32).build();
    session.start();
    run_round(&session, traces);
    run_round(&session, traces);
    let stats = session.stats();
    let reuse = session.pool_stats();
    let snap = session.telemetry_snapshot();
    let repr_switches = snap.counter("engine_segmap_repr_switches").unwrap_or(0);
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\n",
            "    \"workers\": 4,\n",
            "    \"batch_capacity\": 32,\n",
            "    \"queue_capacity\": {},\n",
            "    \"traces_submitted\": {},\n",
            "    \"batches_submitted\": {},\n",
            "    \"mean_batch_size\": {:.2},\n",
            "    \"ring_occupancy_highwater\": {},\n",
            "    \"backpressure_stalls\": {},\n",
            "    \"steals\": {},\n",
            "    \"rings_registered\": {},\n",
            "    \"grown_batches\": {},\n",
            "    \"arena_pool_hit_rate\": {:.4},\n",
            "    \"segmap_repr_switches\": {}\n",
            "  }}"
        ),
        session.queue_capacity(),
        stats.traces_submitted,
        stats.batches_submitted,
        stats.mean_batch_size(),
        stats.queue_highwater,
        stats.backpressure_stalls,
        stats.steals,
        stats.rings_registered,
        reuse.grown,
        reuse.hit_rate(),
        repr_switches,
    );
    s
}

/// Verdict-cache counters from one cache-on repetitive round at the
/// reference w4/b32 configuration: the JSON block plus the count-based hit
/// rate the [`REP_HIT_RATE_MIN`] guard checks. A dedicated run (not the
/// timed rows) so the counters describe exactly one warm round.
fn verdict_cache_sample(traces: u64) -> (String, f64) {
    let session =
        PmTestSession::builder().workers(4).batch_capacity(32).verdict_cache(true).build();
    session.start();
    run_round_repetitive(&session, traces); // cold round: populates the cache
    run_round_repetitive(&session, traces); // warm round
    let stats = session.verdict_cache_stats().expect("cache enabled");
    let mut s = String::new();
    let _ = write!(
        s,
        concat!(
            "{{\n",
            "    \"workers\": 4,\n",
            "    \"batch_capacity\": 32,\n",
            "    \"l1_hits\": {},\n",
            "    \"l2_hits\": {},\n",
            "    \"misses\": {},\n",
            "    \"bypasses\": {},\n",
            "    \"inserts\": {},\n",
            "    \"evictions\": {},\n",
            "    \"bytes_resident\": {},\n",
            "    \"entries\": {},\n",
            "    \"hit_rate\": {:.4}\n",
            "  }}"
        ),
        stats.l1_hits,
        stats.l2_hits,
        stats.misses,
        stats.bypasses,
        stats.inserts,
        stats.evictions,
        stats.bytes_resident,
        stats.entries,
        stats.hit_rate(),
    );
    (s, stats.hit_rate())
}

fn write_json(samples: &[Sample], traces: u64, verdict_cache: &str) {
    let speedup_at = |workers: usize| -> Option<f64> {
        let b1 =
            samples.iter().find(|s| s.path == "session" && s.workers == workers && s.batch == 1)?;
        let b32 = samples
            .iter()
            .find(|s| s.path == "session" && s.workers == workers && s.batch == 32)?;
        Some(b1.ns_per_trace / b32.ns_per_trace)
    };
    // Every row carries the host's parallelism; a row with more checking
    // workers than vCPUs measures oversubscription, not scaling.
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            rows,
            "    {{\"path\": \"{}\", \"workers\": {}, \"batch\": {}, \"ns_per_trace\": {:.1}, \"ns_per_trace_floor\": {:.1}, \"ns_per_trace_q1\": {:.1}, \"ns_per_trace_q3\": {:.1}, \"traces_per_sec\": {:.0}, \"host_parallelism\": {}, \"oversubscribed\": {}}}{}",
            s.path,
            s.workers,
            s.batch,
            s.ns_per_trace,
            s.floor_ns_per_trace,
            s.q1_ns_per_trace,
            s.q3_ns_per_trace,
            s.traces_per_sec(),
            parallelism,
            s.workers > parallelism,
            if i + 1 == samples.len() { "" } else { "," },
        );
    }
    let mut speedups = String::new();
    for (i, &w) in WORKER_COUNTS.iter().enumerate() {
        if let Some(sp) = speedup_at(w) {
            let _ = writeln!(
                speedups,
                "    \"{}\": {:.2}{}",
                w,
                sp,
                if i + 1 == WORKER_COUNTS.len() { "" } else { "," },
            );
        }
    }
    // Peak is an end-to-end number (recorded, shipped, checked); the
    // cached-probe microbench runs no engine and must not claim it.
    let peak = samples
        .iter()
        .filter(|s| s.path != "cached-probe")
        .max_by(|a, b| a.traces_per_sec().total_cmp(&b.traces_per_sec()))
        .expect("bench produced samples");
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"engine_throughput\",\n",
            "  \"host_parallelism\": {},\n",
            "  \"traces_per_round\": {},\n",
            "  \"entries_per_trace\": {},\n",
            "  \"workload\": \"short traces: write+flush+fence+isPersist; session rows: 4 producer threads via the Sink path; session-rep/session-cached rows: one 62-record repetitive shape (30 distinct write+flush ranges) with the verdict cache off/on; cached-probe row: fingerprint + L1 lookup only, no engine; recorder rows: 1 inline producer via the owned ThreadRecorder handle; ring capacity derived (256/batch, min 32)\",\n",
            "  \"telemetry\": \"level Off (default) except the session-recorder A/B row (level Bundles: failing traces re-checked into bundles), the session-profiling A/B row (level Profile: the cross-trace profiler observes every replay) and the session-telemetry A/B row (level Full: Profile plus timing histograms and span tracing); per-producer SPSC rings with work-stealing workers; producers record packed records into recycled arenas; every trace takes the fused replay on its worker's own CheckerScratch state; session-cached serves repeats from the content-addressed verdict cache\",\n",
            "  \"results\": [\n{}  ],\n",
            "  \"peak\": {{\"path\": \"{}\", \"workers\": {}, \"batch\": {}, \"ns_per_trace\": {:.1}, \"traces_per_sec\": {:.0}}},\n",
            "  \"speedup_batch32_over_batch1_by_workers\": {{\n{}  }},\n",
            "  \"verdict_cache_sample\": {},\n",
            "  \"stats_sample\": {}\n",
            "}}\n"
        ),
        parallelism,
        traces,
        ENTRIES_PER_TRACE,
        rows,
        peak.path,
        peak.workers,
        peak.batch,
        peak.ns_per_trace,
        peak.traces_per_sec(),
        speedups,
        verdict_cache,
        stats_sample(traces),
    );
    // cargo sets the bench cwd to crates/bench; anchor the output at the
    // workspace root so it lands in the committed bench_results/.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let path = format!("{dir}/BENCH_engine.json");
    std::fs::write(&path, &json).expect("write BENCH_engine.json");
    println!("\nwrote {path}");
    print!("{json}");
}

/// Pins flat scaling through the whole worker axis: at batch 32, no worker
/// count from 1 to 16 may be slower than the 4-worker row by more than
/// [`SCALING_SLACK`] of noise — adding (or removing) workers must never
/// cost throughput on this host. Skipped when `PMTEST_BENCH_NO_ASSERT=1` —
/// CI smoke runs are report-only.
fn assert_scaling(samples: &[Sample]) {
    if std::env::var_os("PMTEST_BENCH_NO_ASSERT").is_some() {
        println!("scaling assertion skipped (PMTEST_BENCH_NO_ASSERT)");
        return;
    }
    // Floors, not medians: a noisy-neighbor episode on this shared host
    // inflates whole sampling windows, and the inversion being guarded
    // against shows up in the floor just the same.
    let at = |workers: usize| {
        samples
            .iter()
            .find(|s| s.path == "session" && s.workers == workers && s.batch == 32)
            .map(|s| s.floor_ns_per_trace)
    };
    let Some(w4) = at(4) else { return };
    for &workers in &WORKER_COUNTS {
        let Some(t) = at(workers) else { continue };
        assert!(
            t <= w4 * SCALING_SLACK,
            "scaling inversion: {t:.1} ns/trace (floor) at w{workers}/b32 vs {w4:.1} at w4/b32 \
             (limit {:.1})",
            w4 * SCALING_SLACK,
        );
    }
    println!(
        "scaling assertion ok: every b32 floor within {SCALING_SLACK}x of w4/b32 ({w4:.1} ns)"
    );
    // Pin the far end of the axis to the near end: the oversubscribed
    // 16-worker row may not drift past the single-worker floor by more than
    // the [`W16_VS_W1_SLACK`] budget.
    if let (Some(w1), Some(w16)) = (at(1), at(16)) {
        assert!(
            w16 <= w1 * W16_VS_W1_SLACK,
            "oversubscription drift: {w16:.1} ns/trace (floor) at w16/b32 vs {w1:.1} at w1/b32 \
             (limit {:.1})",
            w1 * W16_VS_W1_SLACK,
        );
        println!(
            "oversubscription budget ok: w16/b32 floor {w16:.1} ns within {W16_VS_W1_SLACK}x \
             of w1/b32 floor {w1:.1} ns"
        );
    }
    // The ingest plane's headline number: the best configuration must clear
    // ten million short traces per second end to end (recorded, shipped,
    // and checked) on this host.
    let peak = samples
        .iter()
        .filter(|s| s.path != "cached-probe")
        .map(|s| s.floor_traces_per_sec())
        .fold(0.0f64, f64::max);
    assert!(
        peak >= 10e6,
        "peak throughput regression: best config reached {:.2}M traces/s, need >= 10M",
        peak / 1e6,
    );
    println!("peak throughput ok: {:.2}M traces/s best config", peak / 1e6);
}

/// The verdict-cache guards: the cached repetitive row must beat its
/// uncached twin by [`REP_SPEEDUP_MIN`] (floor over floor), the cached-probe
/// microbench must fit the [`CACHED_PROBE_BUDGET_NS`] budget, and the
/// count-based hit rate of the warm repetitive round must clear
/// [`REP_HIT_RATE_MIN`]. Same `PMTEST_BENCH_NO_ASSERT=1` escape hatch.
fn assert_verdict_cache(samples: &[Sample], hit_rate: f64) {
    let at = |path: &str| samples.iter().find(|s| s.path == path);
    if let (Some(rep), Some(cached)) = (at("session-rep"), at("session-cached")) {
        println!(
            "verdict-cache A/B at w4/b32: off {:.1} ns/trace, on {:.1} ns/trace \
             ({:.1}x floor speedup, hit rate {:.4})",
            rep.ns_per_trace,
            cached.ns_per_trace,
            rep.floor_ns_per_trace / cached.floor_ns_per_trace,
            hit_rate,
        );
    }
    if std::env::var_os("PMTEST_BENCH_NO_ASSERT").is_some() {
        println!("verdict-cache guards skipped (PMTEST_BENCH_NO_ASSERT)");
        return;
    }
    let (Some(rep), Some(cached)) = (at("session-rep"), at("session-cached")) else { return };
    let speedup = rep.floor_ns_per_trace / cached.floor_ns_per_trace;
    assert!(
        speedup >= REP_SPEEDUP_MIN,
        "verdict-cache speedup regression: cached row {:.1} ns/trace (floor) is only {speedup:.2}x \
         the uncached {:.1} ns/trace, need >= {REP_SPEEDUP_MIN}x",
        cached.floor_ns_per_trace,
        rep.floor_ns_per_trace,
    );
    if let Some(probe) = at("cached-probe") {
        assert!(
            probe.floor_ns_per_trace <= CACHED_PROBE_BUDGET_NS,
            "cached-path budget blown: fingerprint + L1 probe costs {:.1} ns (floor), \
             budget {CACHED_PROBE_BUDGET_NS} ns",
            probe.floor_ns_per_trace,
        );
    }
    assert!(
        hit_rate >= REP_HIT_RATE_MIN,
        "verdict-cache hit rate {hit_rate:.4} below {REP_HIT_RATE_MIN} on the repetitive workload",
    );
    println!(
        "verdict-cache guards ok: {speedup:.2}x speedup, probe floor {:.1} ns, hit rate {hit_rate:.4}",
        at("cached-probe").map_or(f64::NAN, |s| s.floor_ns_per_trace),
    );
}

/// The w4/b32 session ns/trace recorded in the *committed*
/// `bench_results/BENCH_engine.json`, read before this run overwrites it.
/// Prefers the floor (`ns_per_trace_floor`) when the committed file carries
/// one, falling back to the median for files written before the floor field
/// existed. `None` when the file is missing or does not carry the row
/// (first run on a fresh checkout).
fn committed_baseline_w4_b32() -> Option<f64> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results/BENCH_engine.json");
    let text = std::fs::read_to_string(path).ok()?;
    let doc = pmtest_obs::json::parse(&text).ok()?;
    let rows = match doc.get("results")? {
        pmtest_obs::json::JsonValue::Array(rows) => rows,
        _ => return None,
    };
    let row = rows.iter().find(|r| {
        r.get("path").and_then(|v| v.as_str()) == Some("session")
            && r.get("workers").and_then(|v| v.as_f64()) == Some(4.0)
            && r.get("batch").and_then(|v| v.as_f64()) == Some(32.0)
    })?;
    row.get("ns_per_trace_floor").or_else(|| row.get("ns_per_trace")).and_then(|v| v.as_f64())
}

/// The telemetry-off A/B guard: the default-config w4/b32 row must stay
/// within [`BASELINE_SLACK`] of the committed baseline, and the rows of the
/// higher levels are reported next to it so the overhead is visible in
/// every run. The
/// guarded number is the *floor* sample (see [`Sample`]): a 5% tolerance is
/// tighter than this shared host's run-to-run median swing, and only the
/// floor separates real added cost from a noisy neighbor.
fn assert_telemetry_budget(samples: &[Sample], baseline: Option<f64>) {
    let at =
        |path: &str| samples.iter().find(|s| s.path == path && s.workers == 4 && s.batch == 32);
    let Some(off) = at("session") else { return };
    if let Some(on) = at("session-telemetry") {
        println!(
            "telemetry A/B at w4/b32: off {:.1} ns/trace, Full {:.1} ns/trace ({:+.1}%)",
            off.ns_per_trace,
            on.ns_per_trace,
            (on.ns_per_trace / off.ns_per_trace - 1.0) * 100.0,
        );
    }
    if let Some(on) = at("session-recorder") {
        println!(
            "recorder A/B at w4/b32: off {:.1} ns/trace (floor {:.1}), Bundles {:.1} \
             ns/trace (floor {:.1}, {:.2}x)",
            off.ns_per_trace,
            off.floor_ns_per_trace,
            on.ns_per_trace,
            on.floor_ns_per_trace,
            on.floor_ns_per_trace / off.floor_ns_per_trace,
        );
    }
    if let Some(on) = at("session-profiling") {
        println!(
            "profiling A/B at w4/b32: off {:.1} ns/trace, Profile {:.1} ns/trace ({:+.1}%)",
            off.ns_per_trace,
            on.ns_per_trace,
            (on.ns_per_trace / off.ns_per_trace - 1.0) * 100.0,
        );
    }
    if std::env::var_os("PMTEST_BENCH_NO_ASSERT").is_some() {
        println!("telemetry-off budget skipped (PMTEST_BENCH_NO_ASSERT)");
        return;
    }
    let Some(base) = baseline else {
        println!("telemetry-off budget skipped (no committed baseline row)");
        return;
    };
    let floor = off.floor_ns_per_trace;
    assert!(
        floor <= base * BASELINE_SLACK,
        "telemetry-off regression: {floor:.1} ns/trace (floor) at w4/b32 vs committed baseline \
         {base:.1} (limit {:.1})",
        base * BASELINE_SLACK,
    );
    println!(
        "telemetry-off budget ok: {floor:.1} ns/trace (floor) at w4/b32 within {BASELINE_SLACK}x \
         of committed {base:.1}"
    );
}

fn engine_throughput(c: &mut Criterion) {
    let traces = traces_per_round();
    // Read the committed baseline before write_json replaces the file.
    let baseline = committed_baseline_w4_b32();
    let samples = bench_matrix(c);
    for s in &samples {
        println!(
            "{:>8} workers={} batch={:>4}: {:>7.1} ns/trace ({:.2} M traces/s)",
            s.path,
            s.workers,
            s.batch,
            s.ns_per_trace,
            s.traces_per_sec() / 1e6
        );
    }
    let (cache_json, hit_rate) = verdict_cache_sample(traces);
    write_json(&samples, traces, &cache_json);
    assert_scaling(&samples);
    assert_telemetry_budget(&samples, baseline);
    assert_verdict_cache(&samples, hit_rate);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    targets = engine_throughput
}
criterion_main!(benches);
