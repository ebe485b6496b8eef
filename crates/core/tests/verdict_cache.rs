//! Integration tests for the verdict cache (DESIGN.md §17).
//!
//! The cache's one obligation is invisibility: with it on, every observable
//! output — `Report` rendering, diagnosis bundles, profile snapshots — must
//! be identical to a cache-off run, while the bypass predicate keeps the
//! telemetry levels whose replay observers must see every occurrence
//! (`Profile` and `Full`) checking every occurrence cold.

use pmtest_core::{HopsModel, PmTestSession, SessionBuilder, TelemetryConfig, TelemetryLevel};
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, Sink};

fn r(start: u64, end: u64) -> ByteRange {
    ByteRange::new(start, end)
}

/// Records one multi-range trace; `fail` leaves the last write unflushed so
/// the `is_persist` checker produces a diagnostic.
fn record_x86_shape(session: &PmTestSession, tag: u64, fail: bool) {
    let base = tag * 256;
    for i in 0..3 {
        let range = r(base + i * 64, base + i * 64 + 16);
        session.record(Event::Write(range).here());
        session.record(Event::Flush(range).here());
    }
    session.record(Event::Fence.here());
    let last = r(base + 192, base + 200);
    session.record(Event::Write(last).here());
    if !fail {
        session.record(Event::Flush(last).here());
        session.record(Event::Fence.here());
    }
    session.is_persist(last);
    session.send_trace().expect("trace submitted");
}

/// The HOPS-dialect equivalent, using `ofence`/`dfence` epochs.
fn record_hops_shape(session: &PmTestSession, tag: u64, fail: bool) {
    let base = tag * 256;
    let a = r(base, base + 16);
    let b = r(base + 64, base + 80);
    session.record(Event::Write(a).here());
    session.record(Event::OFence.here());
    session.record(Event::Write(b).here());
    if !fail {
        session.record(Event::DFence.here());
    }
    session.is_ordered_before(a, b);
    session.is_persist(a);
    session.send_trace().expect("trace submitted");
}

fn run_workload(builder: SessionBuilder, hops: bool) -> PmTestSession {
    let session = builder.build();
    session.start();
    // A repetitive mix: 4 distinct shapes (2 clean, 2 failing), each
    // repeated 25 times — production-shaped traffic for the cache.
    for round in 0..25 {
        let _ = round;
        for tag in 0..4u64 {
            let fail = tag % 2 == 1;
            if hops {
                record_hops_shape(&session, tag, fail);
            } else {
                record_x86_shape(&session, tag, fail);
            }
        }
    }
    session.flush();
    session
}

#[test]
fn cache_on_matches_cache_off_x86() {
    let off = run_workload(PmTestSession::builder().workers(1), false);
    let on = run_workload(PmTestSession::builder().workers(1).verdict_cache(true), false);
    let report_off = off.finish();
    let report_on = on.finish();
    assert_eq!(report_on.to_string(), report_off.to_string(), "cache must be invisible");
    assert_eq!(report_on.fail_count(), 50);
}

#[test]
fn cache_on_matches_cache_off_hops() {
    let off = run_workload(PmTestSession::builder().workers(1).model(HopsModel::new()), true);
    let on = run_workload(
        PmTestSession::builder().workers(1).model(HopsModel::new()).verdict_cache(true),
        true,
    );
    assert_eq!(on.finish().to_string(), off.finish().to_string(), "cache must be invisible");
}

#[test]
fn repeated_shapes_hit_the_cache() {
    let session = run_workload(PmTestSession::builder().workers(1).verdict_cache(true), false);
    let report = session.finish();
    assert_eq!(report.traces().len(), 100);
    let stats = session.verdict_cache_stats().expect("cache enabled");
    assert_eq!(stats.misses, 4, "one cold check per distinct shape");
    assert_eq!(stats.l1_hits + stats.l2_hits, 96, "every repeat served from cache");
    assert_eq!(stats.bypasses, 0);
    assert!(stats.hit_rate() >= 0.95, "hit rate {:.3} below target", stats.hit_rate());
    // The counters surface through the snapshot and the summary line.
    let snap = session.telemetry_snapshot();
    assert_eq!(snap.counter("verdict_cache_misses"), Some(4));
    assert_eq!(snap.counter("verdict_cache_l1_hits"), Some(96));
    assert!(snap.gauge("verdict_cache_hit_rate").unwrap() >= 0.95);
    assert!(snap.gauge("verdict_cache_bytes_resident").unwrap() > 0.0);
    assert!(
        session.telemetry_summary().contains("verdict cache:"),
        "summary line reports the cache"
    );
}

#[test]
fn cache_off_exposes_no_stats() {
    let session = run_workload(PmTestSession::builder().workers(1), false);
    assert!(session.verdict_cache_stats().is_none());
    assert_eq!(session.telemetry_snapshot().counter("verdict_cache_misses"), None);
    assert!(session.finish().fail_count() > 0);
}

#[test]
fn full_level_bypasses_the_cache() {
    let session = run_workload(
        PmTestSession::builder()
            .workers(1)
            .telemetry(TelemetryConfig::at(TelemetryLevel::Full))
            .verdict_cache(true),
        false,
    );
    let report = session.finish();
    assert_eq!(report.traces().len(), 100);
    let stats = session.verdict_cache_stats().expect("cache enabled");
    assert_eq!(stats.bypasses, 100, "observed replays check every occurrence cold");
    assert_eq!(stats.l1_hits + stats.l2_hits + stats.misses, 0);
}

#[test]
fn bundles_level_takes_the_cache_and_still_captures_bundles_per_repeat() {
    let run = |cache: bool| {
        let builder = PmTestSession::builder()
            .workers(1)
            .telemetry(TelemetryConfig::at(TelemetryLevel::Bundles))
            .verdict_cache(cache);
        let session = builder.build();
        session.start();
        for _ in 0..6 {
            record_x86_shape(&session, 1, true);
        }
        session.flush();
        let report = session.report();
        let bundles: Vec<String> =
            session.take_bundles().iter().map(|b| b.to_json_lines()).collect();
        (report.to_string(), bundles, session.verdict_cache_stats())
    };
    let (report_off, bundles_off, _) = run(false);
    let (report_on, bundles_on, stats) = run(true);
    assert_eq!(report_on, report_off);
    assert_eq!(bundles_on.len(), 6, "a FAIL served from the cache still gets its bundle");
    assert_eq!(bundles_on, bundles_off, "bundles must be byte-identical under cache hits");
    let stats = stats.expect("cache enabled");
    assert_eq!(stats.bypasses, 0, "the Bundles level does not bypass the cache");
    assert!(stats.l1_hits + stats.l2_hits >= 5, "repeats served from cache: {stats:?}");
}

#[test]
fn profile_level_bypasses_the_cache_and_stays_exact() {
    let run = |cache: bool| {
        let session = run_workload(
            PmTestSession::builder()
                .workers(1)
                .telemetry(TelemetryConfig::at(TelemetryLevel::Profile))
                .verdict_cache(cache),
            false,
        );
        assert!(session.report().fail_count() > 0);
        let profile = session.profile();
        let advisor = session.advisor_report();
        (profile, format!("{advisor:?}"), session.verdict_cache_stats())
    };
    let (profile_off, advisor_off, _) = run(false);
    let (profile_on, advisor_on, stats) = run(true);
    assert_eq!(profile_on, profile_off, "profile must be exact with the cache on");
    assert_eq!(advisor_on, advisor_off);
    let stats = stats.expect("cache enabled");
    assert_eq!(stats.bypasses, 100, "the profiler observes every occurrence cold: {stats:?}");
    assert_eq!(stats.l1_hits + stats.l2_hits + stats.misses, 0);
}

#[test]
fn eviction_under_pressure_stays_correct() {
    let run = |cache: bool| {
        let builder = PmTestSession::builder().workers(1).verdict_cache(cache);
        // ~4 KiB of budget: far fewer slots than distinct shapes.
        let builder = if cache { builder.verdict_cache_max_bytes(4 << 10) } else { builder };
        let session = builder.build();
        session.start();
        // 200 distinct failing shapes, cycled twice.
        for _ in 0..2 {
            for tag in 0..200u64 {
                record_x86_shape(&session, tag, true);
            }
        }
        session.flush();
        (session.finish().to_string(), session.verdict_cache_stats())
    };
    let (report_off, _) = run(false);
    let (report_on, stats) = run(true);
    assert_eq!(report_on, report_off, "eviction must never change a verdict");
    let stats = stats.expect("cache enabled");
    assert!(stats.evictions > 0, "pressure must evict: {stats:?}");
    assert!(stats.bytes_resident <= 4 << 10, "memory bound holds: {stats:?}");
}

#[test]
fn reg_var_ranges_resolve_at_record_time() {
    // The same source-level trace shape, recorded while the session variable
    // points at two different ranges, must fingerprint differently: ranges
    // resolve when recorded, never at check time — this is what makes the
    // verdict a pure function of the packed words.
    let session = PmTestSession::builder().workers(1).verdict_cache(true).build();
    session.start();
    let flushed = r(0, 8);
    let unflushed = r(64, 72);
    for round in 0..4 {
        let range = if round % 2 == 0 { flushed } else { unflushed };
        session.reg_var("slot", range);
        session.record(Event::Write(flushed).here());
        session.record(Event::Flush(flushed).here());
        session.record(Event::Fence.here());
        session.record(Event::Write(unflushed).here());
        assert!(session.is_persist_var("slot"), "variable is registered");
        session.send_trace().expect("trace submitted");
    }
    session.flush();
    let report = session.finish();
    assert_eq!(report.traces().len(), 4);
    // Rounds checking the flushed range pass; rounds checking the unflushed
    // range fail — even though the recording code is identical.
    assert_eq!(report.fail_count(), 2, "record-time resolution keeps verdicts distinct");
    let stats = session.verdict_cache_stats().expect("cache enabled");
    assert_eq!(stats.misses, 2, "two distinct fingerprints, each repeated once");
    assert_eq!(stats.l1_hits, 2);
}
