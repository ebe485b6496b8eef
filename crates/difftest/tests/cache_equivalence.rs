//! Verdict-cache equivalence: cache-on and cache-off runs of the same
//! program must be byte-identical in every observable — `Report`, diagnosis
//! bundles, `TraceStats`, and the advisor document.
//!
//! The replica scheme is what makes these sweeps bite: every engine run
//! checks [`REPLICAS`] identical copies of the program, so with the cache on
//! all but the first copy is served from the cache, and any fingerprint
//! collision, stale verdict, or lossy memoization diverges the report.
//!
//! The `#[ignore]`d case is the 10k-seed acceptance sweep CI's difftest job
//! runs in full.

use pmtest_core::{Engine, EngineConfig, TelemetryConfig, TelemetryLevel, VerdictCacheConfig};
use pmtest_difftest::exec::{
    model_for, run_engine, run_engine_cached, submit_replicas, EngineRun, DEFAULT_MATRIX, REPLICAS,
};
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_trace::TraceStats;
use proptest::prelude::*;

/// Both-dialect generator config: half the drawn programs are HOPS.
fn both_dialects() -> GenConfig {
    GenConfig { hops_probability: 0.5, ..GenConfig::default() }
}

fn assert_reports_match(range: std::ops::Range<u64>, cfg: &GenConfig, matrix: &[EngineRun]) {
    for seed in range {
        let program = generate(seed, cfg);
        for run in matrix {
            let off = run_engine(&program, run, REPLICAS).expect("cache-off run");
            let on = run_engine_cached(&program, run, REPLICAS).expect("cache-on run");
            assert_eq!(
                on,
                off,
                "seed {seed} ({:?}): cache-on report diverged at {}w/b{}\nprogram:\n{}",
                program.dialect,
                run.workers,
                run.batch_capacity,
                program.to_text()
            );
        }
    }
}

#[test]
fn seeds_0_to_100_reports_match_across_the_matrix() {
    assert_reports_match(0..100, &both_dialects(), DEFAULT_MATRIX);
}

proptest! {
    /// Arbitrary seeds, both dialects: the cached single-worker and batched
    /// multi-worker cells must reproduce the uncached report byte for byte.
    #[test]
    fn cached_reports_match_for_arbitrary_programs(seed in any::<u64>()) {
        let cells = [EngineRun::new(1, 1), EngineRun::new(4, 32)];
        assert_reports_match(seed..seed.saturating_add(1), &both_dialects(), &cells);
    }
}

/// One engine run at the `Profile` level, which bypasses the cache; returns
/// the advisor document plus the merged per-worker [`TraceStats`].
fn profiled_run(seed: u64, cached: bool) -> (String, TraceStats) {
    let program = generate(seed, &both_dialects());
    let engine = Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 2,
        telemetry: TelemetryConfig::at(TelemetryLevel::Profile),
        verdict_cache: VerdictCacheConfig { enabled: cached, ..VerdictCacheConfig::default() },
    });
    submit_replicas(&engine, &program, 8, REPLICAS, 0).expect("submit replicas");
    engine.wait_idle();
    let mut merged = TraceStats::default();
    for stats in engine.worker_trace_stats() {
        merged.merge(&stats);
    }
    (engine.advisor_report().to_json(), merged)
}

#[test]
fn advisor_documents_match_with_the_cache_on() {
    for seed in 0..25u64 {
        let (off, _) = profiled_run(seed, false);
        let (on, _) = profiled_run(seed, true);
        assert_eq!(on, off, "seed {seed}: cached advisor document diverged");
    }
}

/// One run at the `Full` level; it trips the bypass predicate, so per-worker
/// `TraceStats` must be complete either way.
fn timed_stats(seed: u64, cached: bool) -> TraceStats {
    let program = generate(seed, &both_dialects());
    let engine = Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 2,
        telemetry: TelemetryConfig::at(TelemetryLevel::Full),
        verdict_cache: VerdictCacheConfig { enabled: cached, ..VerdictCacheConfig::default() },
    });
    submit_replicas(&engine, &program, 8, REPLICAS, 0).expect("submit replicas");
    engine.wait_idle();
    let mut merged = TraceStats::default();
    for stats in engine.worker_trace_stats() {
        merged.merge(&stats);
    }
    merged
}

#[test]
fn trace_stats_match_with_the_cache_on() {
    for seed in 0..25u64 {
        let off = timed_stats(seed, false);
        let on = timed_stats(seed, true);
        assert_eq!(on, off, "seed {seed}: instrumented TraceStats diverged under the cache");
        assert!(on.entries > 0, "seed {seed}: the Full level observed no entries");
    }
}

/// Diagnosis bundles: a FAIL served from the cache still gets its bundle by
/// re-check, so a cache-on engine at the `Bundles` level — whose replicas
/// after the first hit the cache — must capture the identical bundle stream.
fn bundle_lines(seed: u64, cached: bool) -> String {
    let program = generate(seed, &both_dialects());
    let engine = Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 1,
        telemetry: TelemetryConfig::at(TelemetryLevel::Bundles),
        verdict_cache: VerdictCacheConfig { enabled: cached, ..VerdictCacheConfig::default() },
    });
    submit_replicas(&engine, &program, 1, REPLICAS, 0).expect("submit replicas");
    engine.wait_idle();
    engine.take_bundles().iter().map(pmtest_core::DiagnosisBundle::to_json_lines).collect()
}

#[test]
fn diagnosis_bundles_match_with_the_cache_on() {
    for seed in 0..25u64 {
        let off = bundle_lines(seed, false);
        let on = bundle_lines(seed, true);
        assert_eq!(on, off, "seed {seed}: cached bundle capture diverged");
    }
}

/// The full acceptance sweep (run via `cargo test -- --ignored`): 10k
/// seeded programs, cache-on and cache-off reports byte-identical on the
/// wide batched cell.
#[test]
#[ignore = "acceptance sweep; ~1 min in release builds"]
fn seeds_0_to_10000_cached_reports_match() {
    let cell = [EngineRun::new(4, 32)];
    assert_reports_match(0..10_000, &both_dialects(), &cell);
}
