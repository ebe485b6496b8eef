//! Cross-trace profiling + advisor integration: the `Profile` level's
//! engine-side behavior, WARN perf-checker parity between the x86 and HOPS
//! dialects, and the telemetry-snapshot/summary wiring.
//!
//! The WARN perf checkers are dialect-asymmetric by design — under HOPS,
//! `Flush`/`Fence` demote to `foreign_operation` and never reach the
//! duplicate-flush shadow logic — so cross-dialect parity lives in the
//! *profiler*: the same wasteful event sequence must produce identical
//! per-site deltas (duplicate flushes, duplicate logs, redundant fences)
//! whichever model checks the trace.

use std::sync::Arc;

use pmtest_core::{
    DiagKind, Engine, EngineConfig, HopsModel, TelemetryConfig, TelemetryLevel, X86Model,
};
use pmtest_interval::ByteRange;
use pmtest_obs::advisor::SuggestionKind;
use pmtest_trace::{Event, SourceLoc, Trace};

fn profiling_engine(model: Arc<dyn pmtest_core::PersistencyModel>) -> Engine {
    Engine::new(EngineConfig {
        model,
        workers: 1,
        telemetry: TelemetryConfig::at(TelemetryLevel::Profile),
        ..EngineConfig::default()
    })
}

/// One trace planting every wasteful shape at pinned sites: a duplicate
/// undo-log entry (line 2), a duplicate flush (line 5), and a fence that
/// orders no new work (line 7). HOPS expresses the fences as
/// ofence/dfence; the flush/log shapes are shared.
fn wasteful_trace(id: u64, hops: bool) -> Trace {
    let at = |line: u32| SourceLoc::new("wasteful.rs", line);
    let r = ByteRange::with_len(0, 64);
    let mut t = Trace::new(id);
    t.push(Event::TxCheckerStart.at(at(0)));
    t.push(Event::TxBegin.at(at(0)));
    t.push(Event::TxAdd(ByteRange::with_len(0, 8)).at(at(1)));
    t.push(Event::TxAdd(ByteRange::with_len(0, 8)).at(at(2)));
    t.push(Event::Write(ByteRange::with_len(0, 64)).at(at(3)));
    t.push(Event::Flush(r).at(at(4)));
    t.push(Event::Flush(r).at(at(5)));
    t.push(if hops { Event::OFence.at(at(6)) } else { Event::Fence.at(at(6)) });
    t.push(if hops { Event::DFence.at(at(7)) } else { Event::Fence.at(at(7)) });
    t.push(Event::TxEnd.at(at(8)));
    t.push(Event::TxCheckerEnd.at(at(8)));
    t
}

#[test]
fn duplicate_log_warn_fires_on_both_dialects() {
    // The TX undo-log checker is dialect-independent: the second TX_ADD of
    // an already-logged object warns under x86 AND under HOPS.
    for (name, model) in [
        ("x86", Arc::new(X86Model::new()) as Arc<dyn pmtest_core::PersistencyModel>),
        ("hops", Arc::new(HopsModel::new())),
    ] {
        let engine = profiling_engine(model);
        engine.submit(wasteful_trace(0, name == "hops")).unwrap();
        engine.wait_idle();
        let report = engine.report();
        assert!(
            report.iter().any(|d| d.kind == DiagKind::DuplicateLog && d.loc.line() == 2),
            "{name}: duplicate-log WARN at the second TX_ADD site, got: {report}"
        );
    }
}

#[test]
fn profiler_detects_the_same_waste_on_both_dialects() {
    let snapshots: Vec<_> = [false, true]
        .into_iter()
        .map(|hops| {
            let model: Arc<dyn pmtest_core::PersistencyModel> =
                if hops { Arc::new(HopsModel::new()) } else { Arc::new(X86Model::new()) };
            let engine = profiling_engine(model);
            engine.submit(wasteful_trace(0, hops)).unwrap();
            engine.wait_idle();
            engine.profile()
        })
        .collect();
    for (snap, name) in snapshots.iter().zip(["x86", "hops"]) {
        assert_eq!(snap.traces, 1, "{name}");
        let site = |line: u32| {
            snap.sites
                .iter()
                .find(|s| s.file == "wasteful.rs" && s.line == line)
                .unwrap_or_else(|| panic!("{name}: no profile for wasteful.rs:{line}"))
        };
        assert_eq!(site(2).ops.dup_logs, 1, "{name}: duplicate log at line 2");
        assert_eq!(site(5).ops.dup_flushes, 1, "{name}: duplicate flush at line 5");
        assert_eq!(site(5).ops.dup_flush_bytes, 64, "{name}");
        assert_eq!(site(7).ops.redundant_fences, 1, "{name}: extra fence at line 7");
        assert_eq!(site(6).ops.redundant_fences, 0, "{name}: first fence orders real work");
    }
    // Parity: per-site operation deltas are identical across dialects.
    let per_site = |i: usize| -> Vec<(String, u32, pmtest_obs::SiteDelta)> {
        snapshots[i].sites.iter().map(|s| (s.file.clone(), s.line, s.ops)).collect()
    };
    assert_eq!(per_site(0), per_site(1), "x86 and HOPS profiles diverged");
}

#[test]
fn advisor_ranks_the_planted_waste_with_sites() {
    let engine = profiling_engine(Arc::new(X86Model::new()));
    for id in 0..10 {
        engine.submit(wasteful_trace(id, false)).unwrap();
    }
    engine.wait_idle();
    let report = engine.advisor_report();
    let find = |kind: SuggestionKind, line: u32| {
        let site = format!("wasteful.rs:{line}");
        report
            .suggestions
            .iter()
            .find(|s| s.kind == kind && s.site == site)
            .unwrap_or_else(|| panic!("no {} suggestion at {site}", kind.code()))
    };
    assert_eq!(find(SuggestionKind::FlushCoalescing, 5).count, 10, "one per trace");
    assert_eq!(find(SuggestionKind::LogElision, 2).count, 10);
    assert_eq!(find(SuggestionKind::RedundantFence, 7).count, 10);
    // Ranks are contiguous from 1 and scores never increase.
    for (i, s) in report.suggestions.iter().enumerate() {
        assert_eq!(s.rank as usize, i + 1);
        if i > 0 {
            assert!(report.suggestions[i - 1].score >= s.score, "ranking not monotone");
        }
    }
}

#[test]
fn profiling_is_off_by_default_and_absent_from_snapshots() {
    let engine = Engine::new(EngineConfig::default());
    engine.submit(wasteful_trace(0, false)).unwrap();
    engine.wait_idle();
    assert_eq!(engine.profile().traces, 0, "no profiling below the Profile level");
    assert!(engine.advisor_report().suggestions.is_empty());
    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.counter("profile_traces_profiled"), None, "no profile counters when off");
    assert!(!engine.telemetry_summary().contains("advisor:"));
}

#[test]
fn snapshot_and_summary_carry_profile_and_advisor_counters() {
    let engine = profiling_engine(Arc::new(X86Model::new()));
    engine.submit(wasteful_trace(0, false)).unwrap();
    engine.wait_idle();
    let snap = engine.telemetry_snapshot();
    assert_eq!(snap.counter("profile_traces_profiled"), Some(1));
    assert_eq!(snap.counter_sum("profile_duplicate_flushes"), 1);
    assert_eq!(snap.counter_sum("profile_duplicate_logs"), 1);
    assert_eq!(snap.counter_sum("profile_redundant_fences"), 1);
    assert!(snap.counter_sum("profile_wasted_persist_bytes") >= 64 + 8);
    assert!(snap.counter_sum("advisor_suggestions") >= 3);
    // WARN diagnostics aggregate into the per-code warn counter.
    assert!(snap.counter_sum("profile_warn_total") >= 1);
    let summary = engine.telemetry_summary();
    assert!(summary.contains("advisor: 1 traces profiled"), "{summary}");
}
