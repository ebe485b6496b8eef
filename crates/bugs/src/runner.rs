use std::sync::Arc;

use pmtest_core::{PmTestSession, Report, TelemetryConfig, TelemetryLevel};
use pmtest_mnemosyne::MnPool;
use pmtest_obs::AdvisorReport;
use pmtest_pmem::{PersistMode, PmHeap, PmPool};
use pmtest_pmfs::{Pmfs, PmfsOptions};
use pmtest_trace::Event;
use pmtest_txlib::ObjPool;
use pmtest_workloads::{
    gen, ArrayStore, BTree, CheckMode, CritBitTree, Fault, FaultSet, HashMapLl, HashMapTx, KvMap,
    KvStore, PmQueue, RbTree, RedisKv,
};

use crate::cases::{BugCase, PmfsFault, Scenario, StructKind};

/// The result of running one catalog case under PMTest.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// The full engine report.
    pub report: Report,
    /// Whether the expected diagnostic kind was raised.
    pub detected: bool,
}

const POOL_BYTES: usize = 1 << 21;
const ROOT_BYTES: u64 = 4096;
const VALUE_SIZE: usize = 32;

/// A profiled case run: the usual outcome plus the advisor's ranked,
/// source-located suggestions for the traces the case recorded.
#[derive(Clone, Debug)]
pub struct ProfiledOutcome {
    /// The detection outcome, as from [`run_case`].
    pub outcome: CaseOutcome,
    /// The advisor report derived from the run's cross-trace profile.
    pub advisor: AdvisorReport,
}

/// Runs a catalog case with its fault planted; `detected` reflects whether
/// the expected diagnostic appeared.
#[must_use]
pub fn run_case(case: &BugCase) -> CaseOutcome {
    let session = session(TelemetryConfig::off());
    let report = run_scenario(&session, &case.scenario);
    let detected = report.iter().any(|d| d.kind == case.expect);
    CaseOutcome { report, detected }
}

/// Runs a catalog case on a profiling-enabled session and returns the
/// advisor's view of it alongside the detection outcome — the bridge from
/// the planted-fault catalog to `pmtest-explain --advise`.
#[must_use]
pub fn run_case_profiled(case: &BugCase) -> ProfiledOutcome {
    let session = session(TelemetryConfig::at(TelemetryLevel::Profile));
    let report = run_scenario(&session, &case.scenario);
    let detected = report.iter().any(|d| d.kind == case.expect);
    let advisor = session.advisor_report();
    ProfiledOutcome { outcome: CaseOutcome { report, detected }, advisor }
}

/// Runs the *clean* variant of a case (same scenario, fault removed);
/// `detected` is then true if **any** diagnostic appeared — i.e. a false
/// positive.
#[must_use]
pub fn run_clean(case: &BugCase) -> CaseOutcome {
    let clean = match case.scenario {
        Scenario::Structure { kind, with_removes, .. } => {
            Scenario::Structure { kind, fault: None, with_removes }
        }
        Scenario::Pmfs { .. } => Scenario::Pmfs { fault: None },
        // The clean variant of the raw-abandon scenario commits properly;
        // handled inside the driver via `fault: None` semantics.
        Scenario::TxlibAbandon => Scenario::TxlibAbandon,
    };
    let session = session(TelemetryConfig::off());
    let report = match (&case.scenario, &clean) {
        (Scenario::TxlibAbandon, _) => run_txlib(&session, true),
        _ => run_scenario(&session, &clean),
    };
    CaseOutcome { detected: !report.is_clean(), report }
}

fn run_scenario(session: &PmTestSession, scenario: &Scenario) -> Report {
    match scenario {
        Scenario::Structure { kind, fault, with_removes } => {
            run_structure(session, *kind, *fault, *with_removes)
        }
        Scenario::Pmfs { fault } => run_pmfs(session, *fault),
        Scenario::TxlibAbandon => run_txlib(session, false),
    }
}

fn session(telemetry: TelemetryConfig) -> PmTestSession {
    let s = PmTestSession::builder().telemetry(telemetry).build();
    s.start();
    s
}

fn run_structure(
    session: &PmTestSession,
    kind: StructKind,
    fault: Option<Fault>,
    with_removes: bool,
) -> Report {
    let pm = Arc::new(PmPool::new(POOL_BYTES, session.sink()));
    let faults = fault.map_or_else(FaultSet::none, FaultSet::one);
    let keys: Vec<u64> = (0..24u64).collect();

    match kind {
        StructKind::Queue => {
            let heap = Arc::new(PmHeap::new(pm, ROOT_BYTES));
            let q = PmQueue::create(heap, CheckMode::Checkers, faults).expect("create queue");
            for &k in &keys {
                let _ = q.enqueue(&gen::value_for(k, VALUE_SIZE));
                session.send_trace();
            }
            if with_removes {
                for _ in 0..8 {
                    let _ = q.dequeue();
                    session.send_trace();
                }
            }
        }
        StructKind::Array => {
            let store =
                ArrayStore::create(pm, 0, 64, CheckMode::Checkers, faults).expect("create array");
            for &k in &keys {
                let _ = store.update(k % 64, k * 10);
                session.send_trace();
            }
        }
        StructKind::HashMapLl => {
            let heap = Arc::new(PmHeap::new(pm, ROOT_BYTES));
            let map =
                HashMapLl::create(heap, 4, CheckMode::Checkers, faults).expect("create hashmap_ll");
            drive_kv(session, &map, &keys, with_removes);
        }
        StructKind::KvStore => {
            let pool = Arc::new(
                MnPool::create(pm, ROOT_BYTES, PersistMode::X86).expect("create mnemosyne pool"),
            );
            let store =
                KvStore::create(pool, 4, 4, CheckMode::Checkers, faults).expect("create kvstore");
            for &k in &keys {
                let _ = store.set(k, &gen::value_for(k, VALUE_SIZE));
                session.send_trace();
            }
            // Same-size in-place update path.
            let _ = store.set(keys[0], &gen::value_for(999, VALUE_SIZE));
            session.send_trace();
            if with_removes {
                for &k in &keys[..8] {
                    let _ = store.delete(k);
                    session.send_trace();
                }
            }
        }
        StructKind::Redis => {
            let pool = Arc::new(
                ObjPool::create(pm, ROOT_BYTES, PersistMode::X86).expect("create obj pool"),
            );
            let store =
                RedisKv::create(pool, 4, 1000, CheckMode::Checkers, faults).expect("create redis");
            for &k in &keys {
                let _ = store.set(k, &gen::value_for(k, VALUE_SIZE));
                session.send_trace();
            }
            // Same-size in-place update: the RedisSkipLogValue site.
            let _ = store.set(keys[0], &gen::value_for(999, VALUE_SIZE));
            session.send_trace();
        }
        StructKind::Ctree | StructKind::Btree | StructKind::Rbtree | StructKind::HashMapTx => {
            let pool = Arc::new(
                ObjPool::create(pm, ROOT_BYTES, PersistMode::X86).expect("create obj pool"),
            );
            let map: Box<dyn KvMap> = match kind {
                StructKind::Ctree => Box::new(
                    CritBitTree::create(pool, CheckMode::Checkers, faults).expect("create ctree"),
                ),
                StructKind::Btree => Box::new(
                    BTree::create(pool, CheckMode::Checkers, faults).expect("create btree"),
                ),
                StructKind::Rbtree => Box::new(
                    RbTree::create(pool, CheckMode::Checkers, faults).expect("create rbtree"),
                ),
                StructKind::HashMapTx => Box::new(
                    HashMapTx::create(pool, 4, CheckMode::Checkers, faults)
                        .expect("create hashmap_tx"),
                ),
                _ => unreachable!(),
            };
            drive_kv(session, map.as_ref(), &keys, with_removes);
        }
    }
    session.finish()
}

fn drive_kv(session: &PmTestSession, map: &(impl KvMap + ?Sized), keys: &[u64], removes: bool) {
    for &k in keys {
        // Faulty variants may fail internally (e.g. abandoned transactions);
        // the trace is what matters.
        let _ = map.insert(k, &gen::value_for(k, VALUE_SIZE));
        session.send_trace();
    }
    // Replace one key (in-place / replace path).
    let _ = map.insert(keys[0], &gen::value_for(998, VALUE_SIZE));
    session.send_trace();
    if removes {
        for &k in &keys[..keys.len() / 3] {
            let _ = map.remove(k);
            session.send_trace();
        }
    }
}

fn run_pmfs(session: &PmTestSession, fault: Option<PmfsFault>) -> Report {
    let pm = Arc::new(PmPool::new(1 << 19, session.sink()));
    let mut opts = PmfsOptions { checkers: true, ..PmfsOptions::default() };
    match fault {
        Some(PmfsFault::SkipJournalFence) => opts.skip_journal_fence = true,
        Some(PmfsFault::SkipCommitFence) => opts.skip_commit_fence = true,
        Some(PmfsFault::SkipJournalPersist) => opts.skip_journal_persist = true,
        Some(PmfsFault::SkipCommitWriteback) => opts.skip_commit_writeback = true,
        Some(PmfsFault::LegacyDoubleFlush) => opts.legacy_double_flush = true,
        Some(PmfsFault::LegacyFlushUnmapped) => opts.legacy_flush_unmapped = true,
        None => {}
    }
    let fs = Pmfs::format(pm, opts).expect("format pmfs");
    for i in 0..4 {
        let name = format!("file{i}");
        let ino = fs.create(&name).expect("create");
        session.send_trace();
        fs.write(ino, 0, &gen::value_for(i, 64)).expect("write");
        session.send_trace();
    }
    fs.unlink("file0").expect("unlink");
    session.send_trace();
    session.finish()
}

fn run_txlib(session: &PmTestSession, clean: bool) -> Report {
    let pm = Arc::new(PmPool::new(POOL_BYTES, session.sink()));
    let pool = Arc::new(ObjPool::create(pm, ROOT_BYTES, PersistMode::X86).expect("create pool"));
    let root = pool.root().start();
    pool.pool().emit(Event::TxCheckerStart);
    let mut tx = pool.begin_tx().expect("begin");
    tx.add(pmtest_interval::ByteRange::with_len(root, 8)).expect("add");
    tx.write_u64(root, 42).expect("write");
    if clean {
        tx.commit().expect("commit");
    } else {
        tx.abandon();
    }
    pool.pool().emit(Event::TxCheckerEnd);
    session.send_trace();
    session.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::catalog;
    use pmtest_core::DiagKind;

    #[test]
    fn fig1b_case_detected_and_clean_variant_passes() {
        let cases = catalog();
        let case = cases.iter().find(|c| c.id == "hm-tx-backup-count").unwrap();
        let outcome = run_case(case);
        assert!(outcome.detected, "report: {}", outcome.report);
        assert!(outcome.report.has(DiagKind::MissingLog));
        let clean = run_clean(case);
        assert!(!clean.detected, "clean variant flagged: {}", clean.report);
    }

    #[test]
    fn paper_bug1_duplicate_flush_detected() {
        let cases = catalog();
        let case = cases.iter().find(|c| c.id == "pmfs-perf-double-flush").unwrap();
        let outcome = run_case(case);
        assert!(outcome.detected, "report: {}", outcome.report);
    }

    #[test]
    fn txlib_raw_abandon_detected() {
        let cases = catalog();
        let case = cases.iter().find(|c| c.id == "txlib-completion-raw").unwrap();
        assert!(run_case(case).detected);
        assert!(!run_clean(case).detected);
    }
}
