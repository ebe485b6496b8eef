//! `kv-ycsb` and `kv-bug-cache`: the Memcached-like `KvStore` on the
//! Mnemosyne-like redo-log pool, driven by a YCSB update-heavy op stream
//! (50% set, zipfian over the key space, 64-B values), one trace per set.
//!
//! `kv-bug-cache` runs the same stream with `Fault::KvSkipReplayWriteback`
//! planted and the verdict cache on: every write a set's redo log replays
//! must fail `NotPersisted` at the replay site, and repeated trace shapes
//! hit the cache.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pmtest_core::{
    check_trace_with, CheckerScratch, Diag, DiagKind, PmTestSession, Report, X86Model,
};
use pmtest_mnemosyne::MnPool;
use pmtest_pmem::{PersistMode, PmPool};
use pmtest_trace::{MemorySink, NullSink, SharedSink};
use pmtest_workloads::{gen, CheckMode, Fault, FaultSet, KvStore};

use crate::report::{ratio, Round};
use crate::spans::{Tracer, NONE};
use crate::verdict::{self, Drive};

/// Distinct keys the op stream draws from.
pub const KEY_SPACE: u64 = 1000;
/// Client ops per round.
pub const OPS: usize = 40_000;
/// Bytes per value.
pub const VALUE_BYTES: usize = 64;
/// Simulated PM pool size.
pub const POOL_BYTES: usize = 4 << 20;
const LOG_BYTES: u64 = 16 << 10;
const BUCKETS: u64 = 1024;
const SHARDS: usize = 8;
/// Writes a set's redo log replays: 1 for an in-place update, 5 for the
/// first set of a key (node key, next, length, value, bucket slot).
const UPDATE_WRITES: u64 = 1;
const INSERT_WRITES: u64 = 5;

enum Step {
    Set(u64),
    /// A read, and whether an earlier set stored the key.
    Get(u64, bool),
}

/// The generated inputs of one kv workload.
pub struct Kv {
    steps: Vec<Step>,
    values: Vec<Vec<u8>>,
    /// Writes each set's transaction replays, in set (= trace id) order.
    replayed: Vec<u64>,
    bug: bool,
}

impl Kv {
    /// Generates the op stream for `seed`; `bug` selects `kv-bug-cache`.
    #[must_use]
    pub fn new(seed: u64, bug: bool) -> Self {
        let mut stored = vec![false; KEY_SPACE as usize];
        let mut replayed = Vec::new();
        let steps = gen::ycsb_update_heavy(OPS, KEY_SPACE, seed)
            .into_iter()
            .map(|op| match op {
                gen::Op::Set(k) => {
                    let first = !std::mem::replace(&mut stored[k as usize], true);
                    replayed.push(if first { INSERT_WRITES } else { UPDATE_WRITES });
                    Step::Set(k)
                }
                gen::Op::Get(k) => Step::Get(k, stored[k as usize]),
            })
            .collect();
        let values = (0..KEY_SPACE).map(|k| gen::value_for(k, VALUE_BYTES)).collect();
        Self { steps, values, replayed, bug }
    }

    /// Whether this is `kv-bug-cache`.
    #[must_use]
    pub fn bug(&self) -> bool {
        self.bug
    }

    /// Sets in the op stream: one trace each.
    fn sets(&self) -> u64 {
        self.replayed.len() as u64
    }

    fn store(&self, sink: SharedSink, check: CheckMode) -> KvStore {
        let faults =
            if self.bug { FaultSet::of(&[Fault::KvSkipReplayWriteback]) } else { FaultSet::none() };
        let pm = Arc::new(PmPool::new(POOL_BYTES, sink));
        let pool = Arc::new(MnPool::create(pm, LOG_BYTES, PersistMode::X86).expect("mn pool"));
        KvStore::create(pool, BUCKETS, SHARDS, check, faults).expect("kv store")
    }

    /// Runs the op stream once against `store`, checking every read and
    /// timing every set (with its `send_trace`). Gets never reach the tool;
    /// half the stream, they would put the median on the boundary between
    /// the get and set latency modes.
    fn drive(&self, store: &KvStore, session: Option<&PmTestSession>, tr: &mut Tracer) -> Drive {
        let mut d = Drive::new(self.steps.len());
        let first = Instant::now();
        let mut last = first;
        for (i, step) in self.steps.iter().enumerate() {
            let start = Instant::now();
            let op = tr.begin("op", NONE, i as u64, start);
            let ok = match *step {
                Step::Set(k) => store.set(k, &self.values[k as usize]).is_ok(),
                Step::Get(k, stored) => store
                    .get(k)
                    .is_ok_and(|got| got.as_ref() == stored.then(|| &self.values[k as usize])),
            };
            d.failed_ops += u64::from(!ok);
            let end = match (step, session) {
                (Step::Set(_), Some(s)) => d.send(tr, s, op, i as u64),
                _ => Instant::now(),
            };
            d.op_done(tr, op, start, end, matches!(step, Step::Set(_)));
            last = end;
        }
        d.window = (first, last);
        d
    }

    /// One round: the native twin (same stream, `NullSink`, no checkers),
    /// then the run under PMTest until `finish()` returns the report.
    pub fn round(&self, tr: &mut Tracer) -> Round {
        let native = {
            let store = self.store(Arc::new(NullSink), CheckMode::None);
            self.drive(&store, None, &mut Tracer::new(false))
        };
        let t0 = Instant::now();
        let session = PmTestSession::builder().verdict_cache(self.bug).build();
        let store = self.store(session.sink(), CheckMode::Checkers);
        session.start();
        let setup = t0.elapsed();

        let d = self.drive(&store, Some(&session), tr);
        let (mut round, report) = verdict::finish(&session, d, &native, setup, self.sets(), tr);
        if self.bug {
            round.fail(
                wrong_bug_verdicts(&report, &self.replayed),
                format!(
                    "expected {} replay-site NotPersisted(s) over {} set(s): {}",
                    self.replayed.iter().sum::<u64>(),
                    self.sets(),
                    report.summary()
                ),
            );
        } else {
            round.fail(
                verdict::unclean_traces(&report),
                format!("report not clean: {}", report.summary()),
            );
        }
        round
    }

    /// The checker alone: re-runs the stream into a `MemorySink`, takes
    /// each set's trace, and times `check_trace_with` on one reused
    /// `CheckerScratch`.
    pub fn offline_check(&self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let sink = Arc::new(MemorySink::new());
        let store = self.store(sink.clone(), CheckMode::Checkers);
        let _ = sink.take_trace(0); // store creation is set-up, not a set
        let model = X86Model::new();
        let mut scratch = CheckerScratch::new();
        let (mut traces, mut entries, mut diags, mut check_ns) = (0u64, 0u64, 0u64, 0u64);
        for (i, step) in self.steps.iter().enumerate() {
            match *step {
                Step::Get(k, _) => {
                    let _ = store.get(k).expect("get");
                }
                Step::Set(k) => {
                    store.set(k, &self.values[k as usize]).expect("set");
                    let trace = sink.take_trace(i as u64);
                    let t = Instant::now();
                    let found = check_trace_with(&trace, &model, &mut scratch);
                    let end = Instant::now();
                    tr.span("check_trace", NONE, i as u64, t, end);
                    check_ns += end.duration_since(t).as_nanos() as u64;
                    traces += 1;
                    entries += trace.len() as u64;
                    diags += found.len() as u64;
                }
            }
        }
        BTreeMap::from([
            ("checker.ns_per_entry", ratio(check_ns as f64, entries as f64)),
            ("checker.ns_per_trace", ratio(check_ns as f64, traces as f64)),
            ("checker.diags_per_trace", ratio(diags as f64, traces as f64)),
        ])
    }
}

/// Unexpected verdicts in a `kv-bug-cache` report. The skipped writeback
/// leaves every write the redo log replays unpersisted, so set `i` must
/// carry exactly `expected[i]` `NotPersisted`s, all caused at the one
/// replay site (the store's `commit()` call) and nothing else.
fn wrong_bug_verdicts(report: &Report, expected: &[u64]) -> u64 {
    let site = report.iter().next().and_then(|d| d.culprit);
    let at_site = |d: &Diag| {
        d.kind == DiagKind::NotPersisted
            && d.culprit == site
            && site.is_some_and(|c| c.file().ends_with("workloads/src/kvstore.rs"))
    };
    let good = report
        .traces()
        .iter()
        .filter(|t| {
            expected.get(t.trace_id as usize) == Some(&(t.diags.len() as u64))
                && t.diags.iter().all(at_site)
        })
        .count() as u64;
    (report.traces().len() as u64 - good) + (expected.len() as u64).saturating_sub(good)
}
