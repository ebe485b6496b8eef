//! `explore-queue`: a model-mode crash-point sweep over a recorded
//! `PmQueue` enqueue sequence, every reachable image validated by
//! `QueueRecovery`. The only workload for `core::explore`, the
//! `pmem::crash` image build and `RecoveryProc`.
//!
//! The program under test is the enqueue sequence; it runs, recorded for
//! crash simulation, in set-up. Every check happens after the program ends,
//! so the whole sweep is the developer's wait for the verdict, and an "op"
//! is one crash point brought to a verdict.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmtest_core::explore::{explore, ExploreConfig, RecoveryProc};
use pmtest_pmem::crash::CrashSim;
use pmtest_pmem::{PmHeap, PmPool};
use pmtest_workloads::{CheckMode, FaultSet, PmQueue, QueueRecovery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{median, ratio, Round};
use crate::spans::{SpanId, Tracer, NONE};

/// Simulated PM image size: every crash image is this many bytes.
pub const IMAGE_BYTES: usize = 16 << 10;
/// Enqueues recorded per sweep.
pub const ENQUEUES: usize = 96;
const ROOT: u64 = 4096;
/// 16-byte node header + 48 = one cache line per node.
const VALUE_BYTES: usize = 48;
const MAX_STATES: usize = 4096;
/// Native runs per round; their median is the round's native time. One
/// enqueue sequence takes tens of microseconds, too short to time alone.
const NATIVE_REPS: usize = 15;
/// Crash points and images a sweep over `ENQUEUES` enqueues visits at this
/// commit. Both follow from the op structure alone, not from the payload
/// bytes the seed picks, so every seed must reproduce them.
const EXPECTED_POINTS: u64 = 289;
const EXPECTED_IMAGES: u64 = 865;

/// The generated enqueue payloads.
pub struct ExploreQueue {
    values: Vec<Vec<u8>>,
}

/// Times every `recover` and `check` call of the wrapped procedure, and
/// notes when each crash point's last image finished.
struct TimedRecovery<'a> {
    inner: QueueRecovery,
    tracer: RefCell<&'a mut Tracer>,
    sweep: SpanId,
    recover_ns: Cell<u64>,
    check_ns: Cell<u64>,
    /// The latest `recover` call, traced once `check` names its point.
    recovered: Cell<Option<(Instant, Instant)>>,
    /// `(point, end of its latest check)`, in visit order.
    point_ends: RefCell<Vec<(usize, Instant)>>,
}

impl RecoveryProc for TimedRecovery<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.recover(image);
        let end = Instant::now();
        self.recover_ns.set(self.recover_ns.get() + end.duration_since(t).as_nanos() as u64);
        self.recovered.set(Some((t, end)));
        r
    }

    fn check(&self, point: usize, image: &[u8]) -> Result<(), String> {
        let t = Instant::now();
        let r = self.inner.check(point, image);
        let end = Instant::now();
        self.check_ns.set(self.check_ns.get() + end.duration_since(t).as_nanos() as u64);
        let mut tracer = self.tracer.borrow_mut();
        if let Some((rt, rend)) = self.recovered.take() {
            tracer.span("recover", self.sweep, point as u64, rt, rend);
        }
        tracer.span("check", self.sweep, point as u64, t, end);
        let mut ends = self.point_ends.borrow_mut();
        match ends.last_mut() {
            Some((p, e)) if *p == point => *e = end,
            _ => ends.push((point, end)),
        }
        r
    }
}

/// A fresh, empty queue on a `IMAGE_BYTES` pool.
fn queue() -> (Arc<PmPool>, PmQueue) {
    let pool = Arc::new(PmPool::untracked(IMAGE_BYTES));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let q = PmQueue::create(heap, CheckMode::None, FaultSet::none()).expect("create queue");
    (pool, q)
}

impl ExploreQueue {
    /// Generates the enqueue payloads for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let values = (0..ENQUEUES).map(|_| (0..VALUE_BYTES).map(|_| rng.gen()).collect()).collect();
        Self { values }
    }

    /// The native program: the enqueue sequence on an untracked pool.
    fn native(&self) -> Duration {
        let (_pool, q) = queue();
        let t = Instant::now();
        for v in &self.values {
            q.enqueue(v).expect("enqueue");
        }
        t.elapsed()
    }

    /// One round: native runs, set-up (queue create plus the recorded
    /// enqueue sequence), then the sweep.
    pub fn round(&self, tr: &mut Tracer) -> Round {
        let mut native: Vec<f64> = (0..NATIVE_REPS).map(|_| self.native().as_secs_f64()).collect();
        let native = Duration::from_secs_f64(median(&mut native));

        let t0 = Instant::now();
        let (pool, q) = queue();
        pool.begin_crash_recording();
        let rec = Instant::now();
        for v in &self.values {
            q.enqueue(v).expect("enqueue");
        }
        let record = rec.elapsed();
        let sim = CrashSim::from_pool(&pool).expect("crash recording active");
        let setup = t0.elapsed();
        let enqueued_ok = q.items().is_ok_and(|items| items == self.values);

        let cfg = ExploreConfig { max_states_per_point: MAX_STATES, ..ExploreConfig::default() };
        let start = Instant::now();
        let sweep = tr.begin("sweep", NONE, 0, start);
        let proc = TimedRecovery {
            inner: QueueRecovery::new(ROOT, self.values.clone(), 0),
            tracer: RefCell::new(tr),
            sweep,
            recover_ns: Cell::new(0),
            check_ns: Cell::new(0),
            recovered: Cell::new(None),
            point_ends: RefCell::new(Vec::new()),
        };
        let report = explore(&sim, &proc, &cfg);
        let end = Instant::now();
        let TimedRecovery { recover_ns, check_ns, point_ends, tracer, .. } = proc;
        tracer.into_inner().end(sweep, end);

        let mut prev = start;
        let op_ns: Vec<u64> = point_ends
            .into_inner()
            .into_iter()
            .map(|(_, e)| {
                let ns = e.duration_since(prev).as_nanos() as u64;
                prev = e;
                ns
            })
            .collect();
        let s = report.stats;
        let (points, images) = (s.crash_points_enumerated, s.images_checked);
        let recovery_ns = (recover_ns.get() + check_ns.get()) as f64;
        let wall_ns = end.duration_since(start).as_nanos() as f64;
        let layer = BTreeMap::from([
            ("app.native_op_ns", native.as_nanos() as f64 / ENQUEUES as f64),
            ("app.entries_per_op", sim.op_count() as f64 / ENQUEUES as f64),
            (
                "trace.record_ns_per_entry",
                (record.as_nanos() as f64 - native.as_nanos() as f64) / sim.op_count() as f64,
            ),
            ("explore.points", points as f64),
            ("explore.images", images as f64),
            ("explore.recovery_ns_per_image", ratio(recovery_ns, images as f64)),
            ("explore.enumerate_ns_per_point", ratio(wall_ns - recovery_ns, points as f64)),
            ("explore.images_per_point", ratio(images as f64, points as f64)),
            ("explore.prefix_share_hit_rate", s.prefix_share_hit_rate()),
        ]);
        let mut round = Round {
            ops: points,
            failed: 0,
            violations: Vec::new(),
            setup,
            window: (start, end),
            native,
            result_wait: end.duration_since(start),
            op_ns,
            layer,
        };
        round.fail(
            u64::from(!enqueued_ok),
            "recorded queue does not hold the enqueued items".into(),
        );
        round.fail(
            report.violations.len() as u64,
            format!("sweep found violations:\n{}", report.render()),
        );
        let reachable: u64 =
            report.points.iter().map(|p| p.state_count.min(MAX_STATES as u128) as u64).sum();
        round.fail(
            u64::from(
                (points, images) != (EXPECTED_POINTS, EXPECTED_IMAGES)
                    || points != sim.boundary_points().len() as u64
                    || images != reachable,
            ),
            format!(
                "sweep counted {points} point(s) and {images} image(s); expected \
                 {EXPECTED_POINTS} and {EXPECTED_IMAGES}, the sim has {} boundary point(s) \
                 and {reachable} reachable image(s)",
                sim.boundary_points().len()
            ),
        );
        round
    }
}
