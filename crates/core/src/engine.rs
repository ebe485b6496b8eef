use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use pmtest_obs::{ScrapeServer, SpanHandle, TelemetrySnapshot};
use pmtest_trace::{Entry, LocResolver, PackedEntry, Trace, TraceArena, TraceStats};

use crate::bundle::{BundleReason, DiagnosisBundle, BUNDLE_STEPS};
use crate::cache::{
    CachedVerdict, VerdictCache, VerdictCacheConfig, VerdictCacheStats, WorkerCache,
};
use crate::checker::{check_packed_with, replay, CheckerScratch, ReplayObserver};
use crate::diag::{Diag, Report, Severity, TraceReport};
use crate::ingest::{IngestPlane, PlaneClosed, WorkerGuard};
use crate::model::{PersistencyModel, X86Model};
use crate::shadow::ShadowMemory;
use crate::telemetry::{
    EngineTelemetry, EntryTimer, FlushCause, SiteProfiler, Stage, TelemetryConfig, TelemetryLevel,
};

/// Configuration of the checking engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The persistency model whose checking rules to apply.
    pub model: Arc<dyn PersistencyModel>,
    /// Number of worker threads (the paper uses one unless stated, §6.1;
    /// Fig. 12b scales this up).
    pub workers: usize,
    /// What the engine records beyond its always-on counters: one
    /// [`TelemetryLevel`] (diagnosis bundles, the profile, latency
    /// histograms and spans). Defaults to [`TelemetryLevel::Off`].
    pub telemetry: TelemetryConfig,
    /// The content-addressed verdict cache (see [`crate::cache`]). Off by
    /// default: the default configuration keeps measuring — and the golden
    /// suites keep pinning — the uncached path.
    pub verdict_cache: VerdictCacheConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            model: Arc::new(X86Model::new()),
            workers: 1,
            telemetry: TelemetryConfig::off(),
            verdict_cache: VerdictCacheConfig::default(),
        }
    }
}

/// What travels with one handoff beside its traces' records, which sit in
/// the handed-over arena: the handoff's dispatch accounting. The accounting
/// settles on drop, so the `outstanding` counter stays consistent no matter
/// how the handoff dies — checked normally, abandoned mid-batch by a
/// panicking checker, or discarded from a dead plane's mailboxes after the
/// last worker exits.
pub(crate) struct BatchMsg {
    accounting: BatchAccounting,
    /// Handoff time, for the mailbox-wait stage histogram. `None` below
    /// [`TelemetryLevel::Full`] — reading the clock per handoff would
    /// otherwise dominate short traces.
    submitted: Option<Instant>,
    /// Which caller handed the traces over.
    cause: FlushCause,
}

/// Drop-guard for one handoff. Dropping it marks its traces as no longer
/// outstanding, waking idle waiters if it was the last work in flight.
struct BatchAccounting {
    shared: Arc<Shared>,
    n: u64,
}

impl Drop for BatchAccounting {
    fn drop(&mut self) {
        self.shared.retire(self.n);
    }
}

/// Error returned by [`Engine::submit`] / [`Engine::submit_batch`] when the
/// worker pool is no longer accepting traces — its threads have terminated,
/// either because the engine was shut down or because a worker panicked.
///
/// The submitted traces are dropped; results already collected remain
/// available through [`Engine::report`] / [`Engine::take_report`]. Those
/// calls stay safe after a worker death: every handoff settles its
/// idle-tracking accounting even if a panicking checker abandons it or the
/// dying worker pool discards it from a mailbox, so the report barrier
/// cannot hang on traces that will never be checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitError;

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("checking engine is no longer accepting traces (workers terminated)")
    }
}

impl std::error::Error for SubmitError {}

/// The decoupled checking engine: traces flow through the ingest plane's
/// per-producer mailboxes to a pool of worker threads (Fig. 8).
///
/// The program under test keeps executing while workers validate completed
/// traces — this pipelining is the second half of the paper's performance
/// story (§3.2, "Runtime Testing"). [`Engine::wait_idle`] is the
/// `PMTest_GET_RESULT` barrier: it blocks until every submitted trace has
/// been checked.
///
/// Four mechanisms keep the submission path cheap (Fig. 12's scalability
/// depends on all of them):
///
/// * **Per-producer mailboxes** — each recording producer (a session
///   thread, a [`ThreadRecorder`](crate::ThreadRecorder)) registers its own
///   one-slot mailbox, and direct [`submit`](Self::submit) calls share one
///   engine-owned producer. Every submission locks its producer, appends
///   the sealed traces to the staged arena, and hands the staged arena over
///   if the mailbox is empty — one uncontended lock and one buffer trade,
///   with no cross-producer channel lock and no batch size to set: traces
///   batch exactly while the workers are behind. Workers take their
///   affinity mailboxes first, *steal* from the rest, and take any free
///   producer's staged traces before they park. See `crate::ingest` and
///   DESIGN.md §13.
/// * **Arena messages** — every handoff travels as one [`TraceArena`] of
///   compact packed records, which workers check in place without decoding
///   them into `Entry` vectors.
/// * **Sharded results** — each worker appends finished [`TraceReport`]s to
///   its own shard; shards merge only when a report is requested, so workers
///   never contend on a global results lock.
/// * **Storage recycling** — each mailbox keeps its arena for the
///   producer's life: a handoff and a take trade cleared buffers through
///   it, and the records a producer holds untaken stay within one retained
///   buffer's size, so steady-state handoffs never allocate. Each worker
///   keeps its own checker scratch state across batches, keeping the
///   steady-state path off the allocator.
///
/// # Examples
///
/// ```
/// use pmtest_core::{Engine, EngineConfig};
/// use pmtest_trace::{Event, Trace};
/// use pmtest_interval::ByteRange;
///
/// let engine = Engine::new(EngineConfig::default());
/// let mut trace = Trace::new(0);
/// let r = ByteRange::with_len(0, 8);
/// trace.push(Event::Write(r).here());
/// trace.push(Event::IsPersist(r).here()); // will FAIL
/// engine.submit(trace).unwrap();
/// let report = engine.take_report();
/// assert_eq!(report.fail_count(), 1);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    /// The producer direct [`submit`](Self::submit) calls share, registered
    /// on first use.
    producer: OnceLock<Arc<Producer>>,
    workers: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Live HTTP scrape endpoint, present when
    /// [`TelemetryConfig::scrape_addr`] is set. Holds only a
    /// [`Weak`](std::sync::Weak) back to [`Shared`], so it never keeps a
    /// dropped engine's state alive; its drop (after the workers join) stops
    /// the serving thread.
    scrape: Option<ScrapeServer>,
}

struct Shared {
    /// Traces handed over but not yet checked. Producers only touch this
    /// atomic (plus their own mailbox), keeping `submit` off the result
    /// shards.
    outstanding: AtomicU64,
    /// The ingest plane: per-producer mailboxes plus the worker wake/steal
    /// protocol. Its producer list is the only producer registry.
    plane: Arc<IngestPlane<BatchMsg>>,
    /// Per-worker result shards; worker `i` writes only `shards[i]`.
    shards: Vec<Mutex<Vec<TraceReport>>>,
    /// Results merged out of the shards so far, kept sorted by trace id.
    /// Drained by [`Engine::take_report`], appended to by every report
    /// request — so [`Engine::report`] clones an already-built [`Report`]
    /// and [`Engine::with_report`] borrows it without copying at all.
    collected: Mutex<Report>,
    /// Shared L2 of the content-addressed verdict cache; `None` unless
    /// [`VerdictCacheConfig::enabled`]. Workers keep their L1s privately.
    verdict_cache: Option<VerdictCache>,
    /// `wait_idle` callers register in `idle_waiters` and wait on `idle`;
    /// the last retire notifies only when one is registered.
    idle_lock: Mutex<()>,
    idle: Condvar,
    idle_waiters: AtomicUsize,
    /// Typed metric handles (the engine's counters, histograms, per-kind
    /// diagnostic counters). Always present; what is recorded beyond the
    /// counters depends on [`TelemetryConfig::level`].
    telemetry: EngineTelemetry,
    /// Diagnosis bundles captured on ERROR, drained by
    /// [`Engine::take_bundles`]. Bounded at [`MAX_BUNDLES`]; captures past
    /// the bound increment `bundles_dropped` instead of growing the queue.
    bundles: Mutex<Vec<DiagnosisBundle>>,
    /// ERROR bundles discarded because the bundle queue was full.
    bundles_dropped: AtomicU64,
    /// The persistency model every worker checks against.
    model: Arc<dyn PersistencyModel>,
}

/// Most ERROR bundles retained between [`Engine::take_bundles`] drains. One
/// failing checker in a loop would otherwise buffer the steps of every
/// iteration; the first failures are the interesting ones.
const MAX_BUNDLES: usize = 16;

/// A recording producer: its mailbox on the ingest plane plus, behind the
/// producer lock, its staged arena — traces sealed but not yet handed over.
pub(crate) type Producer = crate::ingest::Producer<BatchMsg>;

impl Shared {
    /// Admits the sealed traces in `arena` as one handoff, under their
    /// producer's lock: counts them submitted and raises `outstanding`
    /// before the lock is released (publish invariant (a), see
    /// [`Engine::publish_staged`]). The returned message settles the count
    /// when it drops; the handoff's other counters are the taking worker's.
    fn admit(self: &Arc<Self>, arena: &TraceArena, cause: FlushCause) -> BatchMsg {
        let n = arena.sealed() as u64;
        self.outstanding.fetch_add(n, Ordering::AcqRel);
        self.telemetry.counters.traces_submitted.add(n);
        BatchMsg {
            accounting: BatchAccounting { shared: self.clone(), n },
            submitted: self.telemetry.timed().then(Instant::now),
            cause,
        }
    }

    /// Marks `n` traces as no longer outstanding, waking idle waiters when
    /// the count reaches zero. Runs from [`BatchAccounting`]'s drop — after
    /// a worker finishes a batch, or when an unchecked batch is discarded.
    fn retire(&self, n: u64) {
        // Dekker handshake with `wait_idle` (SeqCst on both sides): either
        // the waiter's re-check sees zero, or this load sees the waiter.
        if self.outstanding.fetch_sub(n, Ordering::SeqCst) == n
            && self.idle_waiters.load(Ordering::SeqCst) > 0
        {
            // The brief lock pairs with the wait in `wait_idle`.
            drop(self.idle_lock.lock());
            self.idle.notify_all();
        }
    }

    /// Files the ERROR bundle of a failing trace, built by re-checking its
    /// packed records, or counts it dropped once the bundle queue is full —
    /// checked before the records are copied.
    fn file_error_bundle(&self, trace_id: u64, words: &[PackedEntry], entries: u32) {
        let mut bundles = self.bundles.lock();
        if bundles.len() < MAX_BUNDLES {
            let trace = Trace::from_packed(trace_id, words.to_vec(), entries);
            let reason = BundleReason::Error;
            bundles.push(DiagnosisBundle::recheck(
                self.model.as_ref(),
                &trace,
                reason,
                BUNDLE_STEPS,
            ));
        } else {
            self.bundles_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lifetime counters; see [`Engine::stats`]. Reads the same registered
    /// handles the telemetry snapshot exports.
    fn stats(&self) -> EngineStats {
        let (c, ingest) = (&self.telemetry.counters, &self.telemetry.ingest);
        EngineStats {
            traces_checked: c.traces_checked.get(),
            entries_processed: c.entries_processed.get(),
            diagnostics: c.diagnostics.get(),
            batches_submitted: c.batches_submitted.get(),
            traces_submitted: c.traces_submitted.get(),
            queue_highwater: self.plane.handoff_highwater(),
            backpressure_stalls: ingest.backpressure_stalls.get(),
            steals: ingest.steals.get(),
            rings_registered: ingest.rings_registered.get(),
            affinity_hits: ingest.affinity_hits.get(),
            parks: ingest.parks.get(),
            wakes: ingest.wakes.get(),
            recruit_cas_fails: ingest.recruit_cas_fails.get(),
        }
    }

    /// Buffer reuse on the handoff path, from the tallies each handoff
    /// folds: handoffs, and those whose traces grew a slab.
    fn reuse_stats(&self) -> ReuseStats {
        ReuseStats {
            batches: self.telemetry.counters.batches_submitted.get(),
            grown: self.telemetry.arena_grown_batches.get(),
        }
    }

    /// Snapshot assembly; see [`Engine::telemetry_snapshot`]. Lives on
    /// `Shared` so the scrape endpoint can serve live snapshots through a
    /// [`Weak`](std::sync::Weak) without holding the engine itself. The
    /// registry carries every counter; what is added here is derived at
    /// snapshot time.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        snap.push_counter("engine_queue_highwater", &[], self.plane.handoff_highwater());
        snap.push_gauge("engine_workers", &[], self.shards.len() as f64);
        let plane = &self.plane;
        snap.push_gauge("engine_ring_occupancy", &[], plane.current_occupancy() as f64);
        snap.push_gauge("engine_rings_live", &[], plane.producers_live() as f64);
        for (i, producer) in plane.producer_stats().iter().enumerate() {
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("ring", &idx)];
            snap.push_gauge("engine_ring_occupancy_traces", labels, producer.occupancy as f64);
            snap.push_gauge("engine_ring_highwater", labels, producer.highwater as f64);
            snap.push_counter("engine_ring_pushed", labels, producer.handoffs);
        }
        snap.push_gauge("arena_pool_hit_rate", &[], self.reuse_stats().hit_rate());
        if let Some(cache) = &self.verdict_cache {
            let stats = cache.stats();
            snap.push_counter("verdict_cache_l1_hits", &[], stats.l1_hits);
            snap.push_counter("verdict_cache_l2_hits", &[], stats.l2_hits);
            snap.push_counter("verdict_cache_misses", &[], stats.misses);
            snap.push_counter("verdict_cache_bypasses", &[], stats.bypasses);
            snap.push_counter("verdict_cache_inserts", &[], stats.inserts);
            snap.push_counter("verdict_cache_evictions", &[], stats.evictions);
            snap.push_gauge("verdict_cache_bytes_resident", &[], stats.bytes_resident as f64);
            snap.push_gauge("verdict_cache_entries", &[], stats.entries as f64);
            snap.push_gauge("verdict_cache_hit_rate", &[], stats.hit_rate());
        }
        snap
    }
}

/// Lifetime counters of an [`Engine`] (useful for the benchmark harnesses
/// and for sizing trace batches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traces fully checked.
    pub traces_checked: u64,
    /// Trace entries processed across all traces.
    pub entries_processed: u64,
    /// Diagnostics (FAIL + WARN) produced.
    pub diagnostics: u64,
    /// Handoffs taken by the workers: made by a submission that found its
    /// mailbox empty, by a result point, or by an idle worker's take.
    pub batches_submitted: u64,
    /// Traces handed over, counted as a handoff admits them: one discarded
    /// untaken counts here and never in `traces_checked`.
    pub traces_submitted: u64,
    /// Most traces one handoff carried (what its producer staged while the
    /// mailbox was full): how far the checking pipeline ran behind.
    pub queue_highwater: u64,
    /// Times a submission had to wait for a worker's take to keep its
    /// untaken records within the bound (Fig. 12a's backpressure regime).
    pub backpressure_stalls: u64,
    /// Handoffs taken by a worker outside its affinity pass — the
    /// work-stealing traffic between producers and non-preferred workers.
    pub steals: u64,
    /// Producers ever registered with the ingest plane: one per session
    /// recording thread and per [`ThreadRecorder`](crate::ThreadRecorder),
    /// plus one shared by direct [`Engine::submit`] calls.
    pub rings_registered: u64,
    /// Handoffs taken by a worker inside its affinity pass — the complement
    /// of `steals`.
    pub affinity_hits: u64,
    /// Worker parks actually entered (a worker found no work and slept).
    pub parks: u64,
    /// Parked workers recruited awake by a producer's handoff or staging.
    pub wakes: u64,
    /// Recruiting-CAS attempts that lost to an already-in-flight recruit —
    /// how often the single-recruit gate damped a would-be wake.
    pub recruit_cas_fails: u64,
}

/// How often handoffs were recorded into recycled buffers without growing
/// them; see [`PmTestSession::pool_stats`](crate::PmTestSession::pool_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Handoffs to the engine's workers.
    pub batches: u64,
    /// Handoffs whose recording or staging outgrew a recycled word buffer.
    pub grown: u64,
}

impl ReuseStats {
    /// Share of handoffs that needed no slab growth, in `[0, 1]` (0 before
    /// anything is handed over).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batches.saturating_sub(self.grown) as f64 / self.batches as f64
        }
    }
}

impl EngineStats {
    /// Mean traces per handoff (0 if nothing was handed over).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_submitted == 0 {
            0.0
        } else {
            self.traces_submitted as f64 / self.batches_submitted as f64
        }
    }
}

impl Engine {
    /// Spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is zero.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        let telemetry = EngineTelemetry::new(config.workers, &config.telemetry);
        let shared = Arc::new(Shared {
            outstanding: AtomicU64::new(0),
            plane: Arc::new(IngestPlane::new(config.workers, telemetry.ingest.clone())),
            shards: (0..config.workers).map(|_| Mutex::new(Vec::new())).collect(),
            collected: Mutex::new(Report::default()),
            verdict_cache: config
                .verdict_cache
                .enabled
                .then(|| VerdictCache::new(&config.verdict_cache)),
            idle_lock: Mutex::new(()),
            idle: Condvar::new(),
            idle_waiters: AtomicUsize::new(0),
            telemetry,
            bundles: Mutex::new(Vec::new()),
            bundles_dropped: AtomicU64::new(0),
            model: config.model,
        });
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pmtest-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn pmtest worker");
            handles.push(handle);
        }
        // The scrape endpoint captures only a weak reference: an engine
        // being torn down answers its last scrapes with an empty snapshot
        // instead of keeping `Shared` alive.
        let scrape = config.telemetry.scrape_addr.as_deref().map(|addr| {
            let weak = Arc::downgrade(&shared);
            let source: pmtest_obs::SnapshotSource = Arc::new(move || {
                weak.upgrade().map(|s| s.telemetry_snapshot()).unwrap_or_default()
            });
            ScrapeServer::bind(addr, source)
                .unwrap_or_else(|e| panic!("bind telemetry scrape endpoint {addr}: {e}"))
        });
        Self {
            shared,
            producer: OnceLock::new(),
            workers: config.workers,
            handles: Mutex::new(handles),
            scrape,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Buffer reuse on the handoff path (see [`ReuseStats`]).
    pub(crate) fn reuse_stats(&self) -> ReuseStats {
        self.shared.reuse_stats()
    }

    /// Lifetime counters (never reset, even by
    /// [`take_report`](Self::take_report)).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Counter snapshot of the verdict cache — `None` unless
    /// [`VerdictCacheConfig::enabled`] was set at construction. Hit tallies
    /// settle per worker batch, so read after [`wait_idle`](Self::wait_idle)
    /// for exact counts.
    #[must_use]
    pub fn verdict_cache_stats(&self) -> Option<VerdictCacheStats> {
        self.shared.verdict_cache.as_ref().map(VerdictCache::stats)
    }

    /// The typed metric handles shared with sessions (span buffers).
    pub(crate) fn telemetry(&self) -> &EngineTelemetry {
        &self.shared.telemetry
    }

    /// A full machine-readable snapshot of the engine's telemetry: registry
    /// metrics (per-checker latency histograms, per-kind diagnostic
    /// counters, queue-depth and worker-utilization gauges), the lifetime
    /// [`EngineStats`] counters, ingest-plane ring metrics, and ship-path
    /// buffer reuse.
    ///
    /// Export it with [`TelemetrySnapshot::to_json_lines`],
    /// [`TelemetrySnapshot::to_prometheus`], or dump it to disk via
    /// [`pmtest_obs::writer`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.shared.telemetry_snapshot()
    }

    /// The address the telemetry scrape endpoint is actually serving from,
    /// when [`TelemetryConfig::scrape_addr`] was set — with port `0` in the
    /// config, this carries the OS-assigned port.
    #[must_use]
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    /// Exports the span buffers as Chrome trace-event JSON — load the string
    /// (saved as `*.trace.json`) in Perfetto or `chrome://tracing` to see
    /// the ship/claim/replay/merge timeline per thread. Empty (but valid)
    /// below [`TelemetryLevel::Full`].
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        pmtest_obs::trace_event::to_chrome_trace(&self.shared.telemetry.spans.snapshot())
    }

    /// One human-readable line summarizing
    /// [`telemetry_snapshot`](Self::telemetry_snapshot): traces checked,
    /// check-latency quantiles, queue high-water, diagnostic totals.
    #[must_use]
    pub fn telemetry_summary(&self) -> String {
        crate::telemetry::summary_line(&self.telemetry_snapshot())
    }

    /// Aggregated [`TraceStats`] per worker — how checker-dense and
    /// epoch-dense each worker's share of the workload was. All zeros below
    /// [`TelemetryLevel::Full`].
    #[must_use]
    pub fn worker_trace_stats(&self) -> Vec<TraceStats> {
        self.shared.telemetry.worker_stats.iter().map(|s| *s.lock()).collect()
    }

    /// The cross-trace performance profile aggregated so far — per-site
    /// flush/fence/log counts, wasted-persist bytes, and WARN occurrences.
    /// Empty below [`TelemetryLevel::Profile`]. Call after the
    /// traces of interest have been checked (e.g. after
    /// [`wait_idle`](Self::wait_idle) or a session flush).
    #[must_use]
    pub fn profile(&self) -> pmtest_obs::ProfileSnapshot {
        self.shared.telemetry.profile.snapshot()
    }

    /// Ranks [`profile`](Self::profile) into the advisor's source-located
    /// suggestions (see DESIGN.md §16). Serialize with
    /// [`AdvisorReport::to_json`](pmtest_obs::AdvisorReport::to_json) or
    /// render with `pmtest-explain --advise`.
    #[must_use]
    pub fn advisor_report(&self) -> pmtest_obs::AdvisorReport {
        pmtest_obs::AdvisorReport::from_profile(&self.profile())
    }

    /// Submits one trace for asynchronous checking. It is staged on the
    /// engine-owned producer like a session's sealed trace (see
    /// [`TraceArena::push_trace`]); an empty trace still gets its (empty)
    /// report.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the worker pool has terminated (the engine
    /// was shut down, or a worker panicked); the trace is dropped.
    pub fn submit(&self, trace: Trace) -> Result<(), SubmitError> {
        let records = trace.packed().len();
        self.stage(self.own_producer(), records, |staged| staged.push_trace(trace), None)
    }

    /// Submits a batch of traces in one staging step, paying the lock and
    /// any handoff once: the traces are packed into the staged arena. An
    /// empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the worker pool has terminated; the whole
    /// batch is dropped.
    pub fn submit_batch(&self, traces: Vec<Trace>) -> Result<(), SubmitError> {
        if traces.is_empty() {
            return Ok(());
        }
        let records = traces.iter().map(|trace| trace.packed().len()).sum();
        let append =
            |staged: &mut TraceArena| traces.into_iter().for_each(|t| staged.push_trace(t));
        self.stage(self.own_producer(), records, append, None)
    }

    /// The producer direct submissions share.
    fn own_producer(&self) -> &Producer {
        self.producer.get_or_init(|| self.register_producer())
    }

    /// Registers a recording producer with the ingest plane.
    pub(crate) fn register_producer(&self) -> Arc<Producer> {
        self.shared.plane.register()
    }

    /// The one stage path of every submission — a session's `send_trace`, a
    /// `ThreadRecorder`'s, [`submit`](Self::submit) and
    /// [`submit_batch`](Self::submit_batch): lock `producer`, append the
    /// sealed traces (`incoming` packed records, which `append` moves into
    /// the staged arena), and hand the staged arena over if the mailbox is
    /// empty (`FlushCause::SendTrace`). A producer-side `ship` span wraps it
    /// when `span` is recording. On a dead plane the staged traces are
    /// dropped.
    pub(crate) fn stage(
        &self,
        producer: &Producer,
        incoming: usize,
        append: impl FnOnce(&mut TraceArena),
        span: Option<&SpanHandle>,
    ) -> Result<(), SubmitError> {
        let telemetry = &self.shared.telemetry;
        let started = telemetry.timed().then(Instant::now);
        let span = span.filter(|h| h.enabled()).map(|h| (h, h.now_ns()));
        let handed = {
            let mut staged = producer.staged.lock();
            let admit = |arena: &mut TraceArena| self.shared.admit(arena, FlushCause::SendTrace);
            let handed = self.shared.plane.stage(producer, &mut staged, incoming, append, admit);
            if handed.is_err() {
                staged.arena.clear();
            }
            handed
        };
        if let Some((h, start)) = span {
            h.record(telemetry.span_names.ship, start, h.now_ns().saturating_sub(start));
        }
        if let Some(start) = started {
            telemetry.stage(Stage::RecordPush).record(start.elapsed().as_nanos() as u64);
        }
        self.settle(producer, handed)
    }

    /// A submission's outcome: it fails on a closed plane, and on a plane
    /// whose last worker died — running its final mailbox drain — after the
    /// handoff landed; the mailbox is then discarded so the message cannot
    /// linger untaken (its accounting settles on drop either way).
    fn settle(
        &self,
        producer: &Producer,
        handed: Result<(), PlaneClosed>,
    ) -> Result<(), SubmitError> {
        let plane = &self.shared.plane;
        if handed.is_err() || plane.is_dead() {
            plane.drain_discard(producer);
            return Err(SubmitError);
        }
        Ok(())
    }

    /// Hands every producer's staged traces over — traces sealed but not yet
    /// handed over, whether their thread still runs or has exited — each
    /// once its mailbox is empty (`FlushCause::ResultPoint`). Every result
    /// point calls this before it waits.
    pub(crate) fn publish_staged(&self) {
        let plane = &self.shared.plane;
        // Publish invariant (b): walk a copy of the producer list, never
        // handing over under the registry lock — std's `RwLock` queues new
        // readers behind a waiting writer, so a handoff waiting under a
        // read guard while a producer registers would block every worker's
        // scan.
        for producer in plane.producers() {
            // Publish invariant (a): the staged traces are handed over under
            // their producer's lock, and admitting them raises `outstanding`
            // before the lock is released, so a result point that finds the
            // staged arena already empty still waits for the traces it held.
            let mut staged = producer.staged.lock();
            if staged.arena.sealed() == 0 {
                continue;
            }
            let admit = |arena: &mut TraceArena| self.shared.admit(arena, FlushCause::ResultPoint);
            let handed = plane
                .await_take(&producer)
                .and_then(|()| plane.hand_over(&producer, &mut staged, admit));
            if handed.is_err() {
                staged.arena.clear();
            }
            drop(staged);
            let _ = self.settle(&producer, handed);
        }
    }

    /// Blocks until every submitted trace has been checked
    /// (`PMTest_GET_RESULT`, §4.2). A trace a session sealed counts as
    /// submitted once `send_trace` returns: the wait first hands over every
    /// producer's staged traces, from whichever thread sealed them.
    pub fn wait_idle(&self) {
        self.publish_staged();
        let shared = &self.shared;
        if shared.outstanding.load(Ordering::Acquire) == 0 {
            return;
        }
        let mut guard = shared.idle_lock.lock();
        // Registered before the re-check, under the lock the retire side
        // notifies under (see `Shared::retire`).
        shared.idle_waiters.fetch_add(1, Ordering::SeqCst);
        while shared.outstanding.load(Ordering::SeqCst) > 0 {
            shared.idle.wait(&mut guard);
        }
        shared.idle_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Merges every worker shard into the accumulated, sorted [`Report`].
    /// Callers must already hold no shard or collected lock.
    fn drain_shards(&self) -> parking_lot::MutexGuard<'_, Report> {
        let mut collected = self.shared.collected.lock();
        for shard in &self.shared.shards {
            collected.extend_traces(std::mem::take(&mut *shard.lock()));
        }
        collected
    }

    /// Waits for all outstanding traces, then returns a copy of every result
    /// so far (results keep accumulating). The accumulated report is kept
    /// merged and sorted between calls, so each call clones only once — for
    /// read-only access without even that clone, use
    /// [`with_report`](Self::with_report).
    #[must_use]
    pub fn report(&self) -> Report {
        self.wait_idle();
        self.drain_shards().clone()
    }

    /// Waits for all outstanding traces, then runs `f` on a borrow of the
    /// accumulated results — the zero-copy variant of
    /// [`report`](Self::report). Results keep accumulating; `f` must not
    /// call back into report methods (the results lock is held).
    pub fn with_report<R>(&self, f: impl FnOnce(&Report) -> R) -> R {
        self.wait_idle();
        f(&self.drain_shards())
    }

    /// Waits for all outstanding traces, then drains and returns the results.
    #[must_use]
    pub fn take_report(&self) -> Report {
        self.wait_idle();
        std::mem::take(&mut *self.drain_shards())
    }

    /// Drains the diagnosis bundles captured so far (one per trace whose
    /// verdict carries a FAIL at [`TelemetryLevel::Bundles`] or above,
    /// whether the verdict came from a check or the verdict cache, bounded
    /// at 16 between drains — the counterexamples that matter are the first
    /// ones). Returns an empty vec at [`TelemetryLevel::Off`].
    #[must_use]
    pub fn take_bundles(&self) -> Vec<DiagnosisBundle> {
        self.wait_idle();
        std::mem::take(&mut *self.shared.bundles.lock())
    }

    /// ERROR bundles discarded because more than 16 traces failed between
    /// [`take_bundles`](Self::take_bundles) drains.
    #[must_use]
    pub fn bundles_dropped(&self) -> u64 {
        self.shared.bundles_dropped.load(Ordering::Relaxed)
    }

    /// Shuts the worker pool down, returning everything checked so far
    /// (`PMTest_EXIT`, §4.2).
    ///
    /// Consumes the engine; the ingest plane closes and workers are joined.
    /// `take_report` already waits for every outstanding trace, so this
    /// performs exactly one idle wait.
    pub fn shutdown(self) -> Report {
        // Drop (after the return value is built) closes the plane and joins.
        self.take_report()
    }
}

/// Tallies a worker accumulates across one batch, settled into the shared
/// counters with one add each per batch instead of per trace.
#[derive(Default)]
struct BatchTally {
    traces: u64,
    entries: u64,
    diags: u64,
}

/// A worker's per-trace checking state, kept across batches so the steady
/// state allocates nothing.
struct WorkerState {
    idx: usize,
    /// The checker's shadow memory and scratch buffers, reset (not
    /// reallocated) between traces.
    scratch: CheckerScratch,
    /// Location mirror for decoding packed records.
    resolver: LocResolver,
    /// This worker's verdict-cache front end (fingerprinter + private L1),
    /// present only when the engine carries the shared L2.
    wcache: Option<WorkerCache>,
    /// The site profiler (`Profile` and up), holding the batch's profile
    /// until the batch ends.
    profiler: SiteProfiler,
    /// Results of the batch being checked, appended to the shard at its end.
    reports: Vec<TraceReport>,
    tally: BatchTally,
}

/// One worker thread: take handoffs off the ingest plane (affinity
/// mailboxes first, then stealing, then idle takes of staged traces), check
/// each trace's packed records in place, and file results. Exits when the plane is closed and drained; the guard marks
/// the plane dead if this is the last worker out (normal exit or panic).
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let _guard = WorkerGuard::new(shared.plane.clone());
    // The worker's spare: a take trades it, cleared, for the mailbox's (or
    // an idle take for the staged) arena, and the batch is then checked in
    // place here.
    let mut batch = TraceArena::new();
    let mut state = WorkerState {
        idx,
        scratch: CheckerScratch::new(),
        resolver: LocResolver::new(),
        wcache: shared.verdict_cache.as_ref().map(|_| WorkerCache::new()),
        profiler: SiteProfiler::default(),
        reports: Vec::new(),
        tally: BatchTally::default(),
    };
    // One span buffer per worker (tid = worker index). Registration is the
    // only allocation; below the `Full` level the sink defers even that,
    // and every record below is one relaxed load and a taken-branch.
    let span: SpanHandle = shared.telemetry.spans.register(idx as u64);
    let admit = |arena: &mut TraceArena| shared.admit(arena, FlushCause::IdleWorker);
    while let Some((msg, n)) = shared.plane.next_batch(idx, &mut batch, admit) {
        // Re-checked per batch: the sink can be toggled at runtime.
        let tracing = span.enabled();
        // Destructured so the accounting guard outlives the checking: a
        // panicking checker unwinds through it and the batch still retires
        // (otherwise `wait_idle` would block forever on the lost traces).
        let BatchMsg { accounting: _accounting, submitted, cause } = msg;
        // The handoff's counters, folded where its traces are checked: its
        // caller and fill, and the allocator/intern tallies its arena
        // carries from recording and staging.
        shared.telemetry.note_handoff(cause, n);
        shared.telemetry.note_arena_stats(batch.take_stats());
        let dequeued = submitted.map(|sent| {
            let now = Instant::now();
            shared
                .telemetry
                .stage(Stage::RingWait)
                .record(now.duration_since(sent).as_nanos() as u64);
            now
        });
        let span_claim = tracing.then(|| span.now_ns());
        let replay_start = shared.telemetry.timed().then(Instant::now);
        if let (Some(from), Some(to)) = (dequeued, replay_start) {
            shared
                .telemetry
                .stage(Stage::ClaimReplay)
                .record(to.duration_since(from).as_nanos() as u64);
        }
        let span_replay = tracing.then(|| span.now_ns());
        for (id, words, entries) in batch.traces() {
            check_span(shared, &mut state, id, words, entries);
        }
        batch.clear();
        state.profiler.flush(&shared.telemetry.profile);
        let replay_done = shared.telemetry.timed().then(Instant::now);
        if let (Some(from), Some(to)) = (replay_start, replay_done) {
            shared.telemetry.stage(Stage::Replay).record(to.duration_since(from).as_nanos() as u64);
        }
        let span_merge = tracing.then(|| span.now_ns());
        shared.telemetry.segmap_repr_switches.add(state.scratch.take_repr_switch_delta());
        // Batched settlement: one add per counter per batch.
        if let (Some(cache), Some(wc)) = (shared.verdict_cache.as_ref(), state.wcache.as_mut()) {
            cache.flush_tally(&mut wc.tally);
        }
        let tally = std::mem::take(&mut state.tally);
        let counters = &shared.telemetry.counters;
        counters.traces_checked.add(tally.traces);
        counters.entries_processed.add(tally.entries);
        counters.diagnostics.add(tally.diags);
        if !state.reports.is_empty() {
            shared.shards[idx].lock().append(&mut state.reports);
        }
        if let Some(from) = replay_done {
            shared.telemetry.stage(Stage::ReportMerge).record(from.elapsed().as_nanos() as u64);
        }
        if let (Some(claim), Some(replay), Some(merge)) = (span_claim, span_replay, span_merge) {
            let names = shared.telemetry.span_names;
            let end = span.now_ns();
            span.record(names.claim, claim, replay.saturating_sub(claim));
            span.record(names.replay, replay, merge.saturating_sub(replay));
            span.record(names.merge, merge, end.saturating_sub(merge));
        }
        if let Some(start) = dequeued {
            shared.telemetry.worker_busy[idx].add(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Checks one trace's packed records on the worker owning `state` and files
/// its verdict. At [`TelemetryLevel::Bundles`] and above, a verdict carrying
/// a FAIL — from any lane, the verdict cache included — also files an ERROR
/// bundle, built by re-checking the trace's words.
fn check_span(
    shared: &Shared,
    state: &mut WorkerState,
    trace_id: u64,
    words: &[PackedEntry],
    entries: u32,
) {
    let diags = verdict(shared, state, words);
    if shared.telemetry.level >= TelemetryLevel::Bundles
        && diags.iter().any(|d| d.severity() == Severity::Fail)
    {
        shared.file_error_bundle(trace_id, words, entries);
    }
    file_report(shared, state, trace_id, entries, diags);
}

/// One trace's diagnostics, by one rule on the telemetry level:
///
/// * **Observed** — at [`TelemetryLevel::Profile`] and above, the one
///   packed replay ([`replay`]) decodes one entry at a time on the stack
///   with the site profiler watching, and at `Full` the entry timer
///   ([`CheckerCategory`] histograms and [`TraceStats`]) too. Every trace
///   is checked cold, so the observers see every occurrence; the verdict
///   cache counts it as a bypass.
/// * **Unobserved** — at `Off` and `Bundles`, a trace first probes the
///   verdict cache when it is on: a hit replays the memoized diagnostics
///   without touching the checker. Otherwise it takes the same replay with
///   no observer ([`check_packed_with`]), and a cache miss memoizes the
///   outcome.
///
/// Every path produces identical diagnostics.
///
/// [`CheckerCategory`]: crate::telemetry::CheckerCategory
fn verdict(shared: &Shared, state: &mut WorkerState, words: &[PackedEntry]) -> Vec<Diag> {
    let model = shared.model.as_ref();
    let telemetry = &shared.telemetry;
    if telemetry.observes() {
        if let Some(wc) = state.wcache.as_mut() {
            wc.tally.bypasses += 1;
        }
        let mut observers = Observers {
            timer: telemetry.timed().then(|| EntryTimer::start(telemetry)),
            profiler: &mut state.profiler,
        };
        let diags = replay(words, model, &mut state.scratch, &mut state.resolver, &mut observers);
        if let Some(timer) = observers.timer {
            timer.finish(state.idx);
        }
        state.profiler.end_trace(&diags);
        return diags;
    }
    let mut cache_slot = None;
    if let (Some(cache), Some(wc)) = (shared.verdict_cache.as_ref(), state.wcache.as_mut()) {
        let fp = wc.fingerprint(words);
        if let Some(verdict) = wc.lookup(cache, fp) {
            return verdict.diags.clone();
        }
        cache_slot = Some((cache, fp));
    }
    let diags = check_packed_with(words, model, &mut state.scratch, &mut state.resolver);
    if let (Some((cache, fp)), Some(wc)) = (cache_slot, state.wcache.as_mut()) {
        wc.install(cache, fp, CachedVerdict::new(diags.clone()));
    }
    diags
}

/// The observers of one trace's replay: the site profiler always, the entry
/// timer at `Full`.
struct Observers<'a> {
    timer: Option<EntryTimer<'a>>,
    profiler: &'a mut SiteProfiler,
}

impl ReplayObserver for Observers<'_> {
    fn on_entry(&mut self, index: usize, entry: &Entry, shadow: &ShadowMemory) {
        if let Some(timer) = &mut self.timer {
            timer.on_entry(index, entry, shadow);
        }
        self.profiler.on_entry(index, entry, shadow);
    }
}

/// Files one trace's verdict: batch tally, per-kind diagnostic counters,
/// and the worker's report buffer.
fn file_report(
    shared: &Shared,
    state: &mut WorkerState,
    trace_id: u64,
    entries: u32,
    diags: Vec<Diag>,
) {
    state.tally.traces += 1;
    state.tally.entries += u64::from(entries);
    state.tally.diags += diags.len() as u64;
    for diag in &diags {
        shared.telemetry.diag_counter(diag.kind).inc();
    }
    state.reports.push(TraceReport { trace_id, diags });
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the plane: workers drain what is queued, then exit.
        self.shared.plane.close();
        for handle in std::mem::take(&mut *self.handles.lock()) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("outstanding", &self.shared.outstanding.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagKind;
    use pmtest_interval::ByteRange;
    use pmtest_trace::Event;

    fn failing_trace(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let r = ByteRange::with_len(0, 8);
        t.push(Event::Write(r).here());
        t.push(Event::IsPersist(r).here());
        t
    }

    fn clean_trace(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let r = ByteRange::with_len(0, 8);
        t.push(Event::Write(r).here());
        t.push(Event::Flush(r).here());
        t.push(Event::Fence.here());
        t.push(Event::IsPersist(r).here());
        t
    }

    fn engine_at(level: TelemetryLevel) -> Engine {
        Engine::new(EngineConfig {
            telemetry: TelemetryConfig::at(level),
            ..EngineConfig::default()
        })
    }

    #[test]
    fn bundles_level_captures_a_bundle_on_error() {
        let engine = engine_at(TelemetryLevel::Bundles);
        engine.submit(clean_trace(0)).unwrap();
        engine.submit(failing_trace(1)).unwrap();
        let bundles = engine.take_bundles();
        assert_eq!(bundles.len(), 1, "only the failing trace bundles");
        let b = &bundles[0];
        assert_eq!(b.reason, crate::BundleReason::Error);
        assert_eq!(b.trace_id, 1);
        assert_eq!(b.model, "x86");
        assert_eq!(b.firing, Some(0));
        // The re-check captured the failing trace's own steps.
        assert_eq!(b.steps.iter().map(|s| s.index).collect::<Vec<_>>(), [0, 1]);
        assert_eq!(b.diags[0].kind, DiagKind::NotPersisted);
        // Drained: a second take sees nothing new.
        assert!(engine.take_bundles().is_empty());
        assert_eq!(engine.bundles_dropped(), 0);
    }

    #[test]
    fn bundle_queue_is_bounded() {
        let engine = engine_at(TelemetryLevel::Bundles);
        for id in 0..20 {
            engine.submit(failing_trace(id)).unwrap();
        }
        engine.wait_idle();
        assert_eq!(engine.take_bundles().len(), 16);
        assert_eq!(engine.bundles_dropped(), 4);
    }

    #[test]
    fn bundles_hold_only_their_own_trace() {
        let engine = engine_at(TelemetryLevel::Bundles);
        // Four entries, then two: a window spanning both would hold six.
        engine.submit_batch(vec![clean_trace(5), failing_trace(6)]).unwrap();
        let bundles = engine.take_bundles();
        assert_eq!(bundles.len(), 1, "only the failing trace bundles");
        assert_eq!(bundles[0].trace_id, 6);
        assert_eq!(bundles[0].steps.iter().map(|s| s.index).collect::<Vec<_>>(), [0, 1]);
        let ops: Vec<_> = bundles[0].steps.iter().map(|s| s.entry.event).collect();
        assert_eq!(ops, failing_trace(6).entries().iter().map(|e| e.event).collect::<Vec<_>>());
    }

    #[test]
    fn off_level_captures_nothing() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert!(engine.take_bundles().is_empty());
        assert_eq!(engine.take_report().fail_count(), 1);
    }

    #[test]
    fn no_level_changes_the_report() {
        let plain = Engine::new(EngineConfig::default());
        for level in [TelemetryLevel::Bundles, TelemetryLevel::Profile, TelemetryLevel::Full] {
            let observed = engine_at(level);
            for id in 0..8 {
                let mk = if id % 2 == 0 { failing_trace } else { clean_trace };
                plain.submit(mk(id)).unwrap();
                observed.submit(mk(id)).unwrap();
            }
            assert_eq!(plain.take_report(), observed.take_report(), "{level:?}");
        }
    }

    #[test]
    fn each_level_adds_to_the_one_below() {
        for level in [
            TelemetryLevel::Off,
            TelemetryLevel::Bundles,
            TelemetryLevel::Profile,
            TelemetryLevel::Full,
        ] {
            let engine = engine_at(level);
            engine.submit(failing_trace(0)).unwrap();
            engine.submit(clean_trace(1)).unwrap();
            engine.wait_idle();
            let bundles = engine.take_bundles().len();
            let profiled = engine.profile().traces;
            let snap = engine.telemetry_snapshot();
            let timed = snap.histogram("engine_check_latency_ns").unwrap().count;
            assert_eq!(bundles, usize::from(level >= TelemetryLevel::Bundles), "{level:?}");
            assert_eq!(profiled, if level >= TelemetryLevel::Profile { 2 } else { 0 }, "{level:?}");
            assert_eq!(timed, if level == TelemetryLevel::Full { 2 } else { 0 }, "{level:?}");
        }
    }

    #[test]
    fn single_worker_checks_in_submission_order() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..10 {
            engine.submit(if id % 2 == 0 { failing_trace(id) } else { clean_trace(id) }).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 10);
        assert_eq!(report.fail_count(), 5);
        let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_workers_produce_the_same_report() {
        let engine = Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() });
        assert_eq!(engine.workers(), 4);
        for id in 0..100 {
            engine.submit(failing_trace(id)).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 100);
        assert_eq!(report.fail_count(), 100);
        assert!(report.iter().all(|d| d.kind == DiagKind::NotPersisted));
    }

    #[test]
    fn report_accumulates_take_drains() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert_eq!(engine.report().fail_count(), 1);
        engine.submit(failing_trace(1)).unwrap();
        assert_eq!(engine.report().fail_count(), 2, "report keeps history");
        assert_eq!(engine.take_report().fail_count(), 2);
        assert_eq!(engine.report().fail_count(), 0, "take drained");
    }

    #[test]
    fn wait_idle_on_empty_engine_returns() {
        let engine = Engine::new(EngineConfig::default());
        engine.wait_idle();
        assert!(engine.report().is_clean());
    }

    #[test]
    fn submissions_from_many_threads() {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }));
        std::thread::scope(|s| {
            for t in 0..4 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..25 {
                        engine.submit(clean_trace(t * 25 + i)).unwrap();
                    }
                });
            }
        });
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 100);
        assert!(report.is_clean());
    }

    #[test]
    fn each_producer_thread_registers_its_own_ring() {
        let session = crate::PmTestSession::builder().workers(2).build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let session = session.clone();
                s.spawn(move || {
                    for _ in 0..5 {
                        session.is_persist(ByteRange::with_len(0, 8));
                        session.send_trace().unwrap();
                    }
                });
            }
        });
        assert_eq!(session.report().traces().len(), 15);
        let stats = session.stats();
        assert_eq!(stats.rings_registered, 3, "one ring per recording thread");
        assert_eq!(stats.traces_checked, 15);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Engine::new(EngineConfig { workers: 0, ..EngineConfig::default() });
    }

    #[test]
    fn batch_submission_checks_every_trace() {
        let engine = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
        engine.submit_batch(Vec::new()).unwrap(); // no-op
        engine.submit_batch((0..32).map(failing_trace).collect()).unwrap();
        engine.submit_batch((32..64).map(clean_trace).collect()).unwrap();
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 64);
        assert_eq!(report.fail_count(), 32);
        let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, (0..64).collect::<Vec<_>>(), "merge is ordered by trace id");
    }

    #[test]
    fn stats_track_batches_and_queue_depth() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(clean_trace(0)).unwrap();
        engine.submit_batch((1..32).map(clean_trace).collect()).unwrap();
        engine.wait_idle();
        let stats = engine.stats();
        assert_eq!(stats.batches_submitted, 2, "empty batches are not counted");
        assert_eq!(stats.traces_submitted, 32);
        assert_eq!(stats.traces_checked, 32);
        assert!(stats.queue_highwater >= 31, "batch of 31 must register in the high-water mark");
        assert!((stats.mean_batch_size() - 16.0).abs() < f64::EPSILON);
    }

    #[test]
    fn backpressure_stalls_are_counted_and_survivable() {
        // Traces over half the record bound: one fits the mailbox, and the
        // next must stall until the worker takes it.
        let engine = Engine::new(EngineConfig::default());
        let traces: Vec<Trace> = (0..20)
            .map(|id| {
                let mut t = failing_trace(id);
                for _ in 0..crate::ingest::MAX_STAGED_RECORDS / 2 {
                    t.push(Event::Fence.here());
                }
                t
            })
            .collect();
        for trace in traces {
            engine.submit(trace).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 20, "stalled submissions still deliver");
        assert_eq!(report.fail_count(), 20);
        assert!(engine.stats().backpressure_stalls > 0, "the record bound must have stalled");
    }

    #[test]
    fn shutdown_returns_full_report_once() {
        let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        for id in 0..20 {
            engine.submit(failing_trace(id)).unwrap();
        }
        let report = engine.shutdown();
        assert_eq!(report.traces().len(), 20);
        assert_eq!(report.fail_count(), 20);
    }

    #[test]
    fn with_report_borrows_accumulated_results() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert_eq!(engine.with_report(Report::fail_count), 1);
        engine.submit(failing_trace(1)).unwrap();
        assert_eq!(engine.with_report(Report::fail_count), 2, "results accumulate");
        assert_eq!(engine.take_report().fail_count(), 2);
        assert_eq!(engine.with_report(|r| r.traces().len()), 0, "take drained");
    }

    #[test]
    fn telemetry_snapshot_counts_diagnostics_by_kind() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..4 {
            engine.submit(failing_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("engine_traces_checked"), Some(4));
        assert_eq!(snap.counter("engine_entries_processed"), Some(8));
        let not_persisted = snap
            .counters
            .iter()
            .find(|c| {
                c.name == "engine_diag_total"
                    && c.labels.iter().any(|(k, v)| k == "code" && v == "not_persisted")
            })
            .expect("per-kind counter registered");
        assert_eq!(not_persisted.value, 4);
        assert!(not_persisted.labels.iter().any(|(k, v)| k == "severity" && v == "FAIL"));
        assert_eq!(snap.counter_sum("engine_diag_total"), 4, "no other kind fired");
        assert!(snap.gauge("engine_queue_depth").is_some(), "sampled on submit");
        assert!(snap.gauge("arena_pool_hit_rate").is_some());
        assert!(snap.counter("engine_ring_steals").is_some(), "ingest counters exported");
        assert!(snap.counter("engine_rings_registered").unwrap() >= 1);
        assert!(snap.gauge("engine_ring_occupancy").is_some());
        // Below the Full level: histograms exist but hold no observations, and
        // the per-worker trace stats stay zero.
        assert_eq!(snap.histogram("engine_check_latency_ns").unwrap().count, 0);
        assert_eq!(engine.worker_trace_stats(), vec![TraceStats::default()]);
        assert!(engine.telemetry_summary().contains("timing off"));
    }

    #[test]
    fn worker_scratch_stays_flat_across_batches() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..50 {
            let mk = if id % 2 == 0 { failing_trace } else { clean_trace };
            engine.submit(mk(id)).unwrap();
        }
        engine.wait_idle();
        // Tiny traces never push the worker's segment maps past the flat
        // representation, however many batches reuse them.
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("engine_segmap_repr_switches"), Some(0));
        assert_eq!(snap.counter("engine_traces_checked"), Some(50));
    }

    #[test]
    fn full_level_populates_latency_histograms_and_worker_stats() {
        let engine = engine_at(TelemetryLevel::Full);
        for id in 0..8 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        let check = snap.histogram("engine_check_latency_ns").unwrap();
        assert_eq!(check.count, 8);
        assert!(check.p50 > 0.0 && check.p99 >= check.p50);
        let is_persist = snap.histogram_with("engine_checker_ns", "checker", "is_persist").unwrap();
        assert_eq!(is_persist.count, 8, "one isPersist per clean trace");
        let replay = snap.histogram_with("engine_checker_ns", "checker", "model_replay").unwrap();
        assert_eq!(replay.count, 24, "write + flush + fence per clean trace");
        let handoffs = engine.stats().batches_submitted;
        let ring_wait = snap.histogram_with("engine_stage_ns", "stage", "ring_wait").unwrap();
        assert_eq!(ring_wait.count, handoffs, "one mailbox wait per handoff");
        assert!(snap.counter_sum("engine_worker_busy_ns") > 0);
        assert!(snap.gauge("engine_worker_utilization").is_some());
        let mut totals = TraceStats::default();
        for stats in engine.worker_trace_stats() {
            totals.merge(&stats);
        }
        assert_eq!(totals.writes, 8);
        assert_eq!(totals.entries, 32);
        assert_eq!(snap.counter_sum("engine_worker_entries"), 32);
        let summary = engine.telemetry_summary();
        assert!(summary.contains("8 traces checked"), "{summary}");
        assert!(summary.contains("p50"), "{summary}");
    }

    /// The fused built-in path must be invisible in results: clean and
    /// failing traces land in the same report a custom (non-builtin) model
    /// running the same rules through the object-safe path would produce.
    #[test]
    fn fused_path_does_not_change_the_report() {
        /// x86 rules without `builtin()`: forces the dynamic-dispatch path,
        /// which always collects open writes and resolves every location.
        #[derive(Debug)]
        struct OpaqueX86(X86Model);
        impl PersistencyModel for OpaqueX86 {
            fn name(&self) -> &str {
                "x86"
            }
            fn apply(
                &self,
                shadow: &mut crate::shadow::ShadowMemory,
                entry: &pmtest_trace::Entry,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.apply(shadow, entry, diags);
            }
            fn check_persist(
                &self,
                shadow: &crate::shadow::ShadowMemory,
                range: ByteRange,
                loc: pmtest_trace::SourceLoc,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.check_persist(shadow, range, loc, diags);
            }
            fn check_ordered_before(
                &self,
                shadow: &crate::shadow::ShadowMemory,
                first: ByteRange,
                second: ByteRange,
                loc: pmtest_trace::SourceLoc,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.check_ordered_before(shadow, first, second, loc, diags);
            }
        }
        let fast = Engine::new(EngineConfig::default());
        let slow = Engine::new(EngineConfig {
            model: Arc::new(OpaqueX86(X86Model::new())),
            ..EngineConfig::default()
        });
        for id in 0..12 {
            let mk = if id % 3 == 0 { failing_trace } else { clean_trace };
            fast.submit(mk(id)).unwrap();
            slow.submit(mk(id)).unwrap();
        }
        assert_eq!(fast.take_report(), slow.take_report());
    }

    #[test]
    fn full_level_populates_all_five_stage_histograms() {
        let engine = engine_at(TelemetryLevel::Full);
        for id in 0..8 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        let handoffs = engine.stats().batches_submitted;
        for stage in crate::telemetry::Stage::ALL {
            let h = snap
                .histogram_with("engine_stage_ns", "stage", stage.label())
                .unwrap_or_else(|| panic!("stage {} missing", stage.label()));
            // The producer's stage is timed per submission, the rest per
            // handoff.
            let want = if stage == Stage::RecordPush { 8 } else { handoffs };
            assert_eq!(h.count, want, "{} observations", stage.label());
        }
    }

    #[test]
    fn snapshot_exposes_ring_steal_parker_and_arena_counters() {
        let engine = Engine::new(EngineConfig::default());
        // One trace at a time: each finds the mailbox empty and goes over
        // alone, so there are exactly four takes.
        for id in 0..4 {
            engine.submit(clean_trace(id)).unwrap();
            engine.wait_idle();
        }
        let snap = engine.telemetry_snapshot();
        // Steal/affinity accounting: every take is one or the other.
        let steals = snap.counter("engine_ring_steals").unwrap();
        let affinity = snap.counter("engine_ring_affinity_hits").unwrap();
        assert_eq!(steals + affinity, 4, "each take is a steal or an affinity hit");
        // Parker counters are present (values depend on scheduling).
        assert!(snap.counter("engine_parker_parks").is_some());
        assert!(snap.counter("engine_parker_wakes").is_some());
        assert!(snap.counter("engine_parker_recruit_cas_fails").is_some());
        // Per-ring gauges carry a ring label.
        assert!(snap.gauge("engine_ring_highwater").is_some());
        assert!(snap.gauge("engine_ring_occupancy_traces").is_some());
        assert!(snap.counter("engine_ring_pushed").is_some());
        // Arena/intern counters register even without a recording arena, and
        // lone submitted traces grow no slab.
        assert_eq!(snap.counter("engine_arena_slab_allocs"), Some(0));
        assert_eq!(snap.counter("engine_arena_grown_batches"), Some(0));
        assert_eq!(snap.counter_sum("engine_intern_hits"), 0);
        // Span accounting is exported.
        assert_eq!(snap.counter("engine_spans_dropped"), Some(0));
    }

    /// Batched direct submissions recycle their buffers: once every arena
    /// the producer's handoffs and the worker's takes trade has carried a
    /// batch (the warm laps), staging a batch copies into a kept buffer and
    /// grows no slab.
    #[test]
    fn warm_batched_submits_grow_no_slab() {
        let engine = Engine::new(EngineConfig::default());
        let lap = |lap: u64| {
            engine.submit_batch((0..32).map(|i| clean_trace(lap * 32 + i)).collect()).unwrap();
            engine.wait_idle();
        };
        // The staged arena, the mailbox's and the worker's spare.
        for i in 0..3 {
            lap(i);
        }
        let grown = |engine: &Engine| {
            let snap = engine.telemetry_snapshot();
            let counter = |name| snap.counter(name).unwrap();
            (counter("engine_arena_slab_allocs"), counter("engine_arena_grown_batches"))
        };
        let warm = grown(&engine);
        for i in 3..11 {
            lap(i);
        }
        assert_eq!(grown(&engine), warm, "a warm batch grew a slab");
        let stats = engine.stats();
        assert_eq!((stats.batches_submitted, stats.traces_checked), (11, 352));
    }

    /// A long trace's buffer is freed after its check: once a 10 000-record
    /// trace has been checked, neither the mailbox nor a worker spare keeps
    /// a word buffer over the retention cap. With one worker, the trace
    /// submitted next trades the worker's spare — the long trace's cleared
    /// arena — into the mailbox, where the scan below sees it.
    #[test]
    fn a_long_trace_leaves_no_buffer_over_the_retention_cap() {
        let engine = Engine::new(EngineConfig::default());
        let mut long = Trace::new(0);
        for _ in 0..10_000 {
            long.push(Event::Fence.here());
        }
        engine.submit(long).unwrap();
        engine.wait_idle();
        engine.submit(clean_trace(1)).unwrap();
        assert_eq!(engine.take_report().traces().len(), 2);
        let producers = engine.shared.plane.producers();
        assert_eq!(producers.len(), 1, "direct submits share one producer");
        let mailbox = producers[0].mailbox_word_capacity();
        assert!(
            mailbox <= TraceArena::RETAINED_WORDS,
            "the mailbox kept the long trace's buffer: {mailbox}"
        );
        assert!(producers[0].staged.lock().arena.word_capacity() <= TraceArena::RETAINED_WORDS);
    }

    #[test]
    fn full_level_yields_a_loadable_chrome_trace() {
        let engine = engine_at(TelemetryLevel::Full);
        for id in 0..6 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let trace = engine.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&trace).expect("trace must validate");
        let handoffs = engine.stats().batches_submitted as usize;
        assert!(stats.pairs >= 3 * handoffs, "claim+replay+merge per handoff, got {}", stats.pairs);
        for name in ["claim", "replay", "merge"] {
            assert!(trace.contains(name), "span {name} missing from {trace}");
        }
        // Below `Full`: still a valid (empty) document.
        let engine = Engine::new(EngineConfig::default());
        engine.submit(clean_trace(0)).unwrap();
        engine.wait_idle();
        let trace = engine.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&trace).unwrap();
        assert_eq!(stats.events, 0, "no spans below Full");
    }

    #[test]
    fn scrape_endpoint_serves_prometheus_and_json() {
        use std::io::{Read as _, Write as _};
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::off().with_scrape("127.0.0.1:0"),
            ..EngineConfig::default()
        });
        for id in 0..3 {
            engine.submit(failing_trace(id)).unwrap();
        }
        engine.wait_idle();
        let addr = engine.scrape_addr().expect("scrape endpoint is live");
        let get = |path: &str| {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: pmtest\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("engine_traces_checked 3"), "{metrics}");
        assert!(metrics.contains("engine_stage_ns"), "stage histograms are exported");
        let json = get("/snapshot.json");
        assert!(json.contains("application/json"), "{json}");
        assert!(json.contains("engine_traces_checked"), "{json}");
        // No scrape configured: no endpoint.
        let plain = Engine::new(EngineConfig::default());
        assert!(plain.scrape_addr().is_none());
    }

    /// A model whose checkers panic, killing the worker thread — the only
    /// way the plane can go dead while an `Engine` is alive.
    #[derive(Debug)]
    struct PanickingModel;

    impl PersistencyModel for PanickingModel {
        fn name(&self) -> &str {
            "panicking"
        }

        fn apply(
            &self,
            _shadow: &mut crate::shadow::ShadowMemory,
            _entry: &pmtest_trace::Entry,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }

        fn check_persist(
            &self,
            _shadow: &crate::shadow::ShadowMemory,
            _range: ByteRange,
            _loc: pmtest_trace::SourceLoc,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }

        fn check_ordered_before(
            &self,
            _shadow: &crate::shadow::ShadowMemory,
            _first: ByteRange,
            _second: ByteRange,
            _loc: pmtest_trace::SourceLoc,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }
    }

    #[test]
    fn submit_after_worker_death_is_an_error_not_a_panic() {
        let engine = Engine::new(EngineConfig {
            model: Arc::new(PanickingModel),
            ..EngineConfig::default()
        });
        let mut t = Trace::new(0);
        t.push(Event::Write(ByteRange::with_len(0, 8)).here());
        let _ = engine.submit(t); // worker dies checking this trace
                                  // Spin until the death is observable as a dead ingest plane.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut t = Trace::new(1);
            t.push(Event::Write(ByteRange::with_len(0, 8)).here());
            match engine.submit(t) {
                Err(SubmitError) => break,
                Ok(()) => assert!(
                    std::time::Instant::now() < deadline,
                    "worker death never surfaced as SubmitError"
                ),
            }
            std::thread::yield_now();
        }
        assert!(SubmitError.to_string().contains("no longer accepting"));
    }

    #[test]
    fn report_does_not_hang_after_worker_panic() {
        // A panicking checker must not strand its batch's accounting: the
        // abandoned batch, and any batches the dying worker pool discards
        // from the rings, all have to retire or this report blocks forever.
        let engine = Engine::new(EngineConfig {
            model: Arc::new(PanickingModel),
            ..EngineConfig::default()
        });
        for id in 0..50 {
            let mut t = Trace::new(id);
            t.push(Event::Write(ByteRange::with_len(0, 8)).here());
            // Early submissions kill the worker; later ones race the death
            // and either land in the dying ring or error out. Every accepted
            // trace must still retire.
            let _ = engine.submit(t);
        }
        let report = engine.report();
        assert!(report.traces().is_empty(), "no trace survives a panicking checker");
        assert!(engine.take_report().is_clean());
        // The handoff the dying worker took was counted as it was admitted:
        // the lost traces show as submitted and never checked.
        let stats = engine.stats();
        assert!(stats.traces_submitted > stats.traces_checked, "{stats:?}");
    }
}
