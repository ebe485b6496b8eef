use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_interval::ByteRange;
use pmtest_obs::SpanHandle;
use pmtest_trace::{Entry, Event, SharedSink, Sink, TraceArena};

use crate::diag::Report;
use crate::engine::{Engine, EngineConfig, Producer};
use crate::model::PersistencyModel;
use crate::telemetry::{FlushCause, TelemetryConfig};

static NEXT_SESSION_ID: AtomicU64 = AtomicU64::new(0);

/// Producer-side span-buffer thread ids start here, leaving the low range
/// for the engine's workers (worker `i` records under tid `i`).
static NEXT_PRODUCER_TID: AtomicU64 = AtomicU64::new(1000);

/// Per-thread recording state for one session (§4.5: "PMTest maintains a
/// per-thread data structure that maintains the trace of different
/// threads").
struct Slot {
    session: u64,
    /// The trace this thread is recording: entries encode to packed records
    /// as they arrive. `send_trace` moves the sealed trace to the
    /// producer's staged batch, so no sealed trace waits here.
    arena: TraceArena,
    /// This thread's producer on the engine's ingest plane; its staged
    /// batch is reachable from every result point.
    producer: Arc<Producer>,
    /// This thread's producer-side span buffer, present when the session's
    /// engine recorded spans (`TelemetryLevel::Full`) at slot creation;
    /// `ship` spans land here.
    span: Option<SpanHandle>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Thread exit drops the open, un-`send_trace`d tail; a staged batch
        // stays with the producer for the next result point to ship.
        self.producer.retire();
    }
}

/// This thread's slot registry: the slots plus a one-entry position cache.
/// Slots are never removed while the thread lives, so a cache hit skips
/// even the linear scan on the per-event path; one struct keeps the whole
/// lookup to a single thread-local access and `RefCell` borrow.
struct ThreadSlots {
    /// `(session id, index into list)` of the last slot this thread used.
    last: (u64, usize),
    /// Per-thread slots, keyed by session id. A linear-scanned small
    /// vector: in practice a thread records into one or two sessions, and
    /// the scan beats hashing on the per-event hot path.
    list: Vec<Slot>,
}

impl ThreadSlots {
    /// Position of `id`'s slot, via the one-entry cache when possible.
    #[inline]
    fn pos(&mut self, id: u64) -> Option<usize> {
        let (cached_id, cached_pos) = self.last;
        if cached_id == id {
            if let Some(slot) = self.list.get(cached_pos) {
                if slot.session == id {
                    return Some(cached_pos);
                }
            }
        }
        let pos = self.list.iter().position(|slot| slot.session == id)?;
        self.last = (id, pos);
        Some(pos)
    }
}

thread_local! {
    static SLOTS: RefCell<ThreadSlots> =
        const { RefCell::new(ThreadSlots { last: (u64::MAX, usize::MAX), list: Vec::new() }) };
}

#[inline]
fn with_slot<R>(shared: &SessionShared, f: impl FnOnce(&mut Slot) -> R) -> R {
    SLOTS.with(|s| {
        let slots = &mut *s.borrow_mut();
        let pos = match slots.pos(shared.id) {
            Some(pos) => pos,
            None => {
                slots.last = (shared.id, slots.list.len());
                slots.list.push(shared.new_slot());
                slots.list.len() - 1
            }
        };
        f(&mut slots.list[pos])
    })
}

/// A PMTest testing session — the Rust face of the paper's Table 2 API.
///
/// | Paper function | Here |
/// |---|---|
/// | `PMTest_INIT` | [`PmTestSession::builder`] / [`SessionBuilder::build`] |
/// | `PMTest_EXIT` | drop the session (or [`finish`](Self::finish)) |
/// | `PMTest_THREAD_INIT` | [`thread_init`](Self::thread_init) |
/// | `PMTest_START` / `PMTest_END` | [`start`](Self::start) / [`end`](Self::end) |
/// | `PMTest_EXCLUDE` / `PMTest_INCLUDE` | [`exclude`](Self::exclude) / [`include`](Self::include) |
/// | `PMTest_REG_VAR` / `UNREG_VAR` / `GET_VAR` | [`reg_var`](Self::reg_var) / [`unreg_var`](Self::unreg_var) / [`var`](Self::var) |
/// | `PMTest_SEND_TRACE` | [`send_trace`](Self::send_trace) |
/// | `PMTest_GET_RESULT` | [`report`](Self::report) |
/// | `isPersist` / `isOrderedBefore` | [`is_persist`](Self::is_persist) / [`is_ordered_before`](Self::is_ordered_before) |
/// | `TX_CHECKER_START` / `TX_CHECKER_END` | [`tx_checker_start`](Self::tx_checker_start) / [`tx_checker_end`](Self::tx_checker_end) |
///
/// The session is the [`Sink`] that instrumented pools record into: entries
/// are buffered per thread; [`send_trace`](Self::send_trace) ships the
/// calling thread's buffer to the asynchronous [`Engine`]. Clone the session
/// (cheap; shared state) to hand it to other threads.
///
/// ## Batched submission
///
/// By default every `send_trace` goes straight to the engine (the paper's
/// behaviour). With [`SessionBuilder::batch_capacity`] greater than one,
/// completed traces collect in the thread's staged batch and ship together
/// once it fills — one ring operation and one dispatch for many traces,
/// which is what lets short-trace workloads scale (Fig. 12b). Every result
/// point ([`report`](Self::report), [`take_report`](Self::take_report),
/// [`finish`](Self::finish), [`flush`](Self::flush), …) first ships every
/// thread's staged batch, whether that thread still runs or has exited, so
/// results are identical either way; only submission granularity changes.
///
/// # Examples
///
/// ```
/// use pmtest_core::PmTestSession;
/// use pmtest_trace::{Event, Sink};
/// use pmtest_interval::ByteRange;
///
/// let session = PmTestSession::builder().build();
/// session.start();
/// let r = ByteRange::with_len(0, 8);
/// session.record(Event::Write(r).here());
/// session.is_persist(r); // checker recorded into the trace
/// session.send_trace();
/// let report = session.report();
/// assert_eq!(report.fail_count(), 1); // the write was never persisted
/// ```
#[derive(Clone)]
pub struct PmTestSession {
    shared: Arc<SessionShared>,
}

struct SessionShared {
    id: u64,
    enabled: AtomicBool,
    engine: Engine,
    next_trace: AtomicU64,
    batch_capacity: usize,
    vars: Mutex<HashMap<String, ByteRange>>,
    /// Arenas pre-released into the engine's pool so far, bounding the
    /// per-producer pre-warm at [`PREWARM_MAX_ARENAS`] per session.
    prewarmed: AtomicU64,
}

/// Session-wide cap on pre-warmed arenas — the pool's own retention cap
/// (8 shards × 64 items), past which releases would be dropped anyway.
const PREWARM_MAX_ARENAS: u64 = 512;

impl SessionShared {
    /// A new recording thread's slot: a producer registered with the
    /// engine, a pre-warmed arena and, at `TelemetryLevel::Full`, a span
    /// buffer.
    #[cold]
    fn new_slot(&self) -> Slot {
        Slot {
            session: self.id,
            arena: self.prewarmed_arena(),
            producer: self.engine.register_producer(),
            span: self.producer_span(),
        }
    }

    /// Pre-warms the engine's arena pool for one new producer thread and
    /// draws the thread's initial recording arena from it.
    ///
    /// A producer keeps `queue_capacity + 1` arenas in flight once its ring
    /// backs up (one per queued batch, plus the one it records into), so a
    /// cold pool mints exactly that many `arena_pool_fresh` arenas per thread
    /// before recycling takes over. Releasing them up front — pre-sized so
    /// the pool's retention check keeps them and the first batches record
    /// without slab growth — moves those misses off the steady-state rate:
    /// the committed w4/b32 `arena_pool_hit_rate` was 0.79 without this, ≥0.9
    /// with it (asserted in the engine stress test).
    fn prewarmed_arena(&self) -> TraceArena {
        let pool = self.engine.arena_pool();
        let per_producer = self.engine.queue_capacity() as u64 + 1;
        // ~8 packed words per trace of headroom, clamped to the pool's
        // per-item retention cap.
        let words = (self.batch_capacity * 8).clamp(16, 4096);
        for _ in 0..per_producer {
            if self.prewarmed.fetch_add(1, Ordering::Relaxed) >= PREWARM_MAX_ARENAS {
                break;
            }
            pool.release(TraceArena::with_word_capacity(words));
        }
        pool.acquire()
    }

    /// Moves the trace just sealed in `arena` to `producer`'s staged batch
    /// and ships the batch once it holds `batch_capacity` traces — at batch
    /// 1 straight from the thread's arena — all under the producer lock
    /// (publish invariant (a), see `Engine::publish_staged`).
    fn stage(&self, producer: &Producer, arena: &mut TraceArena, span: Option<&SpanHandle>) {
        let mut staged = producer.staged.lock();
        staged.get_or_insert_with(|| self.engine.arena_pool().acquire()).append_sealed(arena);
        if let Some(batch) = staged.take_if(|batch| batch.sealed() >= self.batch_capacity) {
            self.ship(producer, batch, span, FlushCause::Capacity);
        }
    }

    /// Pushes `batch` onto `producer`'s ring — the caller holds the
    /// producer lock — recording its fill level and why it shipped
    /// (`session_flush_total{cause=…}`, batched sessions only), and wrapping
    /// the push in a producer-side `ship` span when `span` is recording.
    fn ship(
        &self,
        producer: &Producer,
        batch: TraceArena,
        span: Option<&SpanHandle>,
        cause: FlushCause,
    ) {
        let span = span.filter(|h| h.enabled()).map(|h| (h, h.now_ns()));
        let telemetry = self.engine.telemetry();
        if self.batch_capacity > 1 {
            telemetry.note_batch_shipped(cause, batch.sealed());
        }
        let _ = self.engine.push(producer, batch);
        if let Some((h, start)) = span {
            h.record(telemetry.span_names.ship, start, h.now_ns().saturating_sub(start));
        }
    }

    /// A producer-side span buffer for one recording thread, when the
    /// engine records spans (`TelemetryLevel::Full`).
    fn producer_span(&self) -> Option<SpanHandle> {
        let spans = &self.engine.telemetry().spans;
        spans
            .is_enabled()
            .then(|| spans.register(NEXT_PRODUCER_TID.fetch_add(1, Ordering::Relaxed)))
    }
}

/// Builder for [`PmTestSession`] (`PMTest_INIT`).
pub struct SessionBuilder {
    config: EngineConfig,
    batch_capacity: usize,
    /// Explicit queue depth, if [`queue_capacity`](Self::queue_capacity)
    /// was called; otherwise `build` derives one from the batch size.
    queue_capacity: Option<usize>,
}

impl SessionBuilder {
    /// Sets the persistency model (default: x86).
    #[must_use]
    pub fn model<M: PersistencyModel + 'static>(mut self, model: M) -> Self {
        self.config.model = Arc::new(model);
        self
    }

    /// Sets a shared persistency model handle.
    #[must_use]
    pub fn model_arc(mut self, model: Arc<dyn PersistencyModel>) -> Self {
        self.config.model = model;
        self
    }

    /// Sets the number of checking workers (default: 1, as in §6.1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the per-producer ring depth in batches. A full ring
    /// backpressures `send_trace`, bounding the engine's memory use.
    ///
    /// When not set, the depth is derived from the batch size
    /// ([`derived_queue_capacity`](crate::derived_queue_capacity)):
    /// `256 / batch_capacity`, clamped to `[32, 256]`, so the pipeline
    /// buffers a consistent number of *traces* whether submission is
    /// batched or not.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Sets how many completed traces each thread collects before shipping
    /// them to the engine in one batch (default: 1 — submit immediately,
    /// like the paper). Values above one amortise dispatch overhead on
    /// short-trace workloads; see the session-level docs for the flush
    /// points.
    #[must_use]
    pub fn batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity.max(1);
        self
    }

    /// Configures engine telemetry (default: counters only — no clocks read
    /// on the hot path). See [`TelemetryConfig`].
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Enables the content-addressed verdict cache (default: off): repeated
    /// trace shapes are fingerprinted and their memoized verdict — same
    /// diagnostics, same profile deltas — replayed at hash-lookup cost. See
    /// [`crate::cache`] for the bypass predicate and memory bound.
    #[must_use]
    pub fn verdict_cache(mut self, on: bool) -> Self {
        self.config.verdict_cache.enabled = on;
        self
    }

    /// Sets the verdict cache's resident-byte bound (default: 32 MiB).
    /// Implies nothing about [`verdict_cache`](Self::verdict_cache) — the
    /// cache must still be enabled explicitly.
    #[must_use]
    pub fn verdict_cache_max_bytes(mut self, max_bytes: usize) -> Self {
        self.config.verdict_cache.max_bytes = max_bytes;
        self
    }

    /// Spawns the engine and returns the session (tracking starts *disabled*;
    /// call [`PmTestSession::start`]).
    #[must_use]
    pub fn build(self) -> PmTestSession {
        let mut config = self.config;
        config.queue_capacity = self
            .queue_capacity
            .unwrap_or_else(|| crate::engine::derived_queue_capacity(self.batch_capacity));
        PmTestSession {
            shared: Arc::new(SessionShared {
                id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(false),
                engine: Engine::new(config),
                next_trace: AtomicU64::new(0),
                batch_capacity: self.batch_capacity,
                vars: Mutex::new(HashMap::new()),
                prewarmed: AtomicU64::new(0),
            }),
        }
    }
}

impl PmTestSession {
    /// Starts building a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder { config: EngineConfig::default(), batch_capacity: 1, queue_capacity: None }
    }

    /// A `Sink` handle to hand to instrumented pools.
    #[must_use]
    pub fn sink(&self) -> SharedSink {
        self.shared.clone()
    }

    /// Enables tracking and testing (`PMTest_START`).
    pub fn start(&self) {
        self.shared.enabled.store(true, Ordering::Release);
    }

    /// Disables tracking and testing (`PMTest_END`).
    pub fn end(&self) {
        self.shared.enabled.store(false, Ordering::Release);
    }

    /// Whether tracking is currently enabled.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.shared.enabled.load(Ordering::Acquire)
    }

    /// Initializes per-thread tracking for the calling thread
    /// (`PMTest_THREAD_INIT`). Buffers are created lazily anyway; calling
    /// this up front matches the paper's API and pre-allocates the slot.
    pub fn thread_init(&self) {
        with_slot(&self.shared, |_| {});
    }

    /// Creates an owned per-thread recording handle — see
    /// [`ThreadRecorder`]. The handle bypasses the `Sink` path's
    /// thread-local slot registry for the lowest per-event overhead; keep
    /// one per producer thread.
    #[must_use]
    pub fn recorder(&self) -> ThreadRecorder {
        ThreadRecorder {
            arena: self.shared.engine.arena_pool().acquire(),
            producer: self.shared.engine.register_producer(),
            span: self.shared.producer_span(),
            shared: self.shared.clone(),
        }
    }

    /// Ships the calling thread's buffered entries to the checking engine as
    /// one independent trace (`PMTest_SEND_TRACE`). Empty buffers are
    /// skipped.
    ///
    /// With a [`batch_capacity`](SessionBuilder::batch_capacity) above one
    /// the trace waits in the thread's staged batch until the batch fills or
    /// any thread reaches a result point.
    ///
    /// Returns the trace id, if a trace was produced. If the engine's
    /// workers have terminated (it was shut down or a worker panicked) the
    /// trace is dropped and will not appear in any report.
    pub fn send_trace(&self) -> Option<u64> {
        let shared = &self.shared;
        with_slot(shared, |slot| {
            if slot.arena.open_entries() == 0 {
                return None;
            }
            let trace_id = shared.next_trace.fetch_add(1, Ordering::Relaxed);
            slot.arena.seal(trace_id);
            shared.stage(&slot.producer, &mut slot.arena, slot.span.as_ref());
            Some(trace_id)
        })
    }

    /// Ships every thread's staged trace batch to the engine now, without
    /// waiting for the checks. Every result point does this first.
    ///
    /// A no-op when nothing is staged — in particular always, when
    /// [`batch_capacity`](SessionBuilder::batch_capacity) is 1. Entries
    /// still being recorded (not yet `send_trace`d) are *not* flushed.
    pub fn flush(&self) {
        self.shared.engine.publish_staged();
    }

    /// Blocks until all submitted traces are checked and returns the
    /// accumulated results (`PMTest_GET_RESULT`). Ships every thread's
    /// staged batch first.
    #[must_use]
    pub fn report(&self) -> Report {
        self.shared.engine.report()
    }

    /// Like [`report`](Self::report) but drains the accumulated results.
    #[must_use]
    pub fn take_report(&self) -> Report {
        self.shared.engine.take_report()
    }

    /// Engine lifetime counters (traces checked, batches submitted, queue
    /// high-water mark, backpressure stalls, …).
    #[must_use]
    pub fn stats(&self) -> crate::engine::EngineStats {
        self.shared.engine.stats()
    }

    /// Statistics of the engine's arena recycling pool — the pool this
    /// session's record batches cycle through.
    #[must_use]
    pub fn pool_stats(&self) -> pmtest_trace::PoolStats {
        self.shared.engine.arena_pool().stats()
    }

    /// Counter snapshot of the engine's verdict cache — `None` unless
    /// [`SessionBuilder::verdict_cache`] enabled it.
    #[must_use]
    pub fn verdict_cache_stats(&self) -> Option<crate::cache::VerdictCacheStats> {
        self.shared.engine.verdict_cache_stats()
    }

    /// The per-producer ring depth the engine was built with — explicit if
    /// [`SessionBuilder::queue_capacity`] was called, otherwise derived from
    /// the batch size.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.shared.engine.queue_capacity()
    }

    /// Drains the diagnosis bundles captured on ERROR so far — see
    /// [`Engine::take_bundles`]. Ships every thread's staged batch first so
    /// failures it contains are captured. Empty at
    /// [`crate::TelemetryLevel::Off`].
    #[must_use]
    pub fn take_bundles(&self) -> Vec<crate::DiagnosisBundle> {
        self.shared.engine.take_bundles()
    }

    /// A machine-readable snapshot of the engine's telemetry — see
    /// [`Engine::telemetry_snapshot`]. Includes the session-level batching
    /// metrics (`session_batch_fill`, `session_flush_total{cause=…}`).
    #[must_use]
    pub fn telemetry_snapshot(&self) -> pmtest_obs::TelemetrySnapshot {
        self.shared.engine.telemetry_snapshot()
    }

    /// One human-readable telemetry summary line — see
    /// [`Engine::telemetry_summary`].
    #[must_use]
    pub fn telemetry_summary(&self) -> String {
        self.shared.engine.telemetry_summary()
    }

    /// Exports the captured ingest-plane spans as Chrome trace-event JSON —
    /// see [`Engine::chrome_trace`]. Empty (`{"traceEvents":[]}`-shaped)
    /// below [`crate::TelemetryLevel::Full`].
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        self.shared.engine.chrome_trace()
    }

    /// The cross-trace performance profile — see [`Engine::profile`].
    /// Waits for the engine, staged batches included, so every recorded
    /// trace is aggregated. Empty below
    /// [`crate::TelemetryLevel::Profile`].
    #[must_use]
    pub fn profile(&self) -> pmtest_obs::ProfileSnapshot {
        self.shared.engine.wait_idle();
        self.shared.engine.profile()
    }

    /// The advisor's ranked, source-located suggestions derived from
    /// [`profile`](Self::profile) — see [`Engine::advisor_report`].
    #[must_use]
    pub fn advisor_report(&self) -> pmtest_obs::AdvisorReport {
        self.shared.engine.wait_idle();
        self.shared.engine.advisor_report()
    }

    /// Local address of the live telemetry scrape endpoint, if
    /// [`crate::TelemetryConfig::scrape_addr`] was configured — see
    /// [`Engine::scrape_addr`].
    #[must_use]
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.shared.engine.scrape_addr()
    }

    /// Convenience teardown: flushes the calling thread's trace, waits for
    /// the engine, and returns everything (`PMTest_SEND_TRACE` +
    /// `PMTest_GET_RESULT` + `PMTest_EXIT`).
    #[must_use]
    pub fn finish(&self) -> Report {
        self.send_trace();
        self.end();
        self.report()
    }

    // ------------------------------------------------------------------
    // Checkers (recorded into the trace at the current program point)
    // ------------------------------------------------------------------

    /// Places an `isPersist(range)` checker (§4.4).
    #[track_caller]
    pub fn is_persist(&self, range: ByteRange) {
        self.record(Event::IsPersist(range).here());
    }

    /// Places an `isOrderedBefore(first, second)` checker (§4.4).
    #[track_caller]
    pub fn is_ordered_before(&self, first: ByteRange, second: ByteRange) {
        self.record(Event::IsOrderedBefore(first, second).here());
    }

    /// Opens a transaction-checking scope (`TX_CHECKER_START`, §5.1.1).
    #[track_caller]
    pub fn tx_checker_start(&self) {
        self.record(Event::TxCheckerStart.here());
    }

    /// Closes a transaction-checking scope (`TX_CHECKER_END`, §5.1.1),
    /// auto-injecting `isPersist` for every object modified inside it.
    #[track_caller]
    pub fn tx_checker_end(&self) {
        self.record(Event::TxCheckerEnd.here());
    }

    /// Removes `range` from the testing scope (`PMTest_EXCLUDE`).
    #[track_caller]
    pub fn exclude(&self, range: ByteRange) {
        self.record(Event::Exclude(range).here());
    }

    /// Adds `range` back to the testing scope (`PMTest_INCLUDE`).
    #[track_caller]
    pub fn include(&self, range: ByteRange) {
        self.record(Event::Include(range).here());
    }

    // ------------------------------------------------------------------
    // Variable registry (PMTest_REG_VAR / UNREG_VAR / GET_VAR)
    // ------------------------------------------------------------------

    /// Registers `range` under `name` so its persistency can be checked
    /// outside the scope where it was computed (§4.2).
    pub fn reg_var(&self, name: impl Into<String>, range: ByteRange) {
        self.shared.vars.lock().insert(name.into(), range);
    }

    /// Unregisters `name`; returns its range if it was registered.
    pub fn unreg_var(&self, name: &str) -> Option<ByteRange> {
        self.shared.vars.lock().remove(name)
    }

    /// Looks up a registered variable.
    #[must_use]
    pub fn var(&self, name: &str) -> Option<ByteRange> {
        self.shared.vars.lock().get(name).copied()
    }

    /// Places an `isPersist` checker on a registered variable; returns
    /// `false` if `name` is unknown.
    #[track_caller]
    pub fn is_persist_var(&self, name: &str) -> bool {
        match self.var(name) {
            Some(range) => {
                self.record(Event::IsPersist(range).here());
                true
            }
            None => false,
        }
    }
}

impl Sink for PmTestSession {
    #[inline]
    fn record(&self, entry: Entry) {
        self.shared.record(entry);
    }

    #[inline]
    fn is_enabled(&self) -> bool {
        self.shared.is_enabled()
    }
}

impl Sink for SessionShared {
    #[inline]
    fn record(&self, entry: Entry) {
        if self.enabled.load(Ordering::Acquire) {
            with_slot(self, |slot| slot.arena.push(entry));
        }
    }

    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }
}

/// An owned per-thread recording handle — the fastest way into the engine.
///
/// The [`Sink`] path (`session.record(...)`) routes every entry through a
/// thread-local slot registry: a TLS lookup plus a `RefCell` borrow per
/// event. That is what makes `&self` recording from any thread safe, and
/// its cost is real but modest — a few nanoseconds per event. A
/// `ThreadRecorder` removes it entirely by *owning* its record arena and
/// taking `&mut self`: the borrow checker replaces the runtime machinery,
/// and `record` compiles down to the enabled check plus the packed-arena
/// append. This mirrors the paper's C instrumentation, where each thread
/// writes into its own buffer with no indirection (§4.2).
///
/// Traces recorded here are interleaved with `Sink`-path traces in the same
/// session: ids come from the same counter, batches ship through a producer
/// ring of the recorder's own, and results land in the same [`Report`].
///
/// Batching follows the session's
/// [`batch_capacity`](SessionBuilder::batch_capacity). The recorder owns its
/// batch: sealed traces ship when the batch fills or on
/// [`flush`](Self::flush), and dropping the recorder hands them to its
/// producer's staged batch, which the next result point ships. Entries
/// recorded but never [`send_trace`](Self::send_trace)d are discarded on
/// drop, exactly like the `Sink` path's thread slots.
///
/// # Examples
///
/// ```
/// use pmtest_core::PmTestSession;
/// use pmtest_trace::Event;
/// use pmtest_interval::ByteRange;
///
/// let session = PmTestSession::builder().build();
/// session.start();
/// let mut rec = session.recorder();
/// let r = ByteRange::with_len(0, 8);
/// rec.record(Event::Write(r).here());
/// rec.record(Event::Flush(r).here());
/// rec.record(Event::Fence.here());
/// rec.is_persist(r);
/// rec.send_trace();
/// drop(rec); // stages the pending batch for the report below
/// assert!(session.take_report().is_clean());
/// ```
pub struct ThreadRecorder {
    shared: Arc<SessionShared>,
    /// The open trace plus this recorder's batch of sealed traces.
    arena: TraceArena,
    /// This recorder's producer on the engine's ingest plane.
    producer: Arc<Producer>,
    /// This recorder's producer-side span buffer (`TelemetryLevel::Full`).
    span: Option<SpanHandle>,
}

impl ThreadRecorder {
    /// Appends one entry to the open trace. A no-op while the session is
    /// stopped (before [`PmTestSession::start`] / after
    /// [`PmTestSession::end`]).
    #[inline]
    pub fn record(&mut self, entry: Entry) {
        if self.shared.enabled.load(Ordering::Acquire) {
            self.arena.push(entry);
        }
    }

    /// Places an `isPersist(range)` checker (§4.4).
    #[inline]
    #[track_caller]
    pub fn is_persist(&mut self, range: ByteRange) {
        self.record(Event::IsPersist(range).here());
    }

    /// Places an `isOrderedBefore(first, second)` checker (§4.4).
    #[inline]
    #[track_caller]
    pub fn is_ordered_before(&mut self, first: ByteRange, second: ByteRange) {
        self.record(Event::IsOrderedBefore(first, second).here());
    }

    /// Seals the entries recorded since the last seal as one trace
    /// (`PMTest_SEND_TRACE`), shipping the batch if it is now full.
    /// Returns the trace id, or `None` when nothing was recorded.
    #[inline]
    pub fn send_trace(&mut self) -> Option<u64> {
        if self.arena.open_entries() == 0 {
            return None;
        }
        let trace_id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        self.arena.seal(trace_id);
        if self.arena.sealed() >= self.shared.batch_capacity {
            self.ship(FlushCause::Capacity);
        }
        Some(trace_id)
    }

    /// Ships the pending batch now, regardless of fill level. Entries still
    /// being recorded (not yet sealed) stay in the recorder.
    pub fn flush(&mut self) {
        self.ship(FlushCause::ResultPoint);
    }

    fn ship(&mut self, cause: FlushCause) {
        if self.arena.sealed() == 0 {
            return;
        }
        let _held = self.producer.staged.lock();
        let mut batch = self.shared.engine.arena_pool().acquire();
        batch.append_sealed(&mut self.arena);
        self.shared.ship(&self.producer, batch, self.span.as_ref(), cause);
    }

    /// The session this recorder feeds.
    #[must_use]
    pub fn session(&self) -> PmTestSession {
        PmTestSession { shared: self.shared.clone() }
    }
}

impl Drop for ThreadRecorder {
    fn drop(&mut self) {
        // Sealed traces were promised to the report, so they are staged for
        // the next result point; the open tail was not.
        if self.arena.sealed() > 0 {
            let mut staged = self.producer.staged.lock();
            staged.get_or_insert_with(TraceArena::new).append_sealed(&mut self.arena);
        }
        self.producer.retire();
    }
}

impl fmt::Debug for ThreadRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRecorder")
            .field("session", &self.shared.id)
            .field("open_entries", &self.arena.open_entries())
            .field("sealed", &self.arena.sealed())
            .finish()
    }
}

impl fmt::Debug for PmTestSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmTestSession")
            .field("id", &self.shared.id)
            .field("started", &self.is_started())
            .field("batch_capacity", &self.shared.batch_capacity)
            .field("engine", &self.shared.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagKind;
    use crate::model::HopsModel;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn queue_capacity_is_derived_from_the_batch_size() {
        assert_eq!(PmTestSession::builder().build().queue_capacity(), 256);
        assert_eq!(PmTestSession::builder().batch_capacity(32).build().queue_capacity(), 32);
        assert_eq!(PmTestSession::builder().batch_capacity(4).build().queue_capacity(), 64);
        // An explicit setting always wins, in either call order.
        let s = PmTestSession::builder().batch_capacity(32).queue_capacity(4).build();
        assert_eq!(s.queue_capacity(), 4);
        let s = PmTestSession::builder().queue_capacity(4).batch_capacity(32).build();
        assert_eq!(s.queue_capacity(), 4);
    }

    #[test]
    fn disabled_session_records_nothing() {
        let session = PmTestSession::builder().build();
        assert!(!session.is_started());
        session.record(Event::Write(r(0, 8)).here());
        assert!(session.send_trace().is_none());
        assert!(session.report().is_clean());
    }

    #[test]
    fn start_end_toggles_tracking() {
        let session = PmTestSession::builder().build();
        session.start();
        session.record(Event::Write(r(0, 8)).here());
        session.end();
        session.record(Event::Write(r(8, 16)).here()); // dropped
        session.start();
        session.is_persist(r(0, 16));
        assert!(session.send_trace().is_some());
        let report = session.report();
        // Only the first write was tracked; only it can fail isPersist.
        assert_eq!(report.fail_count(), 1);
        assert_eq!(report.iter().next().unwrap().range, Some(r(0, 8)));
    }

    #[test]
    fn traces_are_independent() {
        let session = PmTestSession::builder().build();
        session.start();
        session.record(Event::Write(r(0, 8)).here());
        session.send_trace();
        // New trace: fresh shadow memory, the earlier write is unknown.
        session.is_persist(r(0, 8));
        session.send_trace();
        let report = session.finish();
        assert!(report.is_clean(), "checker in a fresh trace is vacuous");
    }

    #[test]
    fn per_thread_buffers_do_not_mix() {
        let session = PmTestSession::builder().workers(2).build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..10 {
                        session.record(Event::Write(r(0, 8)).here());
                        session.record(Event::Flush(r(0, 8)).here());
                        session.record(Event::Fence.here());
                        session.is_persist(r(0, 8));
                        session.send_trace().expect("trace submitted");
                    }
                });
            }
        });
        let report = session.finish();
        assert_eq!(report.traces().len(), 40);
        assert!(report.is_clean());
    }

    #[test]
    fn hops_model_session() {
        let session = PmTestSession::builder().model(HopsModel::new()).build();
        session.start();
        session.record(Event::Write(r(0, 8)).here());
        session.record(Event::OFence.here());
        session.record(Event::Write(r(64, 72)).here());
        session.record(Event::DFence.here());
        session.is_ordered_before(r(0, 8), r(64, 72));
        let report = session.finish();
        assert!(report.is_clean(), "got {report}");
    }

    #[test]
    fn var_registry_round_trip() {
        let session = PmTestSession::builder().build();
        session.start();
        session.reg_var("backup", r(0, 16));
        assert_eq!(session.var("backup"), Some(r(0, 16)));
        session.record(Event::Write(r(0, 16)).here());
        assert!(session.is_persist_var("backup"));
        assert!(!session.is_persist_var("nope"));
        assert_eq!(session.unreg_var("backup"), Some(r(0, 16)));
        assert_eq!(session.var("backup"), None);
        let report = session.finish();
        assert_eq!(report.fail_count(), 1, "registered var checked");
    }

    #[test]
    fn duplicate_flush_warn_reaches_report() {
        let session = PmTestSession::builder().build();
        session.start();
        session.record(Event::Write(r(0, 8)).here());
        session.record(Event::Flush(r(0, 8)).here());
        session.record(Event::Flush(r(0, 8)).here());
        let report = session.finish();
        assert_eq!(report.warn_count(), 1);
        assert!(report.has(DiagKind::DuplicateFlush));
    }

    #[test]
    fn session_clones_share_state() {
        let session = PmTestSession::builder().build();
        let clone = session.clone();
        session.start();
        assert!(clone.is_started());
        clone.record(Event::Write(r(0, 8)).here());
        clone.is_persist(r(0, 8));
        // Same thread: same buffer, session can send what clone recorded.
        assert!(session.send_trace().is_some());
        assert_eq!(session.report().fail_count(), 1);
    }

    // --------------------------------------------------------------
    // Batched submission
    // --------------------------------------------------------------

    fn record_clean_trace(session: &PmTestSession) {
        session.record(Event::Write(r(0, 8)).here());
        session.record(Event::Flush(r(0, 8)).here());
        session.record(Event::Fence.here());
        session.is_persist(r(0, 8));
        session.send_trace().expect("trace submitted");
    }

    #[test]
    fn batches_ship_when_full() {
        let session = PmTestSession::builder().batch_capacity(4).build();
        session.start();
        for _ in 0..8 {
            record_clean_trace(&session);
        }
        // Two full batches of four shipped without any flush call.
        assert_eq!(session.stats().batches_submitted, 2);
        assert_eq!(session.stats().traces_submitted, 8);
        assert!(session.report().is_clean());
    }

    #[test]
    fn report_flushes_partial_batch() {
        let session = PmTestSession::builder().batch_capacity(32).build();
        session.start();
        for _ in 0..5 {
            record_clean_trace(&session);
        }
        let report = session.report();
        assert_eq!(report.traces().len(), 5, "partial batch reached the engine");
        let stats = session.stats();
        assert_eq!(stats.batches_submitted, 1);
        assert!((stats.mean_batch_size() - 5.0).abs() < f64::EPSILON);
    }

    #[test]
    fn explicit_flush_ships_partial_batch() {
        let session = PmTestSession::builder().batch_capacity(32).build();
        session.start();
        for _ in 0..3 {
            record_clean_trace(&session);
        }
        assert_eq!(session.stats().traces_submitted, 0, "still batched");
        session.flush();
        session.flush(); // second flush is a no-op
        let stats = session.stats();
        assert_eq!(stats.traces_submitted, 3);
        assert_eq!(stats.batches_submitted, 1);
    }

    #[test]
    fn thread_exit_flushes_pending_batch() {
        let session = PmTestSession::builder().batch_capacity(64).workers(2).build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..10 {
                        record_clean_trace(&session);
                    }
                    // Batch (10 < 64) still staged here.
                });
            }
        });
        let report = session.finish();
        assert_eq!(report.traces().len(), 40, "no trace lost to thread exit");
        assert!(report.is_clean());
    }

    #[test]
    fn sink_only_thread_flushes_pending_batch_on_exit() {
        // A thread whose *first* session interaction is `record` through the
        // shared sink (the normal instrumented-pool path) gets its slot, and
        // its producer, from `SessionShared::record`; its staged batch must
        // reach the report like any other thread's.
        let session = PmTestSession::builder().batch_capacity(64).build();
        session.start();
        let handle = {
            let session = session.clone();
            std::thread::spawn(move || {
                let sink = session.sink();
                for _ in 0..10 {
                    // No thread_init: the sink record creates the slot.
                    sink.record(Event::Write(r(0, 8)).here());
                    sink.record(Event::Flush(r(0, 8)).here());
                    sink.record(Event::Fence.here());
                    session.is_persist(r(0, 8));
                    session.send_trace().expect("trace submitted");
                }
                // 10 < 64: everything is still in the pending batch here.
            })
        };
        handle.join().unwrap();
        let report = session.report();
        assert_eq!(report.traces().len(), 10, "the report shipped the staged batch");
        assert!(report.is_clean());
    }

    fn flush_cause_count(snap: &pmtest_obs::TelemetrySnapshot, cause: &str) -> u64 {
        snap.counters
            .iter()
            .filter(|c| {
                c.name == "session_flush_total"
                    && c.labels.iter().any(|(k, v)| k == "cause" && v == cause)
            })
            .map(|c| c.value)
            .sum()
    }

    #[test]
    fn flush_causes_and_batch_fill_are_recorded() {
        let session = PmTestSession::builder().batch_capacity(4).build();
        session.start();
        for _ in 0..9 {
            record_clean_trace(&session);
        }
        // 9 traces at capacity 4: two capacity flushes, one trace pending.
        let report = session.report(); // result-point flush ships the ninth
        assert_eq!(report.traces().len(), 9);
        let snap = session.telemetry_snapshot();
        assert_eq!(flush_cause_count(&snap, "capacity"), 2);
        assert_eq!(flush_cause_count(&snap, "result_point"), 1);
        let fill = snap.histogram("session_batch_fill").expect("registered");
        assert_eq!(fill.count, 3);
        assert_eq!(fill.sum, 9, "4 + 4 + 1 traces across the three batches");
    }

    #[test]
    fn thread_exit_flush_cause_is_attributed() {
        let session = PmTestSession::builder().batch_capacity(64).build();
        session.start();
        let handle = {
            let session = session.clone();
            std::thread::spawn(move || {
                session.thread_init();
                for _ in 0..5 {
                    record_clean_trace(&session);
                }
            })
        };
        handle.join().unwrap();
        assert_eq!(session.stats().traces_submitted, 0, "an exited thread ships nothing itself");
        let report = session.report();
        assert_eq!(report.traces().len(), 5);
        let snap = session.telemetry_snapshot();
        assert_eq!(flush_cause_count(&snap, "result_point"), 1, "the report shipped the batch");
        assert_eq!(flush_cause_count(&snap, "capacity"), 0);
    }

    #[test]
    fn batching_defaults_off() {
        let session = PmTestSession::builder().build();
        session.start();
        for _ in 0..3 {
            record_clean_trace(&session);
        }
        let stats = session.stats();
        assert_eq!(stats.batches_submitted, 3, "capacity 1 submits immediately");
        assert_eq!(stats.traces_submitted, 3);
    }

    #[test]
    fn batched_sessions_with_many_threads_keep_the_pool_warm() {
        // Stress shape: many producer threads shipping many batches each.
        // The per-producer pre-warm (queue_capacity + 1 arenas released at
        // slot creation) must hold the arena pool hit rate at steady-state
        // levels from the first batch — this was 0.79 cold at w4/b32.
        let session =
            PmTestSession::builder().workers(4).batch_capacity(16).queue_capacity(8).build();
        session.start();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let session = session.clone();
                    s.spawn(move || {
                        session.thread_init();
                        for _ in 0..100 {
                            record_clean_trace(&session);
                        }
                        session.flush();
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let report = session.finish();
        assert_eq!(report.traces().len(), 600, "no trace lost under stress");
        assert!(report.is_clean());
        let pool = session.pool_stats();
        assert!(
            pool.hit_rate() >= 0.9,
            "pre-warmed arena pool must serve >=90% of acquires: {pool:?}"
        );
    }

    #[test]
    fn buffers_recycle_between_traces() {
        let session = PmTestSession::builder().build();
        session.start();
        session.thread_init(); // this thread's slot pre-warms the pool
        let warm = session.pool_stats().released;
        for _ in 0..10 {
            record_clean_trace(&session);
        }
        // Barrier: every checked batch has returned its arena to the pool,
        // so the next round's acquires must be recycles.
        assert!(session.report().is_clean());
        for _ in 0..10 {
            record_clean_trace(&session);
        }
        assert!(session.report().is_clean());
        let pool = session.pool_stats();
        assert_eq!(
            pool.released - warm,
            20,
            "workers return every arena (one per trace at capacity 1)"
        );
        assert!(pool.recycled > 0, "later traces reuse returned arenas");
    }

    #[test]
    fn ship_spans_appear_in_the_chrome_trace() {
        let session = PmTestSession::builder()
            .batch_capacity(2)
            .telemetry(TelemetryConfig::at(crate::TelemetryLevel::Full))
            .build();
        session.start();
        for _ in 0..4 {
            record_clean_trace(&session);
        }
        assert!(session.report().is_clean());
        let json = session.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&json).expect("loadable trace");
        // Two capacity ships on the producer side plus claim/replay/merge
        // per batch on the worker side.
        assert!(stats.pairs >= 8, "expected ship + worker stage spans, got {stats:?}");
        for name in ["ship", "claim", "replay", "merge"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "span {name} missing");
        }
    }

    #[test]
    fn arena_tallies_fold_into_the_snapshot_at_ship_time() {
        let session = PmTestSession::builder().batch_capacity(8).build();
        session.start();
        // One trace longer than a pre-warmed arena holds, so it must grow.
        for _ in 0..100 {
            session.record(Event::Fence.here());
        }
        session.send_trace();
        for _ in 0..31 {
            record_clean_trace(&session);
        }
        assert!(session.report().is_clean());
        let snap = session.telemetry_snapshot();
        // Growing past the pre-warmed capacity reallocates at least once.
        assert!(snap.counter("engine_arena_slab_allocs").unwrap_or(0) >= 1);
        // Every recorded entry resolves its source location through some
        // intern tier; repeats within a batch hit the arena cache.
        let interns = snap.counter_sum("engine_intern_hits");
        assert!(interns >= 32, "expected intern tier hits, got {interns}");
        let arena_hits = snap
            .counters
            .iter()
            .filter(|c| {
                c.name == "engine_intern_hits"
                    && c.labels.iter().any(|(k, v)| k == "tier" && v == "arena")
            })
            .map(|c| c.value)
            .sum::<u64>();
        assert!(arena_hits > 0, "repeat sites must hit the arena-resident cache");
    }
}
