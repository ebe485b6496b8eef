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
use crate::telemetry::TelemetryConfig;

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
    /// producer's staged arena, so no sealed trace waits here.
    arena: TraceArena,
    /// This thread's producer on the engine's ingest plane; its staged
    /// traces are reachable from every result point and every idle worker.
    producer: Arc<Producer>,
    /// This thread's producer-side span buffer, present when the session's
    /// engine recorded spans (`TelemetryLevel::Full`) at slot creation;
    /// `ship` spans land here.
    span: Option<SpanHandle>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Thread exit drops the open, un-`send_trace`d tail; staged traces
        // stay with the producer for an idle worker or the next result point
        // to hand over.
        self.producer.retire();
    }
}

/// This thread's slot registry: the slots plus a one-entry position cache.
/// A cache hit skips even the linear scan on the per-event path; one struct
/// keeps the whole lookup to a single thread-local access and `RefCell`
/// borrow. A slot outlives its session: it is removed when this thread next
/// registers a slot, or when the thread exits.
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
                // A producer only this thread still holds belongs to a
                // dropped engine: free it, and the arenas it keeps, rather
                // than hold them until the thread exits.
                slots.list.retain(|slot| Arc::strong_count(&slot.producer) > 1);
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
/// ## Submission
///
/// Every `send_trace` ships its trace as soon as it completes (the paper's
/// behaviour, §4.5) through the thread's mailbox: the trace is appended to
/// the thread's staged arena, and the staged arena goes to the engine
/// whenever the mailbox is empty. While the workers keep pace each trace
/// goes over alone; while they are behind, traces collect and go over
/// together at the next handoff — one buffer trade for many traces, which
/// is what lets short-trace workloads scale (Fig. 12b) without a batch size
/// to tune. A worker with nothing else to do takes staged traces itself, and
/// every result point ([`report`](Self::report),
/// [`take_report`](Self::take_report), [`finish`](Self::finish),
/// [`flush`](Self::flush), …) first hands over every thread's staged traces,
/// whether that thread still runs or has exited, so results are identical
/// either way; only submission granularity changes.
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
    vars: Mutex<HashMap<String, ByteRange>>,
}

impl SessionShared {
    /// A new recording thread's slot: a producer registered with the
    /// engine and, at `TelemetryLevel::Full`, a span buffer.
    #[cold]
    fn new_slot(&self) -> Slot {
        Slot {
            session: self.id,
            arena: TraceArena::new(),
            producer: self.engine.register_producer(),
            span: self.producer_span(),
        }
    }

    /// Moves the traces just sealed in `arena` to `producer`'s staged arena
    /// and hands it over if the mailbox is empty (`Engine::stage`, the one
    /// stage path), all under the producer lock (publish invariant (a), see
    /// `Engine::publish_staged`). A dead engine drops the traces.
    fn stage(&self, producer: &Producer, arena: &mut TraceArena, span: Option<&SpanHandle>) {
        let incoming = arena.sealed_records();
        let _ = self.engine.stage(producer, incoming, |staged| staged.append_sealed(arena), span);
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
        PmTestSession {
            shared: Arc::new(SessionShared {
                id: NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed),
                enabled: AtomicBool::new(false),
                engine: Engine::new(self.config),
                next_trace: AtomicU64::new(0),
                vars: Mutex::new(HashMap::new()),
            }),
        }
    }
}

impl PmTestSession {
    /// Starts building a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder { config: EngineConfig::default() }
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
            arena: TraceArena::new(),
            producer: self.shared.engine.register_producer(),
            span: self.shared.producer_span(),
            shared: self.shared.clone(),
        }
    }

    /// Ships the calling thread's buffered entries to the checking engine as
    /// one independent trace (`PMTest_SEND_TRACE`). Empty buffers are
    /// skipped.
    ///
    /// The trace goes over at once when the thread's mailbox is empty;
    /// otherwise it waits in the thread's staged arena for the next handoff,
    /// an idle worker, or a result point (see the session-level docs).
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

    /// Hands every thread's staged traces to the engine now, without waiting
    /// for the checks (only, per thread, for its mailbox to empty). Every
    /// result point does this first.
    ///
    /// A no-op when nothing is staged. Entries still being recorded (not yet
    /// `send_trace`d) are *not* flushed.
    pub fn flush(&self) {
        self.shared.engine.publish_staged();
    }

    /// Blocks until all submitted traces are checked and returns the
    /// accumulated results (`PMTest_GET_RESULT`). Hands over every thread's
    /// staged traces first.
    #[must_use]
    pub fn report(&self) -> Report {
        self.shared.engine.report()
    }

    /// Like [`report`](Self::report) but drains the accumulated results.
    #[must_use]
    pub fn take_report(&self) -> Report {
        self.shared.engine.take_report()
    }

    /// Engine lifetime counters (traces checked, handoffs, largest handoff,
    /// backpressure stalls, …). Reads counters only: it neither hands
    /// anything over nor waits.
    #[must_use]
    pub fn stats(&self) -> crate::engine::EngineStats {
        self.shared.engine.stats()
    }

    /// How often this session's handoffs were recorded into the recycled
    /// buffers their mailboxes trade without growing them (see
    /// [`ReuseStats`](crate::ReuseStats)). A fresh producer's first
    /// handoffs grow its buffers, so the share rises toward 1 as a run goes
    /// on.
    #[must_use]
    pub fn pool_stats(&self) -> crate::engine::ReuseStats {
        self.shared.engine.reuse_stats()
    }

    /// Counter snapshot of the engine's verdict cache — `None` unless
    /// [`SessionBuilder::verdict_cache`] enabled it.
    #[must_use]
    pub fn verdict_cache_stats(&self) -> Option<crate::cache::VerdictCacheStats> {
        self.shared.engine.verdict_cache_stats()
    }

    /// Drains the diagnosis bundles captured on ERROR so far — see
    /// [`Engine::take_bundles`]. Hands over every thread's staged traces
    /// first so failures they contain are captured. Empty at
    /// [`crate::TelemetryLevel::Off`].
    #[must_use]
    pub fn take_bundles(&self) -> Vec<crate::DiagnosisBundle> {
        self.shared.engine.take_bundles()
    }

    /// A machine-readable snapshot of the engine's telemetry — see
    /// [`Engine::telemetry_snapshot`]. Includes the handoff metrics
    /// (`session_batch_fill`, traces per handoff, and
    /// `session_flush_total{cause=…}`, handoffs by caller).
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
    /// Waits for the engine, staged traces included, so every recorded
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
/// session: ids come from the same counter, traces ship through a producer
/// mailbox of the recorder's own by the same stage path, and results land
/// in the same [`Report`]. Entries recorded but never
/// [`send_trace`](Self::send_trace)d are discarded on drop, exactly like the
/// `Sink` path's thread slots.
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
/// assert!(session.take_report().is_clean());
/// ```
pub struct ThreadRecorder {
    shared: Arc<SessionShared>,
    /// The open trace.
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

    /// Seals the entries recorded since the last seal as one trace and
    /// ships it (`PMTest_SEND_TRACE`), like [`PmTestSession::send_trace`].
    /// Returns the trace id, or `None` when nothing was recorded.
    #[inline]
    pub fn send_trace(&mut self) -> Option<u64> {
        if self.arena.open_entries() == 0 {
            return None;
        }
        let trace_id = self.shared.next_trace.fetch_add(1, Ordering::Relaxed);
        self.arena.seal(trace_id);
        self.shared.stage(&self.producer, &mut self.arena, self.span.as_ref());
        Some(trace_id)
    }

    /// The session this recorder feeds.
    #[must_use]
    pub fn session(&self) -> PmTestSession {
        PmTestSession { shared: self.shared.clone() }
    }
}

impl Drop for ThreadRecorder {
    fn drop(&mut self) {
        // Sealed traces are already staged; the open tail was never
        // promised to the report.
        self.producer.retire();
    }
}

impl fmt::Debug for ThreadRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadRecorder")
            .field("session", &self.shared.id)
            .field("open_entries", &self.arena.open_entries())
            .finish()
    }
}

impl fmt::Debug for PmTestSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmTestSession")
            .field("id", &self.shared.id)
            .field("started", &self.is_started())
            .field("engine", &self.shared.engine)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Diag, DiagKind};
    use crate::model::{HopsModel, X86Model};
    use crate::shadow::ShadowMemory;
    use pmtest_trace::SourceLoc;
    use std::sync::atomic::AtomicUsize;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
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
    // Mailbox handoffs
    // --------------------------------------------------------------

    fn record_clean_trace(session: &PmTestSession) {
        session.record(Event::Write(r(0, 8)).here());
        session.record(Event::Flush(r(0, 8)).here());
        session.record(Event::Fence.here());
        session.is_persist(r(0, 8));
        session.send_trace().expect("trace submitted");
    }

    /// The range whose write holds a [`GatedX86`] worker at its gate.
    fn gate_range() -> ByteRange {
        r(1 << 40, (1 << 40) + 1)
    }

    /// Holds checking workers: each write to [`gate_range`] waits for a
    /// permit.
    #[derive(Debug, Default)]
    struct Gate {
        permits: AtomicUsize,
        entered: AtomicUsize,
    }

    impl Gate {
        /// Lets `n` more gate writes through.
        fn grant(&self, n: usize) {
            self.permits.fetch_add(n, Ordering::SeqCst);
        }

        /// Lets every gate write through from now on.
        fn open(&self) {
            self.permits.store(usize::MAX, Ordering::SeqCst);
        }

        /// Waits until `n` gate writes have reached the gate.
        fn wait_entered(&self, n: usize) {
            while self.entered.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        }
    }

    /// x86 rules through the object-safe path, holding the checking worker
    /// at every write to [`gate_range`] until its [`Gate`] grants a permit.
    #[derive(Debug)]
    struct GatedX86 {
        gate: Arc<Gate>,
        x86: X86Model,
    }

    impl PersistencyModel for GatedX86 {
        fn name(&self) -> &str {
            "x86"
        }

        fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>) {
            if entry.event == Event::Write(gate_range()) {
                self.gate.entered.fetch_add(1, Ordering::SeqCst);
                let take = |p: usize| p.checked_sub(1);
                while self
                    .gate
                    .permits
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, take)
                    .is_err()
                {
                    std::thread::yield_now();
                }
            }
            self.x86.apply(shadow, entry, diags);
        }

        fn check_persist(
            &self,
            shadow: &ShadowMemory,
            range: ByteRange,
            loc: SourceLoc,
            diags: &mut Vec<Diag>,
        ) {
            self.x86.check_persist(shadow, range, loc, diags);
        }

        fn check_ordered_before(
            &self,
            shadow: &ShadowMemory,
            first: ByteRange,
            second: ByteRange,
            loc: SourceLoc,
            diags: &mut Vec<Diag>,
        ) {
            self.x86.check_ordered_before(shadow, first, second, loc, diags);
        }
    }

    /// A started one-worker session checking through `gate`.
    fn gated_session(gate: &Arc<Gate>) -> PmTestSession {
        let model = GatedX86 { gate: gate.clone(), x86: X86Model::new() };
        let session = PmTestSession::builder().model(model).build();
        session.start();
        session
    }

    /// A gate write, then a clean trace.
    fn record_gated_trace(session: &PmTestSession) {
        session.record(Event::Write(gate_range()).here());
        record_clean_trace(session);
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

    /// A trace staged behind a full mailbox reaches the worker with no
    /// result point and no further submission: the worker, having checked
    /// the mailbox's trace, takes it from the idle producer's staged arena.
    #[test]
    fn no_trace_is_stranded_behind_a_full_mailbox() {
        let gate = Arc::new(Gate::default());
        let session = gated_session(&gate);
        record_gated_trace(&session); // A: handed over and taken
        gate.wait_entered(1); // the worker holds A at the gate
        record_gated_trace(&session); // B: into the empty mailbox
        record_gated_trace(&session); // C: staged behind B
        gate.open();
        // `stats` reads counters only: it hands nothing over and waits for
        // nothing, so only an idle take can bring C to the worker.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while session.stats().traces_checked < 3 {
            let stats = session.stats();
            assert!(std::time::Instant::now() < deadline, "a staged trace was stranded: {stats:?}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = session.telemetry_snapshot();
        assert_eq!(flush_cause_count(&snap, "send_trace"), 2, "A and B found the mailbox empty");
        assert_eq!(flush_cause_count(&snap, "idle_worker"), 1, "the worker took C");
        assert_eq!(flush_cause_count(&snap, "result_point"), 0);
        assert!(session.report().is_clean());
    }

    /// Every handoff is attributed to its caller — a submission that found
    /// the mailbox empty, a result point, or an idle worker — and records
    /// its fill in `session_batch_fill`.
    #[test]
    fn handoffs_are_attributed_to_their_caller() {
        let gate = Arc::new(Gate::default());
        let session = gated_session(&gate);
        record_gated_trace(&session); // A: taken, held at the gate
        gate.wait_entered(1);
        record_gated_trace(&session); // B: into the mailbox
        record_gated_trace(&session); // C and D: staged behind B
        record_gated_trace(&session);
        gate.grant(1); // A finishes; the worker takes B and holds again
        gate.wait_entered(2);
        session.flush(); // the mailbox is empty: C and D go over together
        gate.open();
        assert_eq!(session.report().traces().len(), 4);
        let snap = session.telemetry_snapshot();
        assert_eq!(flush_cause_count(&snap, "send_trace"), 2);
        assert_eq!(flush_cause_count(&snap, "result_point"), 1);
        assert_eq!(flush_cause_count(&snap, "idle_worker"), 0);
        let fill = snap.histogram("session_batch_fill").expect("registered");
        assert_eq!((fill.count, fill.sum), (3, 4), "1 + 1 + 2 traces over three handoffs");
        let stats = session.stats();
        assert_eq!((stats.batches_submitted, stats.traces_submitted), (3, 4));
        assert_eq!(stats.queue_highwater, 2, "the largest handoff");
    }

    /// Records kv-set-shaped trace `i` behind a gate write: log the old
    /// value, write the slot, commit, then check. Every seventh trace skips
    /// the slot's flush and fails its `isPersist`.
    fn record_kv_trace(session: &PmTestSession, i: u64) {
        let slot = r(4096 + 64 * (i % 97), 4096 + 64 * (i % 97) + 8);
        let (log, commit) = (r(0, 16), r(64, 72));
        session.record(Event::Write(gate_range()).here());
        for range in [log, slot, commit] {
            session.record(Event::Write(range).here());
            if range != slot || !i.is_multiple_of(7) {
                session.record(Event::Flush(range).here());
            }
            session.record(Event::Fence.here());
        }
        session.is_persist(slot);
        session.is_ordered_before(log, slot);
        session.send_trace().expect("trace submitted");
    }

    /// Traces that batch behind a held worker — past one record bound's
    /// worth, so the producer also waits on the bound — check to a report
    /// byte-identical to the same traces sent one at a time with a result
    /// point after each.
    #[test]
    fn multi_trace_handoffs_match_one_trace_at_a_time() {
        const TRACES: u64 = 2 * (crate::ingest::MAX_STAGED_RECORDS as u64 / 13) + 50;
        let gate = Arc::new(Gate::default());
        let session = gated_session(&gate);
        record_kv_trace(&session, 0);
        gate.wait_entered(1); // the worker holds trace 0
        std::thread::scope(|s| {
            // Opens the gate once the producer has filled its bound and
            // waits for a take.
            s.spawn(|| {
                while session.stats().backpressure_stalls == 0 {
                    std::thread::yield_now();
                }
                gate.open();
            });
            for i in 1..TRACES {
                record_kv_trace(&session, i);
            }
        });
        let batched = session.report();
        let stats = session.stats();
        assert!(stats.backpressure_stalls > 0);
        assert!(stats.mean_batch_size() > 1.0, "traces staged behind the held worker: {stats:?}");

        let open = Arc::new(Gate::default());
        open.open();
        let single = gated_session(&open);
        for i in 0..TRACES {
            record_kv_trace(&single, i);
            let _ = single.report();
        }
        let single = single.report();
        assert_eq!(batched.traces().len(), TRACES as usize);
        assert_eq!(batched.fail_count(), TRACES.div_ceil(7) as usize, "every seventh fails");
        assert_eq!(batched.to_string(), single.to_string());
        assert_eq!(batched, single);
    }

    #[test]
    fn thread_exit_loses_no_staged_trace() {
        let session = PmTestSession::builder().workers(2).build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..10 {
                        record_clean_trace(&session);
                    }
                    // Some traces may still be staged here.
                });
            }
        });
        let report = session.finish();
        assert_eq!(report.traces().len(), 40, "no trace lost to thread exit");
        assert!(report.is_clean());
    }

    #[test]
    fn sink_only_thread_loses_no_staged_trace_on_exit() {
        // A thread whose *first* session interaction is `record` through the
        // shared sink (the normal instrumented-pool path) gets its slot, and
        // its producer, from `SessionShared::record`; its staged traces must
        // reach the report like any other thread's.
        let session = PmTestSession::builder().build();
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
            })
        };
        handle.join().unwrap();
        let report = session.report();
        assert_eq!(report.traces().len(), 10, "every trace reached the report");
        assert!(report.is_clean());
    }

    #[test]
    fn handoff_counts_add_up_over_many_producer_threads() {
        // Stress shape: many producer threads handing over through
        // mailboxes that trade their arenas on every handoff and take.
        let session = PmTestSession::builder().workers(4).build();
        session.start();
        std::thread::scope(|s| {
            for _ in 0..6 {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..100 {
                        record_clean_trace(&session);
                    }
                    session.flush();
                });
            }
        });
        let report = session.finish();
        assert_eq!(report.traces().len(), 600, "no trace lost under stress");
        assert!(report.is_clean());
        let snap = session.telemetry_snapshot();
        let stats = session.stats();
        let causes: u64 = ["send_trace", "result_point", "idle_worker"]
            .iter()
            .map(|cause| flush_cause_count(&snap, cause))
            .sum();
        assert_eq!(causes, stats.batches_submitted, "every handoff has one caller");
        let fill = snap.histogram("session_batch_fill").expect("registered");
        assert_eq!((fill.count, fill.sum), (stats.batches_submitted, 600));
        assert_eq!(stats.steals + stats.affinity_hits, stats.batches_submitted);
    }

    #[test]
    fn a_dropped_sessions_slot_is_freed_at_the_next_registration() {
        let slots = || SLOTS.with(|s| s.borrow().list.len());
        let base = slots();
        for _ in 0..3 {
            let session = PmTestSession::builder().build();
            session.start();
            record_clean_trace(&session);
            assert!(session.report().is_clean());
            assert_eq!(slots(), base + 1, "one live slot per thread, stale ones freed");
        }
    }

    #[test]
    fn ship_spans_appear_in_the_chrome_trace() {
        let session = PmTestSession::builder()
            .telemetry(TelemetryConfig::at(crate::TelemetryLevel::Full))
            .build();
        session.start();
        for _ in 0..4 {
            record_clean_trace(&session);
        }
        assert!(session.report().is_clean());
        let json = session.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&json).expect("loadable trace");
        // One ship per send_trace on the producer side plus
        // claim/replay/merge per handoff on the worker side.
        let handoffs = session.stats().batches_submitted as usize;
        assert!(stats.pairs >= 4 + 3 * handoffs, "expected ship + worker spans, got {stats:?}");
        for name in ["ship", "claim", "replay", "merge"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "span {name} missing");
        }
    }

    #[test]
    fn arena_tallies_fold_into_the_snapshot_at_handoff() {
        let session = PmTestSession::builder().build();
        session.start();
        // A fresh producer's buffers start empty, so recording must grow them.
        for _ in 0..100 {
            session.record(Event::Fence.here());
        }
        session.send_trace();
        for _ in 0..31 {
            record_clean_trace(&session);
        }
        assert!(session.report().is_clean());
        let snap = session.telemetry_snapshot();
        // Growing a fresh buffer reallocates at least once.
        assert!(snap.counter("engine_arena_slab_allocs").unwrap_or(0) >= 1);
        // Every recorded entry resolves its source location through some
        // intern tier; repeats hit the recording arena's cache.
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
