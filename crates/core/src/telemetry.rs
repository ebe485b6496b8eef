//! Engine telemetry: the typed metrics the checking pipeline exposes
//! through [`pmtest_obs`].
//!
//! The engine's counters are always on — each is one `Relaxed` atomic op on
//! an already-atomic-heavy path, which is why telemetry-off overhead is
//! within noise (see DESIGN.md §9 for the budget). Everything else is one
//! ordered [`TelemetryLevel`]: bundles on ERROR, then the site profile,
//! then timing histograms and span tracing.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pmtest_interval::{ByteRange, SegmentMap};
use pmtest_obs::advisor::AdvisorReport;
use pmtest_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, ProfileStore, SiteDelta, SpanSink,
    TelemetrySnapshot, DEFAULT_SPAN_CAPACITY,
};
use pmtest_trace::{ArenaStats, Entry, Event, TraceStats, TraceStatsBuilder};

use crate::checker::ReplayObserver;
use crate::diag::{Diag, DiagKind, Severity};
use crate::ingest::IngestCounters;
use crate::shadow::ShadowMemory;

/// How much the engine records beyond its always-on counters. The levels
/// are ordered, and each adds to the one below it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// Counters and the queue-depth gauge only: no clocks are read on the
    /// hot path and the span buffers are never allocated.
    #[default]
    Off,
    /// Adds a diagnosis bundle for every trace whose verdict carries a FAIL,
    /// built by re-checking that trace's packed records with a step
    /// recorder watching (see DESIGN.md §11). Passing traces cost what they
    /// cost at `Off`: the unobserved replay, or a verdict-cache hit.
    Bundles,
    /// Adds the cross-trace performance profile: per-`SourceLoc`
    /// flush/fence/log counts, wasted-persist bytes and WARN diagnostics,
    /// feeding the optimization advisor (see DESIGN.md §16). Every trace is
    /// observed by the packed replay, so none takes the verdict cache.
    Profile,
    /// Adds latency histograms (per-checker, per-trace, the five pipeline
    /// stages), worker busy time and utilization, per-worker
    /// [`TraceStats`], and per-thread ingest spans exportable as
    /// Perfetto-loadable Chrome trace-event JSON (see DESIGN.md §14). Costs
    /// two `Instant` reads per trace entry on the worker side.
    Full,
}

/// What the engine records beyond its always-on counters: one
/// [`TelemetryLevel`], plus an optional live scrape endpoint. The default is
/// [`TelemetryLevel::Off`] without an endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// What the engine records; see [`TelemetryLevel`].
    pub level: TelemetryLevel,
    /// When set (e.g. `"127.0.0.1:9184"`), the engine serves its live
    /// telemetry over HTTP from this address: `GET /metrics` (Prometheus
    /// text exposition) and `GET /snapshot.json`. Port `0` binds an
    /// OS-assigned port, readable from `Engine::scrape_addr`.
    pub scrape_addr: Option<String>,
}

impl TelemetryConfig {
    /// Counters only — the zero-cost default.
    #[must_use]
    pub const fn off() -> Self {
        Self::at(TelemetryLevel::Off)
    }

    /// Records at `level`, without a scrape endpoint — opt in with
    /// [`with_scrape`](Self::with_scrape).
    #[must_use]
    pub const fn at(level: TelemetryLevel) -> Self {
        Self { level, scrape_addr: None }
    }

    /// Serves live telemetry over HTTP from `addr` (see
    /// [`scrape_addr`](Self::scrape_addr)).
    #[must_use]
    pub fn with_scrape(mut self, addr: impl Into<String>) -> Self {
        self.scrape_addr = Some(addr.into());
        self
    }
}

/// A pipeline stage of the ingest plane, as decomposed by the
/// `engine_stage_ns{stage=…}` latency histograms: one trace's life is
/// staging (and any handoff) on the producer, the mailbox wait, take (or
/// steal) to replay start on the worker, the replay itself, and the report
/// merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Producer side, once per submission: staging its sealed traces and
    /// any handoff, including any backpressure wait.
    RecordPush,
    /// Handoff to worker take: time the traces sat in the mailbox (zero for
    /// an idle take).
    RingWait,
    /// Worker dequeue to first replay: shadow-state acquisition and batch
    /// unpacking.
    ClaimReplay,
    /// Replaying the batch through the checkers.
    Replay,
    /// Appending results to the report shard and settling the tallies.
    ReportMerge,
}

impl Stage {
    /// Every stage, in histogram registration order.
    pub const ALL: [Stage; 5] =
        [Stage::RecordPush, Stage::RingWait, Stage::ClaimReplay, Stage::Replay, Stage::ReportMerge];

    /// The `stage` label value of the stage's histogram.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Stage::RecordPush => "record_push",
            Stage::RingWait => "ring_wait",
            Stage::ClaimReplay => "claim_replay",
            Stage::Replay => "replay",
            Stage::ReportMerge => "report_merge",
        }
    }
}

/// Cost category a trace entry is attributed to in the per-checker
/// wall-time histograms (`engine_checker_ns{checker=…}`), so `isPersist`
/// cost is separable from `TX_CHECKER` maintenance and from replaying plain
/// PM operations against the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckerCategory {
    /// Plain PM operations replayed into the shadow memory
    /// (write/flush/fence, any flavour).
    ModelReplay,
    /// `isPersist` checkers.
    IsPersist,
    /// `isOrderedBefore` checkers.
    IsOrderedBefore,
    /// Transaction bookkeeping and the high-level checker
    /// (`TX_BEGIN`/`TX_END`/`TX_ADD`, `TX_CHECKER_START`/`END`).
    TxChecker,
    /// Scope control (exclude/include).
    Scope,
}

impl CheckerCategory {
    /// Every category, in histogram registration order.
    pub const ALL: [CheckerCategory; 5] = [
        CheckerCategory::ModelReplay,
        CheckerCategory::IsPersist,
        CheckerCategory::IsOrderedBefore,
        CheckerCategory::TxChecker,
        CheckerCategory::Scope,
    ];

    /// The category charged for processing `event`.
    #[must_use]
    pub fn of(event: &Event) -> Self {
        match event {
            Event::Write(_) | Event::Flush(_) | Event::Fence | Event::OFence | Event::DFence => {
                CheckerCategory::ModelReplay
            }
            Event::IsPersist(_) => CheckerCategory::IsPersist,
            Event::IsOrderedBefore(_, _) => CheckerCategory::IsOrderedBefore,
            Event::TxBegin
            | Event::TxEnd
            | Event::TxAdd(_)
            | Event::TxCheckerStart
            | Event::TxCheckerEnd => CheckerCategory::TxChecker,
            Event::Exclude(_) | Event::Include(_) => CheckerCategory::Scope,
        }
    }

    /// The `checker` label value of the category's histogram.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CheckerCategory::ModelReplay => "model_replay",
            CheckerCategory::IsPersist => "is_persist",
            CheckerCategory::IsOrderedBefore => "is_ordered_before",
            CheckerCategory::TxChecker => "tx_checker",
            CheckerCategory::Scope => "scope",
        }
    }
}

/// Which caller handed a producer's staged traces to the checking pipeline
/// (`session_flush_total{cause=…}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// A submission — `send_trace`, `ThreadRecorder::send_trace`,
    /// `Engine::submit`/`submit_batch` — found the producer's mailbox empty.
    SendTrace,
    /// A result point — `flush`, `report`, `take_report`, `finish`, … —
    /// handed over what was staged.
    ResultPoint,
    /// A worker that found every mailbox empty took a staged arena.
    IdleWorker,
}

impl FlushCause {
    /// Every cause, in counter registration order.
    pub const ALL: [FlushCause; 3] =
        [FlushCause::SendTrace, FlushCause::ResultPoint, FlushCause::IdleWorker];

    /// The `cause` label value.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FlushCause::SendTrace => "send_trace",
            FlushCause::ResultPoint => "result_point",
            FlushCause::IdleWorker => "idle_worker",
        }
    }
}

/// The engine's own monotonic tallies. Each is registered once in the
/// metrics registry, so [`EngineStats`](crate::EngineStats) and the
/// telemetry snapshot read the same handles.
pub(crate) struct EngineCounters {
    pub(crate) traces_checked: Counter,
    pub(crate) entries_processed: Counter,
    pub(crate) diagnostics: Counter,
    pub(crate) batches_submitted: Counter,
    pub(crate) traces_submitted: Counter,
}

/// The engine's typed metric handles, shared with its workers.
pub(crate) struct EngineTelemetry {
    registry: MetricsRegistry,
    pub(crate) counters: EngineCounters,
    /// The ingest plane's counters, registered here and handed to the plane.
    pub(crate) ingest: IngestCounters,
    /// What the engine records (checked by workers and dispatch).
    pub(crate) level: TelemetryLevel,
    started: Instant,
    /// Traces in the last handoff.
    queue_depth: Gauge,
    /// Whole-trace check latency, ns (`Full` only).
    pub(crate) check_latency: Histogram,
    /// Per-category entry-processing time, ns (`Full` only); indexed like
    /// [`CheckerCategory::ALL`].
    pub(crate) checker_ns: [Histogram; CheckerCategory::ALL.len()],
    /// Flat→BTree representation switches across the workers' recycled
    /// segment maps (always on — each worker folds its delta in once per
    /// batch).
    pub(crate) segmap_repr_switches: Counter,
    /// FAIL/WARN production per [`DiagKind`]; indexed like [`DiagKind::ALL`].
    diag_kinds: [Counter; DiagKind::ALL.len()],
    /// Busy nanoseconds per worker (`Full` only).
    pub(crate) worker_busy: Vec<Counter>,
    /// Aggregated [`TraceStats`] per worker (`Full` only).
    pub(crate) worker_stats: Vec<Mutex<TraceStats>>,
    /// Traces per handoff.
    batch_fill: Histogram,
    flush_causes: [Counter; FlushCause::ALL.len()],
    /// Per-stage pipeline latency, ns (`Full` only); indexed like
    /// [`Stage::ALL`]. Registered unconditionally so a snapshot always
    /// exposes all five stages (count 0 below `Full`).
    pub(crate) stages: [Histogram; Stage::ALL.len()],
    /// Cross-trace, site-keyed performance profile feeding the advisor
    /// (`Profile` and up; see DESIGN.md §16).
    pub(crate) profile: ProfileStore,
    /// Lock-free per-thread span buffers (`Full` only; see DESIGN.md §14).
    pub(crate) spans: Arc<SpanSink>,
    /// Pre-interned span names for the ingest pipeline's recording sites.
    pub(crate) span_names: SpanNames,
    /// Arena word-slab reallocations, folded in at batch-ship time.
    arena_slab_allocs: Counter,
    /// Shipped batches that carried at least one slab reallocation.
    pub(crate) arena_grown_batches: Counter,
    /// Location-intern tier hits (arena / TLS / global), folded in at
    /// batch-ship time.
    intern_tiers: [Counter; 3],
}

/// Span-name ids pre-interned at engine construction so recording threads
/// never touch the intern table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanNames {
    /// Producer: staging one submission and any handoff (includes
    /// backpressure).
    pub(crate) ship: u32,
    /// Worker: dequeue to replay start for one batch.
    pub(crate) claim: u32,
    /// Worker: replaying one batch.
    pub(crate) replay: u32,
    /// Worker: merging one batch's results into the report shard.
    pub(crate) merge: u32,
}

impl EngineTelemetry {
    pub(crate) fn new(workers: usize, config: &TelemetryConfig) -> Self {
        let registry = MetricsRegistry::new();
        let level = config.level;
        let spans = Arc::new(SpanSink::new(DEFAULT_SPAN_CAPACITY));
        spans.set_enabled(level == TelemetryLevel::Full);
        let span_names = SpanNames {
            ship: spans.intern("ship"),
            claim: spans.intern("claim"),
            replay: spans.intern("replay"),
            merge: spans.intern("merge"),
        };
        let stages =
            Stage::ALL.map(|s| registry.histogram("engine_stage_ns", &[("stage", s.label())]));
        let intern_tiers = ["arena", "tls", "global"]
            .map(|tier| registry.counter("engine_intern_hits", &[("tier", tier)]));
        let checker_ns = CheckerCategory::ALL
            .map(|c| registry.histogram("engine_checker_ns", &[("checker", c.label())]));
        let diag_kinds = DiagKind::ALL.map(|k| {
            registry.counter(
                "engine_diag_total",
                &[("code", k.code()), ("severity", k.severity().as_str())],
            )
        });
        let worker_busy = (0..workers)
            .map(|i| {
                let worker = i.to_string();
                registry.counter("engine_worker_busy_ns", &[("worker", &worker)])
            })
            .collect();
        let counter = |name: &str| registry.counter(name, &[]);
        let counters = EngineCounters {
            traces_checked: counter("engine_traces_checked"),
            entries_processed: counter("engine_entries_processed"),
            diagnostics: counter("engine_diagnostics"),
            batches_submitted: counter("engine_batches_submitted"),
            traces_submitted: counter("engine_traces_submitted"),
        };
        let ingest = IngestCounters {
            backpressure_stalls: counter("engine_backpressure_stalls"),
            steals: counter("engine_ring_steals"),
            affinity_hits: counter("engine_ring_affinity_hits"),
            rings_registered: counter("engine_rings_registered"),
            parks: counter("engine_parker_parks"),
            wakes: counter("engine_parker_wakes"),
            recruit_cas_fails: counter("engine_parker_recruit_cas_fails"),
        };
        Self {
            counters,
            ingest,
            level,
            started: Instant::now(),
            queue_depth: registry.gauge("engine_queue_depth", &[]),
            check_latency: registry.histogram("engine_check_latency_ns", &[]),
            checker_ns,
            segmap_repr_switches: registry.counter("engine_segmap_repr_switches", &[]),
            diag_kinds,
            worker_busy,
            worker_stats: (0..workers).map(|_| Mutex::new(TraceStats::default())).collect(),
            batch_fill: registry.histogram("session_batch_fill", &[]),
            flush_causes: FlushCause::ALL
                .map(|c| registry.counter("session_flush_total", &[("cause", c.label())])),
            stages,
            profile: ProfileStore::new(),
            spans,
            span_names,
            arena_slab_allocs: registry.counter("engine_arena_slab_allocs", &[]),
            arena_grown_batches: registry.counter("engine_arena_grown_batches", &[]),
            intern_tiers,
            registry,
        }
    }

    /// Whether every trace's replay is observed (profiled, and timed at
    /// `Full`): such traces skip the verdict cache.
    pub(crate) fn observes(&self) -> bool {
        self.level >= TelemetryLevel::Profile
    }

    /// Whether clocks are read: latency histograms, busy time, trace stats.
    pub(crate) fn timed(&self) -> bool {
        self.level == TelemetryLevel::Full
    }

    /// The latency histogram of one pipeline stage.
    pub(crate) fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Folds one shipped arena's allocator/intern tallies into the shared
    /// counters (called once per batch — cold by construction).
    pub(crate) fn note_arena_stats(&self, stats: ArenaStats) {
        if stats.slab_allocs > 0 {
            self.arena_slab_allocs.add(stats.slab_allocs);
            self.arena_grown_batches.inc();
        }
        let ArenaStats { interns, .. } = stats;
        if interns.arena_hits > 0 {
            self.intern_tiers[0].add(interns.arena_hits);
        }
        if interns.tls_hits > 0 {
            self.intern_tiers[1].add(interns.tls_hits);
        }
        if interns.global > 0 {
            self.intern_tiers[2].add(interns.global);
        }
    }

    /// The counter for one diagnostic kind.
    pub(crate) fn diag_counter(&self, kind: DiagKind) -> &Counter {
        let idx = DiagKind::ALL.iter().position(|k| *k == kind).expect("kind listed in ALL");
        &self.diag_kinds[idx]
    }

    /// Records one taken handoff of `traces` traces: its caller, its fill,
    /// and the handoff count.
    pub(crate) fn note_handoff(&self, cause: FlushCause, traces: u64) {
        self.batch_fill.record(traces);
        self.flush_causes[cause as usize].inc();
        self.counters.batches_submitted.inc();
        self.queue_depth.set(traces);
    }

    /// The per-category histogram charged for `event`.
    pub(crate) fn checker_histogram(&self, event: &Event) -> &Histogram {
        &self.checker_ns[CheckerCategory::of(event) as usize]
    }

    /// Registry metrics plus derived per-worker gauges.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.registry.snapshot();
        let uptime_ns = self.started.elapsed().as_nanos() as f64;
        for (i, busy) in self.worker_busy.iter().enumerate() {
            let worker = i.to_string();
            snap.push_gauge(
                "engine_worker_utilization",
                &[("worker", &worker)],
                busy.get() as f64 / uptime_ns.max(1.0),
            );
        }
        if self.timed() {
            for (i, stats) in self.worker_stats.iter().enumerate() {
                let stats = *stats.lock();
                let worker = i.to_string();
                let labels: &[(&str, &str)] = &[("worker", &worker)];
                snap.push_counter("engine_worker_entries", labels, stats.entries);
                snap.push_counter("engine_worker_writes", labels, stats.writes);
                snap.push_counter("engine_worker_fences", labels, stats.fences);
                snap.push_counter("engine_worker_ofences", labels, stats.ofences);
                snap.push_counter("engine_worker_dfences", labels, stats.dfences);
                snap.push_counter("engine_worker_epochs", labels, stats.epochs());
                snap.push_gauge(
                    "engine_worker_avg_writes_per_epoch",
                    labels,
                    stats.avg_writes_per_epoch(),
                );
                snap.push_gauge(
                    "engine_worker_max_writes_per_epoch",
                    labels,
                    stats.max_writes_per_epoch as f64,
                );
            }
        }
        snap.push_counter("engine_spans_dropped", &[], self.spans.dropped());
        if self.observes() {
            let profile = self.profile.snapshot();
            profile.fold_into(&mut snap);
            AdvisorReport::from_profile(&profile).fold_into(&mut snap);
        }
        snap
    }
}

/// The `Full` level's replay observer: charges each entry's wall time to
/// its [`CheckerCategory`] histogram and accumulates the trace's
/// [`TraceStats`] on the same walk.
pub(crate) struct EntryTimer<'a> {
    telemetry: &'a EngineTelemetry,
    started: Instant,
    last: Instant,
    stats: TraceStatsBuilder,
}

impl<'a> EntryTimer<'a> {
    /// Starts the clock on one trace.
    pub(crate) fn start(telemetry: &'a EngineTelemetry) -> Self {
        let started = Instant::now();
        Self { telemetry, started, last: started, stats: TraceStatsBuilder::default() }
    }

    /// Closes the trace: its whole-replay latency and its stats, folded
    /// into worker `worker`'s aggregate.
    pub(crate) fn finish(self, worker: usize) {
        self.telemetry.check_latency.record(self.started.elapsed().as_nanos() as u64);
        self.telemetry.worker_stats[worker].lock().merge(&self.stats.finish());
    }
}

impl ReplayObserver for EntryTimer<'_> {
    fn on_entry(&mut self, _: usize, entry: &Entry, _: &ShadowMemory) {
        let now = Instant::now();
        self.telemetry
            .checker_histogram(&entry.event)
            .record(now.duration_since(self.last).as_nanos() as u64);
        self.last = now;
        self.stats.push(&entry.event);
    }
}

/// One source site, as the profile store keys it: `(file, line)`.
type Site = (&'static str, u32);

/// The `Profile` level's replay observer: re-detects the wasteful
/// persistency patterns — duplicate and unnecessary flushes, duplicate
/// undo-log appends, fences ordering no new work — per source site,
/// dialect-independently (under HOPS the checkers demote flush/fence to
/// `ForeignOperation`, but the profile still sees them). Each worker keeps
/// one, so its buffers outlive the trace, and [`flush`](Self::flush)es the
/// traces of a whole batch into the profile store under one lock.
#[derive(Default)]
pub(crate) struct SiteProfiler {
    /// Per-site deltas of the observed trace, in first-touch order.
    sites: Vec<(Site, SiteDelta)>,
    // Shadow sets mirroring the checker's redundancy view: what has been
    // written (and not yet re-dirtied), what is clean-flushed, and what the
    // open transaction has already logged.
    written: SegmentMap<()>,
    flushed: SegmentMap<()>,
    logged: SegmentMap<()>,
    work_since_fence: bool,
    /// Traces ended since the last flush, with their summed per-site
    /// deltas and their WARN attributions.
    batch_traces: u64,
    batch_ops: Vec<(Site, SiteDelta)>,
    batch_warns: Vec<(Site, &'static str)>,
}

/// The delta of `site`, added on first touch. A linear scan: a trace
/// touches a handful of sites, and the line compare rejects most.
fn site_delta(sites: &mut Vec<(Site, SiteDelta)>, (file, line): Site) -> &mut SiteDelta {
    let at = match sites.iter().position(|((f, l), _)| *l == line && *f == file) {
        Some(at) => at,
        None => {
            sites.push(((file, line), SiteDelta::default()));
            sites.len() - 1
        }
    };
    &mut sites[at].1
}

/// Bytes of `r` that `map`'s (disjoint) segments cover.
fn covered_bytes(map: &SegmentMap<()>, r: ByteRange) -> u64 {
    map.overlapping(r).map(|(seg, _)| seg.intersection(&r).map_or(0, |o| o.len())).sum()
}

impl SiteProfiler {
    /// Ends the observed trace: its per-site deltas and the WARN
    /// attributions of `diags` join the batch, and the per-trace state
    /// resets.
    pub(crate) fn end_trace(&mut self, diags: &[Diag]) {
        self.batch_traces += 1;
        for (site, delta) in self.sites.drain(..) {
            site_delta(&mut self.batch_ops, site).merge(&delta);
        }
        self.batch_warns.extend(
            diags
                .iter()
                .filter(|d| d.severity() == Severity::Warn)
                .map(|d| ((d.loc.file(), d.loc.line()), d.kind.code())),
        );
        self.written.clear();
        self.flushed.clear();
        self.logged.clear();
        self.work_since_fence = false;
    }

    /// Folds the batch into `store`, under one lock for all its traces.
    pub(crate) fn flush(&mut self, store: &ProfileStore) {
        if self.batch_traces > 0 {
            store.record_traces(self.batch_traces, &self.batch_ops, &self.batch_warns);
            self.batch_traces = 0;
            self.batch_ops.clear();
            self.batch_warns.clear();
        }
    }
}

impl ReplayObserver for SiteProfiler {
    fn on_entry(&mut self, _: usize, entry: &Entry, _: &ShadowMemory) {
        match entry.event {
            Event::Write(r) => {
                site_delta(&mut self.sites, (entry.loc.file(), entry.loc.line())).writes += 1;
                self.written.insert(r, ());
                // A rewrite re-dirties the line: a later flush is useful again.
                self.flushed.remove(r);
                self.work_since_fence = true;
            }
            Event::Flush(r) => {
                let delta = site_delta(&mut self.sites, (entry.loc.file(), entry.loc.line()));
                delta.flushes += 1;
                let dup = covered_bytes(&self.flushed, r);
                if dup > 0 {
                    delta.dup_flushes += 1;
                    delta.dup_flush_bytes += dup;
                }
                let unwritten = r.len() - covered_bytes(&self.written, r);
                if unwritten > 0 {
                    delta.unnecessary_flushes += 1;
                    delta.unnecessary_flush_bytes += unwritten;
                }
                self.flushed.insert(r, ());
                self.work_since_fence = true;
            }
            Event::Fence | Event::OFence | Event::DFence => {
                let delta = site_delta(&mut self.sites, (entry.loc.file(), entry.loc.line()));
                delta.fences += 1;
                if !self.work_since_fence {
                    delta.redundant_fences += 1;
                }
                self.work_since_fence = false;
            }
            Event::TxAdd(r) => {
                let delta = site_delta(&mut self.sites, (entry.loc.file(), entry.loc.line()));
                delta.logs += 1;
                let dup = covered_bytes(&self.logged, r);
                if dup > 0 {
                    delta.dup_logs += 1;
                    delta.dup_log_bytes += dup;
                }
                self.logged.insert(r, ());
                self.work_since_fence = true;
            }
            Event::TxBegin | Event::TxEnd => self.logged.clear(),
            Event::IsPersist(_)
            | Event::IsOrderedBefore(_, _)
            | Event::TxCheckerStart
            | Event::TxCheckerEnd
            | Event::Exclude(_)
            | Event::Include(_) => {}
        }
    }
}

/// A one-line human summary of an engine snapshot — traces checked, check
/// latency p50/p99, queue high-water, diagnostics — for examples and
/// harnesses to dogfood the telemetry API without formatting it themselves.
///
/// When the capped span buffers lost anything (overwritten spans), a second
/// WARNING line is appended — silent data loss in the observability layer
/// is how regressions hide.
#[must_use]
pub fn summary_line(snap: &TelemetrySnapshot) -> String {
    let traces = snap.counter("engine_traces_checked").unwrap_or(0);
    let highwater = snap.counter("engine_queue_highwater").unwrap_or(0);
    let sev_total = |sev: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| {
                c.name == "engine_diag_total"
                    && c.labels.iter().any(|(k, v)| k == "severity" && v == sev)
            })
            .map(|c| c.value)
            .sum()
    };
    let latency = match snap.histogram("engine_check_latency_ns") {
        Some(h) if h.count > 0 => {
            format!("check p50 {:.1}µs / p99 {:.1}µs", h.p50 / 1_000.0, h.p99 / 1_000.0)
        }
        _ => "check latency n/a (timing off)".to_owned(),
    };
    let mut line = format!(
        "telemetry: {traces} traces checked, {latency}, queue high-water {highwater}, \
         {} FAIL / {} WARN",
        sev_total("FAIL"),
        sev_total("WARN"),
    );
    let profiled = snap.counter_sum("profile_traces_profiled");
    if profiled > 0 {
        line.push_str(&format!(
            "\nadvisor: {profiled} traces profiled across {} sites — {} suggestion(s), \
             {} wasted persist bytes, {} redundant fence(s)",
            snap.gauge("profile_sites_tracked").unwrap_or(0.0) as u64,
            snap.counter_sum("advisor_suggestions"),
            snap.counter_sum("profile_wasted_persist_bytes"),
            snap.counter_sum("profile_redundant_fences"),
        ));
    }
    // Presence of the miss counter marks a cache-enabled engine (all-zero
    // counters on an idle cached engine still print, deliberately).
    if snap.counter("verdict_cache_misses").is_some() {
        let l1 = snap.counter_sum("verdict_cache_l1_hits");
        let l2 = snap.counter_sum("verdict_cache_l2_hits");
        line.push_str(&format!(
            "\nverdict cache: {:.1}% hit rate ({l1} L1 / {l2} L2), {} miss(es), \
             {} bypassed, {} eviction(s), {} bytes resident",
            snap.gauge("verdict_cache_hit_rate").unwrap_or(0.0) * 100.0,
            snap.counter_sum("verdict_cache_misses"),
            snap.counter_sum("verdict_cache_bypasses"),
            snap.counter_sum("verdict_cache_evictions"),
            snap.gauge("verdict_cache_bytes_resident").unwrap_or(0.0) as u64,
        ));
    }
    let spans_dropped = snap.counter_sum("engine_spans_dropped");
    if spans_dropped > 0 {
        line.push_str(&format!(
            "\nWARNING: span buffers overflowed — {spans_dropped} span(s) dropped; \
             export the trace more often"
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_interval::ByteRange;

    #[test]
    fn every_event_maps_to_a_category() {
        let r = ByteRange::with_len(0, 8);
        assert_eq!(CheckerCategory::of(&Event::Write(r)), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::Flush(r)), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::Fence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::OFence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::DFence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::IsPersist(r)), CheckerCategory::IsPersist);
        assert_eq!(
            CheckerCategory::of(&Event::IsOrderedBefore(r, r)),
            CheckerCategory::IsOrderedBefore
        );
        assert_eq!(CheckerCategory::of(&Event::TxBegin), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::TxAdd(r)), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::TxCheckerEnd), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::Exclude(r)), CheckerCategory::Scope);
        // Labels are distinct (they key the histogram label set).
        let mut labels: Vec<_> = CheckerCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CheckerCategory::ALL.len());
    }

    #[test]
    fn diag_counters_cover_every_kind() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        for kind in DiagKind::ALL {
            tel.diag_counter(kind).inc();
        }
        let snap = tel.snapshot();
        let total: u64 = snap.counter_sum("engine_diag_total");
        assert_eq!(total, DiagKind::ALL.len() as u64);
    }

    #[test]
    fn summary_line_reports_timing_state() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let s = summary_line(&tel.snapshot());
        assert!(s.contains("timing off"), "{s}");
        let tel = EngineTelemetry::new(1, &TelemetryConfig::at(TelemetryLevel::Full));
        tel.check_latency.record(1_500);
        tel.counters.traces_checked.inc();
        let s = summary_line(&tel.snapshot());
        assert!(s.contains("1 traces checked"), "{s}");
        assert!(s.contains("p50"), "{s}");
        assert!(!s.contains("WARNING"), "no drops, no warning: {s}");
    }

    #[test]
    fn summary_line_warns_on_ring_drops() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let mut snap = tel.snapshot();
        // Simulate overflowed span buffers.
        snap.push_counter("engine_spans_dropped", &[], 5);
        let s = summary_line(&snap);
        assert!(s.contains("WARNING"), "{s}");
        assert!(s.contains("5 span(s)"), "{s}");
    }

    #[test]
    fn all_five_stage_histograms_register_even_when_off() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let snap = tel.snapshot();
        for stage in Stage::ALL {
            let h = snap
                .histogram_with("engine_stage_ns", "stage", stage.label())
                .unwrap_or_else(|| panic!("stage {} must be registered", stage.label()));
            assert_eq!(h.count, 0, "timing off records nothing");
        }
        // Labels are distinct (they key the histogram label set).
        let mut labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::ALL.len());
    }

    #[test]
    fn arena_stats_fold_into_tiered_counters() {
        use pmtest_trace::InternStats;
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        tel.note_arena_stats(ArenaStats {
            slab_allocs: 2,
            interns: InternStats { arena_hits: 100, tls_hits: 7, global: 1 },
        });
        tel.note_arena_stats(ArenaStats {
            slab_allocs: 0,
            interns: InternStats { arena_hits: 50, tls_hits: 0, global: 0 },
        });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine_arena_slab_allocs"), Some(2));
        assert_eq!(snap.counter("engine_arena_grown_batches"), Some(1));
        assert_eq!(snap.counter_sum("engine_intern_hits"), 158);
    }

    #[test]
    fn only_the_full_level_records_spans() {
        for level in [TelemetryLevel::Off, TelemetryLevel::Bundles, TelemetryLevel::Profile] {
            let tel = EngineTelemetry::new(1, &TelemetryConfig::at(level));
            assert!(!tel.spans.is_enabled(), "{level:?} records no spans");
        }
        let tel = EngineTelemetry::new(1, &TelemetryConfig::at(TelemetryLevel::Full));
        assert!(tel.spans.is_enabled());
        let h = tel.spans.register(0);
        h.record(tel.span_names.replay, 10, 5);
        let dump = tel.spans.snapshot();
        assert_eq!(dump.records.len(), 1);
        assert_eq!(dump.records[0].name, "replay");
    }
}
