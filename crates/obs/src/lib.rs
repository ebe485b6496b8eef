//! Telemetry core for the PMTest reproduction.
//!
//! The checking engine of the paper (§6) is a pipeline — sessions batch
//! traces, a master dispatches them to workers, workers replay checkers —
//! and every stage of that pipeline needs the same three observability
//! primitives:
//!
//! * a [`MetricsRegistry`] of named [`Counter`]s, [`Gauge`]s, and log-scale
//!   latency [`Histogram`]s, all plain `Relaxed` atomics so an instrumented
//!   hot path costs one uncontended atomic op per update;
//! * exporters over an immutable [`TelemetrySnapshot`]: JSON-lines
//!   ([`TelemetrySnapshot::to_json_lines`]) for machine triage and
//!   Prometheus text exposition ([`TelemetrySnapshot::to_prometheus`]) for
//!   scraping, plus a [`writer`] that drops snapshots into `bench_results/`
//!   next to the benchmark reports;
//! * lock-free per-thread span buffers ([`SpanSink`]) for continuous
//!   profiling, exported as Perfetto-loadable Chrome trace-event JSON
//!   ([`trace_event`]) and self-validated by the same module;
//! * a cross-trace, site-keyed performance [`ProfileStore`] ([`profile`])
//!   plus the [`advisor`] that ranks its snapshot into source-located
//!   flush-coalescing / log-elision / redundant-fence suggestions, emitted
//!   as deterministic `ADVISOR_*.json` documents;
//! * a std-only blocking HTTP scrape endpoint ([`ScrapeServer`]) serving
//!   the Prometheus exposition and the JSON snapshot of a live engine — the
//!   first building block of the `pmtestd` daemon.
//!
//! Like the offline shims under `crates/shims/`, this crate vendors exactly
//! the API surface the workspace needs — no external dependencies, std only
//! — including a minimal JSON reader ([`json`]) used by the `obs-check`
//! self-check binary to validate emitted snapshots without serde.
//!
//! # Examples
//!
//! ```
//! use pmtest_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let traces = registry.counter("traces_checked", &[]);
//! let latency = registry.histogram("check_latency_ns", &[("worker", "0")]);
//! traces.inc();
//! latency.record(1_500);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("traces_checked"), Some(1));
//! assert!(snap.to_prometheus().contains("traces_checked 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod advisor;
pub mod bundle;
mod export;
pub mod json;
mod metrics;
pub mod profile;
mod scrape;
mod snapshot;
mod spans;
pub mod trace_event;
pub mod writer;

pub use advisor::{AdvisorReport, Suggestion, SuggestionKind};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use profile::{ProfileSnapshot, ProfileStore, SiteDelta, SiteProfile};
pub use scrape::{ScrapeServer, SnapshotSource};
pub use snapshot::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, TelemetrySnapshot};
pub use spans::{SpanDump, SpanHandle, SpanRecord, SpanSink, DEFAULT_SPAN_CAPACITY};
