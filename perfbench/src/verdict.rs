//! The part of a round shared by the session workloads: one timed pass over
//! an op stream, then `finish()` — the developer's wait for the verdict —
//! and the engine's counters, read through the session's public API.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pmtest_core::{PmTestSession, Report};

use crate::report::{percentile, ratio, Round};
use crate::spans::{Tracer, NONE};

/// The engine's poll interval for a producer blocked on a full ring. A
/// `send_trace` this slow slept through it: the worker's wake-up for the
/// freed slot came before the producer waited, and was lost.
const FULL_RING_POLL_NS: u64 = 1_000_000;

/// What one pass over an op stream produced.
pub struct Drive {
    /// First op start until last op end.
    pub window: (Instant, Instant),
    /// Ops issued.
    pub ops: u64,
    /// Latency of each op that writes PM (a traced op includes its
    /// `send_trace`).
    pub op_ns: Vec<u64>,
    /// Latency of each `send_trace` call.
    pub send_ns: Vec<u64>,
    /// `send_trace` calls that produced a trace.
    pub sent: u64,
    /// Ops that failed or read a wrong value.
    pub failed_ops: u64,
}

impl Drive {
    /// An empty pass starting now, sized for `ops` ops.
    #[must_use]
    pub fn new(ops: usize) -> Self {
        let now = Instant::now();
        Self {
            window: (now, now),
            ops: 0,
            op_ns: Vec::with_capacity(ops),
            send_ns: Vec::new(),
            sent: 0,
            failed_ops: 0,
        }
    }

    /// Closes op `span`, which started at `start`, at `end`; `writes` says
    /// whether the op wrote PM, and so counts towards the op latencies.
    pub fn op_done(
        &mut self,
        tr: &mut Tracer,
        span: usize,
        start: Instant,
        end: Instant,
        writes: bool,
    ) {
        tr.end(span, end);
        self.ops += 1;
        if writes {
            self.op_ns.push(end.duration_since(start).as_nanos() as u64);
        }
    }

    /// Calls `send_trace` as a child span of op `span`; returns its end.
    pub fn send(
        &mut self,
        tr: &mut Tracer,
        session: &PmTestSession,
        span: usize,
        op: u64,
    ) -> Instant {
        let t = Instant::now();
        self.sent += u64::from(session.send_trace().is_some());
        let end = Instant::now();
        tr.span("send_trace", span, op, t, end);
        self.send_ns.push(end.duration_since(t).as_nanos() as u64);
        end
    }

    /// Wall time of the pass.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.window.1.duration_since(self.window.0)
    }
}

/// Waits for the verdict (`finish()`, traced as `finish`) and assembles the
/// round: wall time from the first op until the report, the native twin,
/// the session and engine per-layer figures, and the gates every session
/// workload shares — no failed op, and exactly `traces` traces sent and
/// checked.
pub fn finish(
    session: &PmTestSession,
    d: Drive,
    native: &Drive,
    setup: Duration,
    traces: u64,
    tr: &mut Tracer,
) -> (Round, Report) {
    let ops = d.ops;
    let fin = tr.begin("finish", NONE, ops, d.window.1);
    let report = session.finish();
    let end = Instant::now();
    tr.end(fin, end);

    let stats = session.stats();
    let lost = stats.traces_submitted.saturating_sub(stats.traces_checked)
        + traces.abs_diff(stats.traces_checked);
    let native_ns = native.wall().as_nanos() as f64;
    let wall_ns = end.duration_since(d.window.0).as_nanos() as f64;
    let entries = stats.entries_processed as f64;
    let ktraces = stats.traces_checked as f64 / 1e3;
    let pmtest_ns = d.wall().as_nanos() as f64;
    let send_total: u64 = d.send_ns.iter().sum();
    let mut send_sorted = d.send_ns.clone();
    send_sorted.sort_unstable();
    let mut layer = BTreeMap::from([
        ("app.native_op_ns", native_ns / ops as f64),
        ("app.entries_per_op", entries / ops as f64),
        ("trace.record_ns_per_entry", ratio(pmtest_ns - send_total as f64 - native_ns, entries)),
        ("session.send_trace_ns.p50", percentile(&send_sorted, 0.50)),
        ("session.send_trace_ns.p99", percentile(&send_sorted, 0.99)),
        ("session.send_trace_share", send_total as f64 / wall_ns),
        (
            "session.send_trace_sleeps_per_ktrace",
            ratio(d.send_ns.iter().filter(|&&ns| ns >= FULL_RING_POLL_NS).count() as f64, ktraces),
        ),
        ("engine.traces_checked", stats.traces_checked as f64),
        ("engine.backpressure_stalls_per_ktrace", ratio(stats.backpressure_stalls as f64, ktraces)),
        ("engine.queue_highwater", stats.queue_highwater as f64),
        ("engine.parks_per_ktrace", ratio(stats.parks as f64, ktraces)),
        ("engine.wakes_per_ktrace", ratio(stats.wakes as f64, ktraces)),
        ("engine.arena_pool_hit_rate", session.pool_stats().hit_rate()),
        ("engine.traces_lost", lost as f64),
    ]);
    if let Some(c) = session.verdict_cache_stats() {
        let hits = (c.l1_hits + c.l2_hits) as f64;
        layer.extend([
            ("cache.lookups", hits + c.misses as f64),
            ("cache.hits", hits),
            ("cache.misses", c.misses as f64),
            ("cache.hit_rate", c.hit_rate()),
            ("cache.l1_share", ratio(c.l1_hits as f64, hits)),
            ("cache.evictions", c.evictions as f64),
            ("cache.bytes_resident", c.bytes_resident as f64),
        ]);
    }
    let mut round = Round {
        ops,
        failed: 0,
        violations: Vec::new(),
        setup,
        window: (d.window.0, end),
        native: native.wall(),
        result_wait: end.duration_since(d.window.1),
        op_ns: d.op_ns,
        layer,
    };
    round.fail(
        d.failed_ops + native.failed_ops,
        format!(
            "{} op(s) failed or read a wrong value ({} native)",
            d.failed_ops, native.failed_ops
        ),
    );
    round.fail(
        lost + d.sent.abs_diff(traces),
        format!("{} trace(s) sent, {} checked, {traces} expected", d.sent, stats.traces_checked),
    );
    (round, report)
}

/// Traces of `report` that carry any diagnostic.
#[must_use]
pub fn unclean_traces(report: &Report) -> u64 {
    report.traces().iter().filter(|t| !t.diags.is_empty()).count() as u64
}
