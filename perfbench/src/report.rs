//! What one measured round yields, and how rounds become the reported
//! metrics: per-round figures, then the median over rounds.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The end-to-end metrics, in output order, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("verdict_ops_per_s", "1/s"),
    ("slowdown", "x"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("result_wait_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, in output order, with their units. Every
/// workload reports every one; a layer the workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("app.native_op_ns", "ns"),
    ("app.entries_per_op", "count"),
    ("trace.record_ns_per_entry", "ns"),
    ("session.send_trace_ns.p50", "ns"),
    ("session.send_trace_ns.p99", "ns"),
    ("session.send_trace_share", "ratio"),
    ("session.send_trace_sleeps_per_ktrace", "1/ktrace"),
    ("engine.traces_checked", "count"),
    ("engine.backpressure_stalls_per_ktrace", "1/ktrace"),
    ("engine.queue_highwater", "count"),
    ("engine.parks_per_ktrace", "1/ktrace"),
    ("engine.wakes_per_ktrace", "1/ktrace"),
    ("engine.arena_pool_hit_rate", "ratio"),
    ("engine.traces_lost", "count"),
    ("checker.ns_per_entry", "ns"),
    ("checker.ns_per_trace", "ns"),
    ("checker.diags_per_trace", "count"),
    ("cache.lookups", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.l1_share", "ratio"),
    ("cache.evictions", "count"),
    ("cache.bytes_resident", "bytes"),
    ("explore.points", "count"),
    ("explore.images", "count"),
    ("explore.recovery_ns_per_image", "ns"),
    ("explore.enumerate_ns_per_point", "ns"),
    ("explore.images_per_point", "count"),
    ("explore.prefix_share_hit_rate", "ratio"),
    ("span.op.self_ms", "ms"),
    ("span.send_trace.self_ms", "ms"),
    ("span.finish.self_ms", "ms"),
    ("span.check_trace.self_ms", "ms"),
    ("span.sweep.self_ms", "ms"),
    ("span.recover.self_ms", "ms"),
    ("span.check.self_ms", "ms"),
    ("tracing.wall_ms", "ms"),
    ("tracing.covered_share", "ratio"),
    ("tracing.unattributed_share", "ratio"),
    ("tracing.overhead_ms", "ms"),
    ("tracing.overhead_share", "ratio"),
];

/// One run of the workload under the tool, plus its native twin.
#[derive(Debug)]
pub struct Round {
    /// Units of work brought to a verdict: client ops, or crash points.
    pub ops: u64,
    /// Failed ops, lost traces and unexpected verdicts.
    pub failed: u64,
    /// Human-readable correctness-gate violations (empty when correct).
    pub violations: Vec<String>,
    /// Session build, substrate create or format, crash recording.
    pub setup: Duration,
    /// The producer's blocking window: first op until the verdict.
    pub window: (Instant, Instant),
    /// The identical op stream without the tool.
    pub native: Duration,
    /// The final `PMTest_GET_RESULT` wait.
    pub result_wait: Duration,
    /// Latency of each op, in ns.
    pub op_ns: Vec<u64>,
    /// Per-layer figures of this round, by `PER_LAYER` name.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Round {
    /// Counts `count` failures against the round, described by `what`.
    pub fn fail(&mut self, count: u64, what: String) {
        if count > 0 {
            self.failed += count;
            self.violations.push(what);
        }
    }

    /// Wall time of the blocking window.
    #[must_use]
    pub fn wall(&self) -> Duration {
        self.window.1.saturating_duration_since(self.window.0)
    }
}

/// The end-to-end figures of a run's untraced rounds, all but
/// `peak_rss_mib`.
///
/// Each timing is that of the run's best round: the host has slow spells
/// that last seconds and cover a different share of every run, and over
/// five 20-s `kv-ycsb` runs the median round's wall time spread
/// (interquartile range over median) 0.19 across runs, the best round's
/// 0.05. Set-up time, which a later change must not grow, is the median of
/// the run's set-ups.
///
/// With `pool_ops`, the op latency percentiles are instead taken over every
/// op of the run. Ops that wait on the checking worker spread widely within
/// each round, and the best round's percentiles scatter (op p50 spread up
/// to 0.32 over five `kv-ycsb` runs, pooled 0.06); single-threaded ops, such
/// as an `explore-queue` crash point, move together with the slow spells
/// (pooled p50 spread 0.21, best round's 0.05).
#[must_use]
pub fn end_to_end(rounds: &[Round], pool_ops: bool) -> BTreeMap<&'static str, f64> {
    let best = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::INFINITY, f64::min);
    let wall = best(&|r| r.wall().as_secs_f64());
    let ops_per_s = rounds.iter().map(|r| r.ops as f64 / r.wall().as_secs_f64());
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let op_percentile = |q: f64| {
        if pool_ops {
            let mut all: Vec<u64> = rounds.iter().flat_map(|r| r.op_ns.iter().copied()).collect();
            all.sort_unstable();
            percentile(&all, q)
        } else {
            best(&|r| {
                let mut ns = r.op_ns.clone();
                ns.sort_unstable();
                percentile(&ns, q)
            })
        }
    };
    BTreeMap::from([
        ("verdict_ops_per_s", ops_per_s.fold(0.0, f64::max)),
        ("slowdown", wall / best(&|r| r.native.as_secs_f64())),
        ("op_p50_us", op_percentile(0.50) / 1e3),
        ("op_p99_us", op_percentile(0.99) / 1e3),
        ("result_wait_ms", best(&|r| r.result_wait.as_secs_f64()) * 1e3),
        ("setup_s", median(&mut setups)),
    ])
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Median of the values (0 when empty).
#[must_use]
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Per-name median over rounds of per-round figures.
#[must_use]
pub fn medians(rounds: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (name, value) in round {
            by_name.entry(name).or_default().push(*value);
        }
    }
    by_name.into_iter().map(|(name, mut v)| (name, median(&mut v))).collect()
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line: `correct`, `attempted`, `failed`, and the
/// named metrics with their units.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn end_to_end_takes_best_round_and_median_setup() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let round = |wall: u64, native: u64, wait: u64, setup: u64, op_ns: Vec<u64>| Round {
            ops: 100,
            failed: 0,
            violations: Vec::new(),
            setup: ms(setup),
            window: (t0, t0 + ms(wall)),
            native: ms(native),
            result_wait: ms(wait),
            op_ns,
            layer: BTreeMap::new(),
        };
        let rounds = [
            round(200, 40, 9, 1, vec![1_000, 3_000]),
            round(100, 50, 5, 3, vec![2_000]),
            round(400, 20, 7, 2, vec![4_000]),
        ];
        let m = end_to_end(&rounds, true);
        assert_eq!(m["verdict_ops_per_s"], 1_000.0);
        assert_eq!(m["slowdown"], 5.0);
        assert_eq!(m["result_wait_ms"], 5.0);
        assert_eq!(m["setup_s"], 0.002);
        assert_eq!((m["op_p50_us"], m["op_p99_us"]), (2.0, 4.0));
        let m = end_to_end(&rounds, false);
        assert_eq!((m["op_p50_us"], m["op_p99_us"]), (1.0, 2.0));
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(true, 3, 0, &[("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
