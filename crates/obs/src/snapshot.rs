//! Immutable snapshot of a telemetry state, the unit every exporter
//! consumes.

/// Static metric labels, fixed at registration (`[("worker", "0")]`).
pub type Labels = Vec<(String, String)>;

/// One counter reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (`snake_case`, Prometheus-safe).
    pub name: String,
    /// Static labels.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: u64,
}

/// One gauge reading.
#[derive(Clone, Debug, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Static labels.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: f64,
}

/// One histogram reading, with quantiles precomputed from the log₂ buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Static labels.
    pub labels: Labels,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Occupied buckets as `(upper_bound, count)` — counts are per-bucket,
    /// not cumulative; bucket `(ub, n)` holds `n` values in `[ub/2, ub)`.
    pub buckets: Vec<(u64, u64)>,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    pub(crate) fn new(
        name: String,
        labels: Labels,
        count: u64,
        sum: u64,
        buckets: Vec<(u64, u64)>,
    ) -> Self {
        let mut snap = Self { name, labels, count, sum, buckets, p50: 0.0, p90: 0.0, p99: 0.0 };
        snap.p50 = snap.quantile(0.50);
        snap.p90 = snap.quantile(0.90);
        snap.p99 = snap.quantile(0.99);
        snap
    }

    /// Mean observation, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// inside the bucket where the cumulative count crosses `q * count`.
    /// Returns 0 for an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for &(ub, n) in &self.buckets {
            let next = seen + n;
            if next as f64 >= rank {
                let lo = (ub / 2) as f64;
                let frac = if n == 0 { 0.0 } else { (rank - seen as f64) / n as f64 };
                return lo + (ub as f64 - lo) * frac;
            }
            seen = next;
        }
        self.buckets.last().map_or(0.0, |&(ub, _)| ub as f64)
    }
}

/// Everything a telemetry source exposes at one instant: its metric
/// readings.
///
/// Produced by [`MetricsRegistry::snapshot`](crate::MetricsRegistry::snapshot)
/// and extended by pipeline stages with the `push_*` helpers; consumed by
/// [`to_json_lines`](Self::to_json_lines),
/// [`to_prometheus`](Self::to_prometheus), and
/// [`writer`](crate::writer).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Counter readings.
    pub counters: Vec<CounterSnapshot>,
    /// Gauge readings.
    pub gauges: Vec<GaugeSnapshot>,
    /// Histogram readings.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Appends a counter reading (for values that live outside a registry,
    /// e.g. pre-existing stats structs folded into the snapshot).
    pub fn push_counter(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.counters.push(CounterSnapshot { name: name.to_owned(), labels: own(labels), value });
    }

    /// Appends a gauge reading.
    pub fn push_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.gauges.push(GaugeSnapshot { name: name.to_owned(), labels: own(labels), value });
    }

    /// The first counter named `name` (any labels).
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Sum of every counter named `name` across label sets.
    #[must_use]
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.name == name).map(|c| c.value).sum()
    }

    /// The first gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The first histogram named `name` (any labels).
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The histogram named `name` carrying label `key=value`.
    #[must_use]
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels.iter().any(|(k, v)| k == key && v == value))
    }

    /// Merges another snapshot's readings into this one (used to combine
    /// sources, e.g. an engine registry plus a kernel FIFO).
    pub fn merge(&mut self, other: TelemetrySnapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.histograms.extend(other.histograms);
    }
}

fn own(labels: &[(&str, &str)]) -> Labels {
    labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut snap = TelemetrySnapshot::default();
        snap.push_counter("a_total", &[("worker", "0")], 3);
        snap.push_counter("a_total", &[("worker", "1")], 4);
        snap.push_gauge("util", &[], 0.5);
        assert_eq!(snap.counter("a_total"), Some(3));
        assert_eq!(snap.counter_sum("a_total"), 7);
        assert_eq!(snap.gauge("util"), Some(0.5));
        assert_eq!(snap.counter("missing"), None);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn merge_combines_sources() {
        let mut a = TelemetrySnapshot::default();
        a.push_counter("x", &[], 1);
        let mut b = TelemetrySnapshot::default();
        b.push_gauge("y", &[], 2.0);
        a.merge(b);
        assert_eq!(a.counter("x"), Some(1));
        assert_eq!(a.gauge("y"), Some(2.0));
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        // One bucket [512, 1024) holding everything: quantiles stay inside.
        let h = HistogramSnapshot::new("h".into(), Vec::new(), 100, 70_000, vec![(1024, 100)]);
        assert!(h.p50 >= 512.0 && h.p50 <= 1024.0);
        assert!(h.p99 >= h.p50);
        assert!((h.mean() - 700.0).abs() < 1e-9);
    }
}
