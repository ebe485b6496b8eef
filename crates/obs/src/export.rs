//! Exporters over [`TelemetrySnapshot`]: JSON-lines, Prometheus text
//! exposition, and a single-document JSON form for file dumps.

use std::fmt::Write as _;

use crate::json::{escape_into, number_into};
use crate::snapshot::{HistogramSnapshot, Labels, TelemetrySnapshot};

fn labels_json(out: &mut String, labels: &Labels) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(out, k);
        out.push(':');
        escape_into(out, v);
    }
    out.push('}');
}

fn histogram_json(out: &mut String, h: &HistogramSnapshot) {
    out.push_str("{\"type\":\"histogram\",\"name\":");
    escape_into(out, &h.name);
    out.push_str(",\"labels\":");
    labels_json(out, &h.labels);
    let _ = write!(out, ",\"count\":{},\"sum\":{},\"p50\":", h.count, h.sum);
    number_into(out, h.p50);
    out.push_str(",\"p90\":");
    number_into(out, h.p90);
    out.push_str(",\"p99\":");
    number_into(out, h.p99);
    // Buckets are (exclusive upper bound, per-bucket count) — NOT cumulative.
    out.push_str(",\"buckets\":[");
    for (i, &(ub, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{ub},{n}]");
    }
    out.push_str("]}");
}

/// Prometheus label rendering: `{k="v",…}`, empty string when unlabelled.
fn labels_prom(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn type_line(out: &mut String, seen: &mut Vec<String>, name: &str, kind: &str) {
    if !seen.iter().any(|s| s == name) {
        seen.push(name.to_owned());
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as JSON-lines: one self-contained JSON object
    /// per line, each carrying a `"type"` discriminator (`counter`, `gauge`,
    /// `histogram`). This is the machine-triage format — it diffs, greps,
    /// and streams.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            out.push_str("{\"type\":\"counter\",\"name\":");
            escape_into(&mut out, &c.name);
            out.push_str(",\"labels\":");
            labels_json(&mut out, &c.labels);
            let _ = writeln!(out, ",\"value\":{}}}", c.value);
        }
        for g in &self.gauges {
            out.push_str("{\"type\":\"gauge\",\"name\":");
            escape_into(&mut out, &g.name);
            out.push_str(",\"labels\":");
            labels_json(&mut out, &g.labels);
            out.push_str(",\"value\":");
            number_into(&mut out, g.value);
            out.push_str("}\n");
        }
        for h in &self.histograms {
            histogram_json(&mut out, h);
            out.push('\n');
        }
        out
    }

    /// Serializes the metrics in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` comments, `name{labels} value` samples,
    /// histograms as cumulative `_bucket{le=…}` series plus `_sum` and
    /// `_count`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen = Vec::new();
        for c in &self.counters {
            type_line(&mut out, &mut seen, &c.name, "counter");
            let _ = writeln!(out, "{}{} {}", c.name, labels_prom(&c.labels, None), c.value);
        }
        for g in &self.gauges {
            type_line(&mut out, &mut seen, &g.name, "gauge");
            let mut v = String::new();
            number_into(&mut v, g.value);
            let _ = writeln!(out, "{}{} {}", g.name, labels_prom(&g.labels, None), v);
        }
        for h in &self.histograms {
            type_line(&mut out, &mut seen, &h.name, "histogram");
            let mut cumulative = 0u64;
            for &(ub, n) in &h.buckets {
                cumulative += n;
                let le = ub.to_string();
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    labels_prom(&h.labels, Some(("le", &le))),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                labels_prom(&h.labels, Some(("le", "+Inf"))),
                h.count
            );
            let _ = writeln!(out, "{}_sum{} {}", h.name, labels_prom(&h.labels, None), h.sum);
            let _ = writeln!(out, "{}_count{} {}", h.name, labels_prom(&h.labels, None), h.count);
        }
        out
    }

    /// Serializes the whole snapshot as one JSON document, in the shape the
    /// benchmark reports under `bench_results/` use: a top-level object with
    /// a `"bench"` name plus the metric arrays. Used by
    /// [`writer::write_snapshot`](crate::writer::write_snapshot).
    #[must_use]
    pub fn to_json(&self, name: &str) -> String {
        let mut out = String::from("{\n  \"bench\": ");
        escape_into(&mut out, name);
        out.push_str(",\n  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str("    {\"name\":");
            escape_into(&mut out, &c.name);
            out.push_str(",\"labels\":");
            labels_json(&mut out, &c.labels);
            let _ = write!(out, ",\"value\":{}}}", c.value);
            out.push_str(if i + 1 == self.counters.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n  \"gauges\": [\n");
        for (i, g) in self.gauges.iter().enumerate() {
            out.push_str("    {\"name\":");
            escape_into(&mut out, &g.name);
            out.push_str(",\"labels\":");
            labels_json(&mut out, &g.labels);
            out.push_str(",\"value\":");
            number_into(&mut out, g.value);
            out.push('}');
            out.push_str(if i + 1 == self.gauges.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n  \"histograms\": [\n");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str("    ");
            histogram_json(&mut out, h);
            out.push_str(if i + 1 == self.histograms.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, JsonValue};
    use crate::MetricsRegistry;

    fn sample() -> TelemetrySnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("traces_checked", &[]).add(12);
        reg.gauge("queue_depth", &[("worker", "0")]).set(3);
        let h = reg.histogram("check_latency_ns", &[("checker", "is_persist")]);
        h.record(100);
        h.record(100_000);
        reg.snapshot()
    }

    #[test]
    fn json_lines_every_line_parses() {
        let snap = sample();
        let jsonl = snap.to_json_lines();
        let mut types = Vec::new();
        for line in jsonl.lines() {
            let v = parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
            types.push(v.get("type").unwrap().as_str().unwrap().to_owned());
        }
        assert_eq!(types, ["counter", "gauge", "histogram"]);
    }

    #[test]
    fn json_lines_histogram_carries_quantiles() {
        let jsonl = sample().to_json_lines();
        let line = jsonl.lines().find(|l| l.contains("histogram")).unwrap();
        let v = parse(line).unwrap();
        assert_eq!(v.get("count").unwrap().as_f64(), Some(2.0));
        assert!(v.get("p50").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("p99").unwrap().as_f64().unwrap() >= v.get("p50").unwrap().as_f64().unwrap());
        assert!(matches!(v.get("buckets"), Some(JsonValue::Array(b)) if b.len() == 2));
    }

    #[test]
    fn prometheus_format_is_well_formed() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE traces_checked counter"));
        assert!(prom.contains("traces_checked 12"));
        assert!(prom.contains("queue_depth{worker=\"0\"} 3"));
        assert!(prom.contains("check_latency_ns_bucket{checker=\"is_persist\",le=\"+Inf\"} 2"));
        assert!(prom.contains("check_latency_ns_count{checker=\"is_persist\"} 2"));
        // Every sample line is `name[{labels}] value` with a numeric value.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample: {line}");
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let prom = sample().to_prometheus();
        let counts: Vec<u64> = prom
            .lines()
            .filter(|l| l.starts_with("check_latency_ns_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert_eq!(counts, [1, 2, 2], "per-bucket 1,1 accumulates to 1,2 then +Inf=count");
    }

    #[test]
    fn single_document_json_parses() {
        let doc = sample().to_json("telemetry_demo");
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("telemetry_demo"));
        assert!(matches!(v.get("counters"), Some(JsonValue::Array(_))));
        assert!(matches!(v.get("histograms"), Some(JsonValue::Array(h)) if h.len() == 1));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let snap = TelemetrySnapshot::default();
        assert!(snap.to_json_lines().is_empty());
        assert!(snap.to_prometheus().is_empty());
        assert!(parse(&snap.to_json("empty")).is_ok());
    }
}
