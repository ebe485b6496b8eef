//! Cross-trace performance-profile store: per-site persistency-efficiency
//! counters aggregated over every trace an engine checks.
//!
//! The paper's WARN-level checkers (§5.1.2) find *per-trace* performance
//! bugs — a duplicate `clwb`, an object logged twice — but each diagnostic
//! dies with its trace. The [`ProfileStore`] keeps the cross-trace view: for
//! every source site (an interned `file:line` pair) it accumulates plain
//! operation counts (writes, flushes, fences, undo-log appends), the
//! wasteful patterns the replay walk detects (duplicate and unnecessary
//! writebacks, duplicate log appends, fences that ordered no new persistent
//! work), and every WARN-severity diagnostic the checkers produced at that
//! site. The [`advisor`](crate::advisor) module ranks this store into
//! source-located optimization suggestions.
//!
//! The store is engine-side state fed at the `Profile` telemetry level and
//! above: workers fold one small per-batch tally into the shared map under
//! a mutex — far off the per-entry hot path. Below that level nothing feeds
//! it. Aggregation is keyed by site, so the result is independent of worker
//! count, batch size, and shard merge order.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::TelemetrySnapshot;

/// Per-site operation and waste tallies for one trace (the unit workers
/// fold into the store) and, summed, for the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteDelta {
    /// PM writes issued from this site.
    pub writes: u64,
    /// Writebacks (`clwb`-class flushes) issued from this site.
    pub flushes: u64,
    /// Ordering points (`sfence`/`ofence`/`dfence`) issued from this site.
    pub fences: u64,
    /// Undo-log appends (`TX_ADD`) issued from this site.
    pub logs: u64,
    /// Flushes that wrote back data already flushed (and not re-written).
    pub dup_flushes: u64,
    /// Bytes re-flushed by those duplicate writebacks.
    pub dup_flush_bytes: u64,
    /// Flushes covering bytes never written in the trace.
    pub unnecessary_flushes: u64,
    /// Never-written bytes those flushes wrote back.
    pub unnecessary_flush_bytes: u64,
    /// `TX_ADD`s overlapping a range already logged in the transaction.
    pub dup_logs: u64,
    /// Bytes re-logged by those duplicate appends.
    pub dup_log_bytes: u64,
    /// Fences issued with no new write or flush since the previous fence.
    pub redundant_fences: u64,
}

impl SiteDelta {
    /// Total wasted persist bytes at this site: re-flushed + never-written
    /// + re-logged.
    #[must_use]
    pub fn wasted_bytes(&self) -> u64 {
        self.dup_flush_bytes + self.unnecessary_flush_bytes + self.dup_log_bytes
    }

    /// Number of wasteful operations (duplicate/unnecessary flushes plus
    /// duplicate log appends; redundant fences are counted separately).
    #[must_use]
    pub fn wasteful_ops(&self) -> u64 {
        self.dup_flushes + self.unnecessary_flushes + self.dup_logs
    }

    /// Adds `other`'s tallies into `self`.
    pub fn merge(&mut self, other: &SiteDelta) {
        self.writes += other.writes;
        self.flushes += other.flushes;
        self.fences += other.fences;
        self.logs += other.logs;
        self.dup_flushes += other.dup_flushes;
        self.dup_flush_bytes += other.dup_flush_bytes;
        self.unnecessary_flushes += other.unnecessary_flushes;
        self.unnecessary_flush_bytes += other.unnecessary_flush_bytes;
        self.dup_logs += other.dup_logs;
        self.dup_log_bytes += other.dup_log_bytes;
        self.redundant_fences += other.redundant_fences;
    }
}

#[derive(Default)]
struct SiteStats {
    ops: SiteDelta,
    /// WARN diagnostic occurrences by stable code (`duplicate_flush`, …).
    warns: BTreeMap<&'static str, u64>,
}

#[derive(Default)]
struct Inner {
    /// Keyed (file, line); `BTreeMap` so every snapshot iterates sites in
    /// one deterministic content order, independent of insertion order.
    sites: BTreeMap<(&'static str, u32), SiteStats>,
    traces: u64,
}

/// The shared cross-trace profile store.
///
/// Construct one per engine, feed it per-trace tallies with
/// [`record_trace`](Self::record_trace), and read it back with
/// [`snapshot`](Self::snapshot).
#[derive(Default)]
pub struct ProfileStore {
    inner: Mutex<Inner>,
}

impl ProfileStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one checked trace's tallies into the store: `ops` carries the
    /// per-site operation/waste deltas the profiler observed, `warns` one
    /// `(site, code)` pair per WARN diagnostic the checkers produced. One
    /// mutex acquisition per trace.
    pub fn record_trace(
        &self,
        ops: &[((&'static str, u32), SiteDelta)],
        warns: &[((&'static str, u32), &'static str)],
    ) {
        self.record_traces(1, ops, warns);
    }

    /// Folds the summed tallies of `traces` checked traces under one lock —
    /// the per-batch form of [`record_trace`](Self::record_trace).
    pub fn record_traces(
        &self,
        traces: u64,
        ops: &[((&'static str, u32), SiteDelta)],
        warns: &[((&'static str, u32), &'static str)],
    ) {
        let mut inner = self.inner.lock().expect("profile store poisoned");
        inner.traces += traces;
        for ((file, line), delta) in ops {
            inner.sites.entry((file, *line)).or_default().ops.merge(delta);
        }
        for ((file, line), code) in warns {
            *inner.sites.entry((file, *line)).or_default().warns.entry(code).or_insert(0) += 1;
        }
    }

    /// Traces folded in so far.
    #[must_use]
    pub fn traces(&self) -> u64 {
        self.inner.lock().expect("profile store poisoned").traces
    }

    /// An owned, deterministically ordered copy of the profile: sites
    /// sorted by (file, line).
    #[must_use]
    pub fn snapshot(&self) -> ProfileSnapshot {
        let inner = self.inner.lock().expect("profile store poisoned");
        ProfileSnapshot {
            traces: inner.traces,
            sites: inner
                .sites
                .iter()
                .map(|((file, line), stats)| SiteProfile {
                    file: (*file).to_owned(),
                    line: *line,
                    ops: stats.ops,
                    warns: stats.warns.iter().map(|(code, n)| ((*code).to_owned(), *n)).collect(),
                })
                .collect(),
        }
    }
}

/// One site's aggregated profile in a [`ProfileSnapshot`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteProfile {
    /// Source file of the site.
    pub file: String,
    /// 1-based source line of the site.
    pub line: u32,
    /// Aggregated operation and waste tallies.
    pub ops: SiteDelta,
    /// WARN diagnostic occurrences by stable code, sorted by code.
    pub warns: Vec<(String, u64)>,
}

impl SiteProfile {
    /// The site key as rendered everywhere (`file:line`).
    #[must_use]
    pub fn site(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// An immutable, deterministically ordered copy of a [`ProfileStore`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Traces aggregated into the profile.
    pub traces: u64,
    /// Per-site tallies, sorted by (file, line).
    pub sites: Vec<SiteProfile>,
}

impl ProfileSnapshot {
    /// Total wasted persist bytes across all sites.
    #[must_use]
    pub fn total_wasted_bytes(&self) -> u64 {
        self.sites.iter().map(|s| s.ops.wasted_bytes()).sum()
    }

    /// Total redundant fences across all sites.
    #[must_use]
    pub fn total_redundant_fences(&self) -> u64 {
        self.sites.iter().map(|s| s.ops.redundant_fences).sum()
    }

    /// Total WARN diagnostic occurrences across all sites and codes.
    #[must_use]
    pub fn total_warns(&self) -> u64 {
        self.sites.iter().flat_map(|s| s.warns.iter().map(|(_, n)| *n)).sum()
    }

    /// Appends the profile's aggregate counters to a telemetry snapshot
    /// (`profile_*` metrics; per-code WARN totals under
    /// `profile_warn_total{code=…}`).
    pub fn fold_into(&self, snap: &mut TelemetrySnapshot) {
        snap.push_counter("profile_traces_profiled", &[], self.traces);
        snap.push_gauge("profile_sites_tracked", &[], self.sites.len() as f64);
        let sum = |f: fn(&SiteDelta) -> u64| -> u64 { self.sites.iter().map(|s| f(&s.ops)).sum() };
        snap.push_counter("profile_duplicate_flushes", &[], sum(|d| d.dup_flushes));
        snap.push_counter("profile_unnecessary_flushes", &[], sum(|d| d.unnecessary_flushes));
        snap.push_counter("profile_duplicate_logs", &[], sum(|d| d.dup_logs));
        snap.push_counter("profile_redundant_fences", &[], sum(|d| d.redundant_fences));
        snap.push_counter("profile_wasted_persist_bytes", &[], self.total_wasted_bytes());
        let mut by_code: BTreeMap<&str, u64> = BTreeMap::new();
        for site in &self.sites {
            for (code, n) in &site.warns {
                *by_code.entry(code).or_insert(0) += n;
            }
        }
        for (code, n) in by_code {
            snap.push_counter("profile_warn_total", &[("code", code)], n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(dup_flushes: u64, bytes: u64) -> SiteDelta {
        SiteDelta {
            flushes: dup_flushes + 1,
            dup_flushes,
            dup_flush_bytes: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn aggregates_by_site_across_traces() {
        let store = ProfileStore::new();
        store.record_trace(&[(("a.rs", 10), delta(1, 64))], &[(("a.rs", 10), "duplicate_flush")]);
        store.record_trace(&[(("a.rs", 10), delta(2, 128))], &[(("b.rs", 5), "duplicate_log")]);
        let snap = store.snapshot();
        assert_eq!(snap.traces, 2);
        assert_eq!(snap.sites.len(), 2);
        let a = &snap.sites[0];
        assert_eq!((a.file.as_str(), a.line), ("a.rs", 10));
        assert_eq!(a.ops.dup_flushes, 3);
        assert_eq!(a.ops.dup_flush_bytes, 192);
        assert_eq!(a.warns, vec![("duplicate_flush".to_owned(), 1)]);
        assert_eq!(snap.sites[1].warns, vec![("duplicate_log".to_owned(), 1)]);
        assert_eq!(snap.total_wasted_bytes(), 192);
        assert_eq!(snap.total_warns(), 2);
    }

    #[test]
    fn snapshot_order_is_content_sorted() {
        let store = ProfileStore::new();
        store.record_trace(&[(("z.rs", 1), SiteDelta::default())], &[]);
        store.record_trace(&[(("a.rs", 9), SiteDelta::default())], &[]);
        store.record_trace(&[(("a.rs", 2), SiteDelta::default())], &[]);
        let sites: Vec<String> = store.snapshot().sites.iter().map(SiteProfile::site).collect();
        assert_eq!(sites, ["a.rs:2", "a.rs:9", "z.rs:1"]);
    }

    #[test]
    fn fold_into_exports_aggregates() {
        let store = ProfileStore::new();
        store.record_trace(
            &[(("a.rs", 1), SiteDelta { redundant_fences: 2, ..Default::default() })],
            &[(("a.rs", 1), "duplicate_flush"), (("a.rs", 1), "duplicate_flush")],
        );
        let mut snap = TelemetrySnapshot::default();
        store.snapshot().fold_into(&mut snap);
        assert_eq!(snap.counter("profile_traces_profiled"), Some(1));
        assert_eq!(snap.counter("profile_redundant_fences"), Some(2));
        assert_eq!(snap.counter_sum("profile_warn_total"), 2);
        assert_eq!(snap.gauge("profile_sites_tracked"), Some(1.0));
    }
}
