use std::fmt;

use crate::{Event, EventKind, Trace};

/// Aggregate statistics of a trace — the kind of analysis WHISPER (ASPLOS
/// 2017) performs on PM workloads and that motivated PMTest's design: how
/// many PM operations a program issues, how they cluster into
/// fence-delimited epochs, and how checker-dense the annotation is.
///
/// # Examples
///
/// ```
/// use pmtest_trace::{Event, Trace, TraceStats};
/// use pmtest_interval::ByteRange;
///
/// let mut t = Trace::new(0);
/// let r = ByteRange::with_len(0, 64);
/// t.push(Event::Write(r).here());
/// t.push(Event::Flush(r).here());
/// t.push(Event::Fence.here());
/// t.push(Event::IsPersist(r).here());
/// let stats = TraceStats::from_trace(&t);
/// assert_eq!(stats.writes, 1);
/// assert_eq!(stats.epochs(), 2);
/// assert_eq!(stats.bytes_written, 64);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Store operations.
    pub writes: u64,
    /// Bytes covered by stores.
    pub bytes_written: u64,
    /// Writeback (`clwb`) operations.
    pub flushes: u64,
    /// Bytes covered by writebacks.
    pub bytes_flushed: u64,
    /// x86 `sfence` operations.
    pub fences: u64,
    /// HOPS `ofence` operations.
    pub ofences: u64,
    /// HOPS `dfence` operations.
    pub dfences: u64,
    /// Transaction begin/end pairs observed (counted by `TX_BEGIN`).
    pub transactions: u64,
    /// `TX_ADD` backup announcements.
    pub tx_adds: u64,
    /// Low-level checkers (`isPersist` + `isOrderedBefore`).
    pub low_level_checkers: u64,
    /// Transaction-checker scopes (`TX_CHECKER_START`).
    pub tx_checker_scopes: u64,
    /// Scope-control events (exclude/include).
    pub scope_events: u64,
    /// Total entries.
    pub entries: u64,
    /// The largest number of writes inside one fence-delimited epoch — the
    /// exponent of the Yat blow-up (see `pmtest-baseline`).
    pub max_writes_per_epoch: u64,
}

impl TraceStats {
    /// Computes the statistics of one trace.
    #[must_use]
    pub fn from_trace(trace: &Trace) -> Self {
        let mut builder = TraceStatsBuilder::default();
        for entry in trace.entries() {
            builder.push(&entry.event);
        }
        builder.finish()
    }

    /// Number of fence-delimited epochs (any fence flavour), counting the
    /// trailing open epoch.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.fences + self.ofences + self.dfences + 1
    }

    /// Mean writes per epoch.
    #[must_use]
    pub fn avg_writes_per_epoch(&self) -> f64 {
        self.writes as f64 / self.epochs() as f64
    }

    /// Merges another trace's statistics into this one (per-run totals).
    pub fn merge(&mut self, other: &TraceStats) {
        self.writes += other.writes;
        self.bytes_written += other.bytes_written;
        self.flushes += other.flushes;
        self.bytes_flushed += other.bytes_flushed;
        self.fences += other.fences;
        self.ofences += other.ofences;
        self.dfences += other.dfences;
        self.transactions += other.transactions;
        self.tx_adds += other.tx_adds;
        self.low_level_checkers += other.low_level_checkers;
        self.tx_checker_scopes += other.tx_checker_scopes;
        self.scope_events += other.scope_events;
        self.entries += other.entries;
        self.max_writes_per_epoch = self.max_writes_per_epoch.max(other.max_writes_per_epoch);
    }
}

/// [`TraceStats`] accumulated one event at a time, in program order, for a
/// caller that walks the trace anyway — the engine's timing layer feeds it
/// from the replay walk instead of decoding the trace a second time.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStatsBuilder {
    stats: TraceStats,
    /// Writes in the open (not yet fenced) epoch.
    epoch_writes: u64,
}

impl TraceStatsBuilder {
    /// Counts the next event of the trace.
    pub fn push(&mut self, event: &Event) {
        let stats = &mut self.stats;
        stats.entries += 1;
        match *event {
            Event::Write(r) => {
                stats.writes += 1;
                stats.bytes_written += r.len();
                self.epoch_writes += 1;
            }
            Event::Flush(r) => {
                stats.flushes += 1;
                stats.bytes_flushed += r.len();
            }
            Event::Fence => stats.fences += 1,
            Event::OFence => stats.ofences += 1,
            Event::DFence => stats.dfences += 1,
            Event::TxBegin => stats.transactions += 1,
            Event::TxAdd(_) => stats.tx_adds += 1,
            Event::TxCheckerStart => stats.tx_checker_scopes += 1,
            Event::IsPersist(_) | Event::IsOrderedBefore(_, _) => {
                stats.low_level_checkers += 1;
            }
            Event::TxEnd | Event::TxCheckerEnd => {}
            e if e.kind() == EventKind::Scope => stats.scope_events += 1,
            _ => {}
        }
        if matches!(event, Event::Fence | Event::OFence | Event::DFence) {
            stats.max_writes_per_epoch = stats.max_writes_per_epoch.max(self.epoch_writes);
            self.epoch_writes = 0;
        }
    }

    /// The statistics of the events pushed so far, closing the open epoch.
    #[must_use]
    pub fn finish(self) -> TraceStats {
        let mut stats = self.stats;
        stats.max_writes_per_epoch = stats.max_writes_per_epoch.max(self.epoch_writes);
        stats
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} entries: {} writes ({} B), {} clwb ({} B), {} sfence, {} ofence, {} dfence, \
             {} TX, {} TX_ADD, {} checkers, {} checker scopes; max {} writes/epoch",
            self.entries,
            self.writes,
            self.bytes_written,
            self.flushes,
            self.bytes_flushed,
            self.fences,
            self.ofences,
            self.dfences,
            self.transactions,
            self.tx_adds,
            self.low_level_checkers,
            self.tx_checker_scopes,
            self.max_writes_per_epoch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_interval::ByteRange;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn counts_every_category() {
        let mut t = Trace::new(0);
        t.push(Event::TxCheckerStart.here());
        t.push(Event::TxBegin.here());
        t.push(Event::TxAdd(r(0, 8)).here());
        t.push(Event::Write(r(0, 8)).here());
        t.push(Event::Write(r(8, 24)).here());
        t.push(Event::Flush(r(0, 24)).here());
        t.push(Event::Fence.here());
        t.push(Event::TxEnd.here());
        t.push(Event::TxCheckerEnd.here());
        t.push(Event::IsPersist(r(0, 8)).here());
        t.push(Event::Exclude(r(64, 96)).here());
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.entries, 11);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes_written, 24);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.bytes_flushed, 24);
        assert_eq!(s.fences, 1);
        assert_eq!(s.transactions, 1);
        assert_eq!(s.tx_adds, 1);
        assert_eq!(s.low_level_checkers, 1);
        assert_eq!(s.tx_checker_scopes, 1);
        assert_eq!(s.scope_events, 1);
        assert_eq!(s.epochs(), 2);
        assert_eq!(s.max_writes_per_epoch, 2);
    }

    #[test]
    fn epoch_width_tracks_the_maximum() {
        let mut t = Trace::new(0);
        for i in 0..3u64 {
            t.push(Event::Write(r(i * 8, i * 8 + 8)).here());
        }
        t.push(Event::Fence.here());
        t.push(Event::Write(r(64, 72)).here());
        t.push(Event::OFence.here());
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.max_writes_per_epoch, 3);
        assert_eq!(s.epochs(), 3);
        assert!((s.avg_writes_per_epoch() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn hops_fences_count_separately_and_delimit_epochs() {
        // A HOPS trace (§5.2): ofence orders without forcing durability,
        // dfence forces durability — both close an epoch, neither counts as
        // an x86 sfence.
        let mut t = Trace::new(0);
        t.push(Event::Write(r(0, 8)).here());
        t.push(Event::Write(r(8, 16)).here());
        t.push(Event::OFence.here());
        t.push(Event::Write(r(16, 24)).here());
        t.push(Event::OFence.here());
        t.push(Event::Write(r(24, 32)).here());
        t.push(Event::DFence.here());
        t.push(Event::IsOrderedBefore(r(0, 8), r(24, 32)).here());
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.fences, 0, "no sfence in a pure HOPS trace");
        assert_eq!(s.ofences, 2);
        assert_eq!(s.dfences, 1);
        assert_eq!(s.epochs(), 4, "3 fences + trailing open epoch");
        assert_eq!(s.max_writes_per_epoch, 2);
        assert!((s.avg_writes_per_epoch() - 1.0).abs() < 1e-9);
        assert_eq!(s.low_level_checkers, 1);
    }

    #[test]
    fn dfence_only_trace_has_no_trailing_writes() {
        let mut t = Trace::new(0);
        t.push(Event::Write(r(0, 64)).here());
        t.push(Event::DFence.here());
        let s = TraceStats::from_trace(&t);
        assert_eq!(s.dfences, 1);
        assert_eq!(s.epochs(), 2, "trailing epoch counts even when empty");
        assert_eq!(s.max_writes_per_epoch, 1);
    }

    #[test]
    fn mixed_model_trace_aggregates_every_fence_flavour() {
        // Traces replayed against composed/foreign models can interleave x86
        // and HOPS primitives; the stats must keep the flavours separate
        // while the epoch count sees them uniformly.
        let mut t = Trace::new(0);
        t.push(Event::Write(r(0, 8)).here());
        t.push(Event::Flush(r(0, 8)).here());
        t.push(Event::Fence.here());
        t.push(Event::Write(r(8, 16)).here());
        t.push(Event::OFence.here());
        t.push(Event::Write(r(16, 24)).here());
        t.push(Event::Write(r(24, 32)).here());
        t.push(Event::Write(r(32, 40)).here());
        t.push(Event::DFence.here());
        let s = TraceStats::from_trace(&t);
        assert_eq!((s.fences, s.ofences, s.dfences), (1, 1, 1));
        assert_eq!(s.epochs(), 4);
        assert_eq!(s.max_writes_per_epoch, 3, "widest epoch is the dfence-closed one");
        assert_eq!(s.writes, 5);
        assert_eq!(s.bytes_written, 40);
    }

    #[test]
    fn merging_x86_and_hops_traces_keeps_flavours_apart() {
        let mut x86 = Trace::new(0);
        x86.push(Event::Write(r(0, 8)).here());
        x86.push(Event::Flush(r(0, 8)).here());
        x86.push(Event::Fence.here());
        let mut hops = Trace::new(1);
        hops.push(Event::Write(r(0, 8)).here());
        hops.push(Event::OFence.here());
        hops.push(Event::Write(r(8, 16)).here());
        hops.push(Event::DFence.here());
        let mut total = TraceStats::from_trace(&x86);
        total.merge(&TraceStats::from_trace(&hops));
        assert_eq!((total.fences, total.ofences, total.dfences), (1, 1, 1));
        assert_eq!(total.entries, 7);
        // Per-run epoch arithmetic still holds on the merged totals: each
        // trace contributes its fences; the +1 trailing epoch is per-view.
        assert_eq!(total.epochs(), 4);
        let display = total.to_string();
        assert!(display.contains("1 ofence"), "{display}");
        assert!(display.contains("1 dfence"), "{display}");
    }

    #[test]
    fn merge_accumulates() {
        let mut t1 = Trace::new(0);
        t1.push(Event::Write(r(0, 8)).here());
        let mut t2 = Trace::new(1);
        t2.push(Event::Write(r(0, 16)).here());
        t2.push(Event::Write(r(16, 32)).here());
        let mut total = TraceStats::from_trace(&t1);
        total.merge(&TraceStats::from_trace(&t2));
        assert_eq!(total.writes, 3);
        assert_eq!(total.bytes_written, 40);
        assert_eq!(total.max_writes_per_epoch, 2);
    }

    #[test]
    fn display_mentions_key_counts() {
        let mut t = Trace::new(0);
        t.push(Event::Write(r(0, 8)).here());
        let s = TraceStats::from_trace(&t).to_string();
        assert!(s.contains("1 writes (8 B)"), "{s}");
    }
}
