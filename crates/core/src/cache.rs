//! Content-addressed verdict cache: repeated trace shapes check at
//! hash-lookup cost.
//!
//! Production-shaped traffic (per-op traces from hot data-structure code,
//! kvstore loops) emits the *same trace shape* millions of times — same
//! opcodes, same ranges, same source sites; only trace ids differ. Checking
//! is a pure function of the packed words and the model (session variables
//! resolve to concrete ranges *at record time*, and every trace replays
//! against freshly-reset scratch state), so the verdict of one occurrence is
//! the verdict of all of them. This module memoizes it:
//!
//! * the key is a [`TraceFingerprint`] — a run-stable 128-bit content hash
//!   of the packed record stream (opcode + range words + source *sites*,
//!   never raw intern ids);
//! * each worker owns an open-addressed, lock-free-by-construction L1
//!   ([`WorkerCache`]) probed without touching any shared state;
//! * L1 misses fall through to a sharded shared L2 ([`VerdictCache`]) with
//!   a hard memory bound and CLOCK-style second-chance eviction;
//! * a cache entry ([`CachedVerdict`]) carries the exact diagnostic list
//!   (interned sites included — `Report` output is byte-identical to a
//!   cold check).
//!
//! **Bypass predicate.** A trace bypasses the cache (checked cold, nothing
//! cached) at [`TelemetryLevel::Profile`](crate::TelemetryLevel::Profile)
//! and above: the site profiler, and at `Full` the per-entry checker
//! histograms and per-worker `TraceStats`, must observe every occurrence.
//! At `Bundles` every trace is served from the cache — its ERROR bundles
//! are re-derived from the words after the verdict is known, whether it
//! came from a check or a hit. The predicate is fixed by the engine's
//! telemetry level, tested in `crates/core/tests/verdict_cache.rs`, and
//! documented in DESIGN.md §17.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_trace::{Fingerprinter, PackedEntry, TraceFingerprint};

use crate::diag::Diag;

/// Configuration of the engine's verdict cache. Off by default: the cache
/// only pays for itself on repetitive workloads, and the default
/// configuration must keep measuring the uncached path.
#[derive(Clone, Debug)]
pub struct VerdictCacheConfig {
    /// Whether the cache is constructed at all.
    pub enabled: bool,
    /// Hard bound on resident L2 verdict bytes (per engine, split evenly
    /// across shards). Per-worker L1s additionally pin at most
    /// `L1_SLOTS` (512) `Arc`s each, all aliasing L2-counted verdicts.
    pub max_bytes: usize,
}

impl Default for VerdictCacheConfig {
    fn default() -> Self {
        Self { enabled: false, max_bytes: 32 << 20 }
    }
}

/// The memoized outcome of checking one trace shape.
#[doc(hidden)]
#[derive(Debug)]
pub struct CachedVerdict {
    /// The exact diagnostics a cold check produces, interned sites and all.
    pub diags: Vec<Diag>,
    /// Approximate resident size, for the L2 memory bound.
    pub bytes: usize,
}

impl CachedVerdict {
    /// Builds a verdict, computing its resident-size estimate.
    #[must_use]
    pub fn new(diags: Vec<Diag>) -> Self {
        let mut bytes = std::mem::size_of::<Self>();
        bytes += diags.capacity() * std::mem::size_of::<Diag>();
        bytes += diags.iter().map(|d| d.message.capacity()).sum::<usize>();
        Self { diags, bytes }
    }
}

/// Number of L2 shards; a power of two so fingerprint bits map with a mask.
const L2_SHARDS: usize = 16;

/// Slots in each worker's open-addressed L1.
const L1_SLOTS: usize = 512;

/// Linear probes an L1 lookup attempts before declaring a miss.
const L1_PROBES: usize = 4;

struct L2Slot {
    verdict: Arc<CachedVerdict>,
    /// CLOCK second-chance bit: set on every hit, cleared (once) by the
    /// sweeping hand before the slot becomes evictable.
    referenced: bool,
}

#[derive(Default)]
struct L2Shard {
    map: HashMap<u128, L2Slot>,
    /// CLOCK ring of resident keys; `hand` is the sweep cursor.
    ring: Vec<u128>,
    hand: usize,
    bytes: usize,
}

/// The engine-wide shared L2: fingerprint → verdict, sharded by fingerprint
/// bits, memory-bounded with CLOCK eviction per shard.
#[doc(hidden)]
pub struct VerdictCache {
    shards: Vec<Mutex<L2Shard>>,
    /// Per-shard byte budget (`max_bytes / L2_SHARDS`).
    shard_budget: usize,
    l1_hits: AtomicU64,
    l2_hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    inserts: AtomicU64,
    evictions: AtomicU64,
    bytes_resident: AtomicU64,
}

/// Counter snapshot of a [`VerdictCache`] (see
/// [`Engine::verdict_cache_stats`](crate::Engine::verdict_cache_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCacheStats {
    /// Lookups answered by a worker's own L1.
    pub l1_hits: u64,
    /// L1 misses answered by the shared L2 (the verdict is then pulled into
    /// the prober's L1).
    pub l2_hits: u64,
    /// Lookups answered by neither tier — the trace paid a cold check.
    pub misses: u64,
    /// Traces that skipped the cache entirely under the bypass predicate
    /// (a telemetry level that observes every replay).
    pub bypasses: u64,
    /// Verdicts inserted into the L2.
    pub inserts: u64,
    /// Verdicts evicted by the CLOCK hand to keep the memory bound.
    pub evictions: u64,
    /// Resident L2 verdict bytes.
    pub bytes_resident: u64,
    /// Resident L2 entries.
    pub entries: u64,
}

impl VerdictCacheStats {
    /// Hits over cache-eligible lookups (bypasses excluded); 0 when idle.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.l1_hits + self.l2_hits;
        let total = hits + self.misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

impl VerdictCache {
    /// Builds an empty cache with `config`'s memory bound.
    #[must_use]
    pub fn new(config: &VerdictCacheConfig) -> Self {
        Self {
            shards: (0..L2_SHARDS).map(|_| Mutex::new(L2Shard::default())).collect(),
            shard_budget: (config.max_bytes / L2_SHARDS).max(1),
            l1_hits: AtomicU64::new(0),
            l2_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes_resident: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: TraceFingerprint) -> &Mutex<L2Shard> {
        // Shard on high bits; the L1 indexes on low bits, so the two
        // never alias their selection bits.
        &self.shards[(fp.as_u128() >> 124) as usize & (L2_SHARDS - 1)]
    }

    /// L2 lookup. A hit sets the slot's CLOCK bit and clones the `Arc` out
    /// (the caller installs it in its L1).
    fn get(&self, fp: TraceFingerprint) -> Option<Arc<CachedVerdict>> {
        let mut shard = self.shard(fp).lock();
        let slot = shard.map.get_mut(&fp.as_u128())?;
        slot.referenced = true;
        Some(slot.verdict.clone())
    }

    /// Inserts a verdict, evicting via the CLOCK hand until it fits the
    /// shard budget. Verdicts larger than a whole shard budget are not
    /// inserted (they would evict everything and still not fit); racing
    /// workers inserting the same fingerprint keep the first copy.
    fn insert(&self, fp: TraceFingerprint, verdict: &Arc<CachedVerdict>) {
        let bytes = verdict.bytes;
        if bytes > self.shard_budget {
            return;
        }
        let mut shard = self.shard(fp).lock();
        let key = fp.as_u128();
        if let Some(slot) = shard.map.get_mut(&key) {
            slot.referenced = true;
            return;
        }
        let mut evicted = 0u64;
        let mut freed = 0usize;
        while shard.bytes + bytes > self.shard_budget && !shard.ring.is_empty() {
            let hand = shard.hand % shard.ring.len();
            let candidate = shard.ring[hand];
            let slot = shard.map.get_mut(&candidate).expect("CLOCK ring key must be resident");
            if slot.referenced {
                // Second chance: clear the bit, advance the hand. Every
                // slot's bit is cleared at most once per sweep, so the loop
                // terminates within two passes.
                slot.referenced = false;
                shard.hand = hand + 1;
            } else {
                let gone = shard.map.remove(&candidate).expect("evicting resident key");
                shard.bytes -= gone.verdict.bytes;
                freed += gone.verdict.bytes;
                evicted += 1;
                // swap_remove moves the ring tail into `hand`; do not
                // advance, the hand now points at an unswept key.
                shard.ring.swap_remove(hand);
            }
        }
        shard.bytes += bytes;
        shard.ring.push(key);
        shard.map.insert(key, L2Slot { verdict: verdict.clone(), referenced: true });
        drop(shard);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        if bytes as u64 >= freed as u64 {
            self.bytes_resident.fetch_add(bytes as u64 - freed as u64, Ordering::Relaxed);
        } else {
            self.bytes_resident.fetch_sub(freed as u64 - bytes as u64, Ordering::Relaxed);
        }
    }

    /// Folds a worker's batch-local lookup tallies into the shared
    /// counters: one `fetch_add` per counter per batch, never per trace.
    pub fn flush_tally(&self, tally: &mut CacheTally) {
        let t = std::mem::take(tally);
        if t.l1_hits > 0 {
            self.l1_hits.fetch_add(t.l1_hits, Ordering::Relaxed);
        }
        if t.l2_hits > 0 {
            self.l2_hits.fetch_add(t.l2_hits, Ordering::Relaxed);
        }
        if t.misses > 0 {
            self.misses.fetch_add(t.misses, Ordering::Relaxed);
        }
        if t.bypasses > 0 {
            self.bypasses.fetch_add(t.bypasses, Ordering::Relaxed);
        }
    }

    /// Counter snapshot (resident entries counted under the shard locks).
    #[must_use]
    pub fn stats(&self) -> VerdictCacheStats {
        VerdictCacheStats {
            l1_hits: self.l1_hits.load(Ordering::Relaxed),
            l2_hits: self.l2_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_resident: self.bytes_resident.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().map.len() as u64).sum(),
        }
    }
}

/// Batch-local lookup tallies, settled into the shared cache counters by
/// [`VerdictCache::flush_tally`] once per batch.
#[derive(Debug, Default)]
pub struct CacheTally {
    /// Lookups answered by this worker's L1.
    pub l1_hits: u64,
    /// Lookups answered by the shared L2.
    pub l2_hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// Traces that skipped the cache under the bypass predicate.
    pub bypasses: u64,
}

/// One worker's private cache front end: the fingerprinter (with its
/// site-hash mirror), the open-addressed L1, and the batch-local tallies.
/// Nothing here is shared — an L1 hit touches no lock, no atomic, and does
/// not even bump the verdict's `Arc` count (the hit path borrows).
#[doc(hidden)]
pub struct WorkerCache {
    fingerprinter: Fingerprinter,
    l1: Vec<Option<(TraceFingerprint, Arc<CachedVerdict>)>>,
    /// Batch-local lookup tallies; flushed by the worker loop per batch.
    pub tally: CacheTally,
}

impl Default for WorkerCache {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerCache {
    /// Builds an empty worker cache.
    #[must_use]
    pub fn new() -> Self {
        let mut l1 = Vec::with_capacity(L1_SLOTS);
        l1.resize_with(L1_SLOTS, || None);
        Self { fingerprinter: Fingerprinter::new(), l1, tally: CacheTally::default() }
    }

    /// Fingerprints one packed record stream.
    #[inline]
    pub fn fingerprint(&mut self, words: &[PackedEntry]) -> TraceFingerprint {
        self.fingerprinter.fingerprint(words)
    }

    /// Index of the L1 slot holding `fp`, if resident within the probe
    /// window.
    #[inline]
    fn l1_find(&self, fp: TraceFingerprint) -> Option<usize> {
        let base = fp.as_u128() as usize;
        for probe in 0..L1_PROBES {
            let i = (base + probe) & (L1_SLOTS - 1);
            match &self.l1[i] {
                Some((key, _)) if *key == fp => return Some(i),
                _ => {}
            }
        }
        None
    }

    /// Installs a verdict in the L1, returning its slot: an existing slot
    /// with the same fingerprint is overwritten, else the first free slot in
    /// the probe window, else the
    /// window's base slot is displaced (plain clobbering keeps the probe
    /// invariant — a resident key is always within `L1_PROBES` of its base).
    fn l1_put(&mut self, fp: TraceFingerprint, verdict: Arc<CachedVerdict>) -> usize {
        let base = fp.as_u128() as usize;
        let mut target = base & (L1_SLOTS - 1);
        let mut free = None;
        for probe in 0..L1_PROBES {
            let i = (base + probe) & (L1_SLOTS - 1);
            match &self.l1[i] {
                Some((key, _)) if *key == fp => {
                    target = i;
                    free = None;
                    break;
                }
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        if let Some(i) = free {
            target = i;
        }
        self.l1[target] = Some((fp, verdict));
        target
    }

    /// Two-tier lookup. A hit borrows the verdict out of the L1 — no `Arc`
    /// clone, no shared traffic; only the L1-miss path touches the L2
    /// (lock + clone).
    pub fn lookup(&mut self, cache: &VerdictCache, fp: TraceFingerprint) -> Option<&CachedVerdict> {
        let slot = match self.l1_find(fp) {
            Some(i) => {
                self.tally.l1_hits += 1;
                i
            }
            None => {
                let Some(v) = cache.get(fp) else {
                    self.tally.misses += 1;
                    return None;
                };
                self.tally.l2_hits += 1;
                self.l1_put(fp, v)
            }
        };
        self.l1[slot].as_ref().map(|(_, v)| &**v)
    }

    /// Installs a freshly computed verdict in both tiers (L2 first, so
    /// other workers can share it immediately).
    pub fn install(&mut self, cache: &VerdictCache, fp: TraceFingerprint, verdict: CachedVerdict) {
        let verdict = Arc::new(verdict);
        cache.insert(fp, &verdict);
        self.l1_put(fp, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagKind;
    use pmtest_trace::packed::encode_into;
    use pmtest_trace::{Event, SourceLoc};

    fn words(tag: u64) -> Vec<PackedEntry> {
        let mut buf = Vec::new();
        let loc = SourceLoc::new("cache_unit.rs", 1);
        encode_into(
            &mut buf,
            Event::Write(pmtest_interval::ByteRange::new(tag * 64, tag * 64 + 8)).at(loc),
        );
        buf
    }

    fn verdict(msg: &str) -> CachedVerdict {
        CachedVerdict::new(vec![Diag {
            kind: DiagKind::NotPersisted,
            loc: SourceLoc::new("cache_unit.rs", 1),
            range: None,
            culprit: None,
            message: msg.to_owned(),
        }])
    }

    #[test]
    fn l1_round_trip_and_tallies() {
        let cache = VerdictCache::new(&VerdictCacheConfig::default());
        let mut wc = WorkerCache::new();
        let fp = wc.fingerprint(&words(1));
        assert!(wc.lookup(&cache, fp).is_none());
        wc.install(&cache, fp, verdict("v"));
        assert_eq!(wc.lookup(&cache, fp).unwrap().diags.len(), 1);
        assert_eq!((wc.tally.misses, wc.tally.l1_hits), (1, 1));
        // A second worker misses its L1 but hits the shared L2.
        let mut other = WorkerCache::new();
        assert!(other.lookup(&cache, fp).is_some());
        assert_eq!(other.tally.l2_hits, 1);
        // And now holds it in its own L1.
        assert!(other.lookup(&cache, fp).is_some());
        assert_eq!(other.tally.l1_hits, 1);
        cache.flush_tally(&mut wc.tally);
        cache.flush_tally(&mut other.tally);
        let stats = cache.stats();
        assert_eq!((stats.l1_hits, stats.l2_hits, stats.misses), (2, 1, 1));
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes_resident > 0);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
        // Tallies were reset by the flush.
        assert_eq!(wc.tally.l1_hits, 0);
    }

    #[test]
    fn l2_eviction_respects_the_byte_bound() {
        // A tiny budget: every shard holds at most a few verdicts.
        let cache = VerdictCache::new(&VerdictCacheConfig { enabled: true, max_bytes: 16 << 10 });
        let mut wc = WorkerCache::new();
        let mut fps = Vec::new();
        for tag in 0..512 {
            let w = words(tag);
            let fp = wc.fingerprint(&w);
            fps.push(fp);
            if wc.lookup(&cache, fp).is_none() {
                wc.install(&cache, fp, verdict(&format!("verdict {tag}")));
            }
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "pressure must evict");
        assert!(
            stats.bytes_resident <= 16 << 10,
            "resident bytes {} exceed the bound",
            stats.bytes_resident
        );
        // Entries and bytes agree with a direct recount.
        let recount: u64 = cache.shards.iter().map(|s| s.lock().bytes as u64).sum();
        assert_eq!(recount, stats.bytes_resident);
        let ring_len: u64 = cache.shards.iter().map(|s| s.lock().ring.len() as u64).sum();
        assert_eq!(ring_len, stats.entries);
        // Survivors still answer correctly.
        let mut live = 0;
        for (tag, fp) in fps.iter().enumerate() {
            if let Some(v) = wc.lookup(&cache, *fp) {
                if v.diags[0].message == format!("verdict {tag}") {
                    live += 1;
                } else {
                    panic!("fingerprint {tag} returned another trace's verdict");
                }
            }
        }
        assert!(live > 0, "some verdicts must survive eviction");
    }

    #[test]
    fn oversized_verdicts_are_not_inserted() {
        let cache = VerdictCache::new(&VerdictCacheConfig { enabled: true, max_bytes: 1 << 10 });
        let mut wc = WorkerCache::new();
        let fp = wc.fingerprint(&words(3));
        wc.install(&cache, fp, verdict(&"x".repeat(8 << 10)));
        assert_eq!(cache.stats().inserts, 0);
        assert_eq!(cache.stats().bytes_resident, 0);
        // The L1 still holds it: correctness is unaffected, only sharing.
        assert!(wc.lookup(&cache, fp).is_some());
    }

    #[test]
    fn racing_inserts_keep_one_copy() {
        let cache = VerdictCache::new(&VerdictCacheConfig::default());
        let mut a = WorkerCache::new();
        let mut b = WorkerCache::new();
        let fp = a.fingerprint(&words(4));
        a.install(&cache, fp, verdict("first"));
        b.install(&cache, fp, verdict("second"));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().inserts, 1, "duplicate insert is dropped");
        assert_eq!(cache.get(fp).unwrap().diags[0].message, "first");
    }
}
