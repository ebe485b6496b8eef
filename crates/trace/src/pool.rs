//! The recycling pool for batch arenas.
//!
//! Decoupled checking (Fig. 8) moves trace storage from the program thread
//! to a checking worker on every `PMTest_SEND_TRACE`. Without recycling,
//! each batch costs heap allocations on the hot path plus deallocations on
//! a worker — and under the short traces of the paper's microbenchmarks
//! (Fig. 10a) the allocator becomes a measurable fraction of the runtime
//! overhead. The [`ArenaPool`] closes that loop: workers return checked
//! [`TraceArena`]s here, and sessions (and the engine's own single-trace
//! submissions) draw replacements instead of allocating.
//!
//! The free list is sharded to keep producers (many program threads) and
//! consumers (worker threads) from serialising on one lock. Each shard is a
//! small mutex-guarded stack; a release/acquire pair usually touches only one
//! shard. A strictly lock-free list would need `unsafe` or an external queue,
//! and this crate is `#![forbid(unsafe_code)]` — the sharded mutexes measure
//! within noise of that design for the pool's access pattern (sub-microsecond
//! critical sections, shard count ≥ typical thread count).
//!
//! Arenas are always cleared on release, *before* they become visible to
//! any other trace. That is the pool's core invariant: recycled storage can
//! never leak records from one trace into another.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::arena::TraceArena;

/// Number of independent free-list shards. A power of two so the rotating
/// counter maps onto shards with a mask.
const SHARDS: usize = 8;

/// Default cap on arenas retained per shard (total = `SHARDS` × this).
const DEFAULT_ITEMS_PER_SHARD: usize = 64;

/// Default cap on the retained word capacity of a pooled arena, in records.
/// A batch that ballooned to thousands of records should not pin that
/// memory forever; oversized arenas are dropped instead of pooled.
const DEFAULT_MAX_ITEM_CAPACITY: usize = 4096;

/// A sharded free list of recyclable batch arenas shared between sessions
/// (which acquire) and engine workers (which release).
///
/// # Examples
///
/// ```
/// use pmtest_trace::{ArenaPool, Event, TraceArena};
///
/// let pool = ArenaPool::new();
/// let mut arena = pool.acquire(); // fresh allocation: pool is empty
/// arena.push(Event::Fence.here());
/// arena.seal(0);
/// pool.release(arena);
/// let arena = pool.acquire(); // recycled — and guaranteed empty
/// assert!(arena.is_empty());
/// assert_eq!(pool.stats().recycled, 1);
/// ```
pub struct ArenaPool {
    shards: Vec<Mutex<Vec<TraceArena>>>,
    /// Rotates acquire/release across shards so a single hot thread does not
    /// hammer shard 0.
    cursor: AtomicUsize,
    items_per_shard: usize,
    max_item_capacity: usize,
    recycled: AtomicU64,
    fresh: AtomicU64,
    released: AtomicU64,
    dropped: AtomicU64,
}

/// Lifetime counters of an [`ArenaPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquires served from the free list.
    pub recycled: u64,
    /// Acquires that fell back to a fresh allocation.
    pub fresh: u64,
    /// Arenas returned to the pool (whether retained or dropped).
    pub released: u64,
    /// Released arenas dropped because a shard was full or the arena
    /// exceeded the capacity cap.
    pub dropped: u64,
}

impl PoolStats {
    /// Fraction of acquires served by recycling, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.recycled + self.fresh;
        if total == 0 {
            0.0
        } else {
            self.recycled as f64 / total as f64
        }
    }
}

impl ArenaPool {
    /// A pool with the default retention caps.
    #[must_use]
    pub fn new() -> Self {
        Self::with_limits(SHARDS * DEFAULT_ITEMS_PER_SHARD, DEFAULT_MAX_ITEM_CAPACITY)
    }

    /// A pool retaining at most `max_items` arenas in total, each of word
    /// capacity at most `max_item_capacity` records.
    #[must_use]
    pub fn with_limits(max_items: usize, max_item_capacity: usize) -> Self {
        let items_per_shard = max_items.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            cursor: AtomicUsize::new(0),
            items_per_shard,
            max_item_capacity,
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            released: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Takes an arena from the pool, or allocates a fresh one if every shard
    /// is empty. The returned arena is always empty.
    #[must_use]
    pub fn acquire(&self) -> TraceArena {
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for offset in 0..SHARDS {
            let shard = &self.shards[(start + offset) & (SHARDS - 1)];
            // Skip contended shards: a miss here only costs an extra probe.
            let Some(mut guard) = shard.try_lock() else { continue };
            if let Some(arena) = guard.pop() {
                drop(guard);
                self.recycled.fetch_add(1, Ordering::Relaxed);
                debug_assert!(arena.is_empty(), "pooled arena must be empty");
                return arena;
            }
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        TraceArena::default()
    }

    /// Returns an arena to the pool. The arena is cleared here — before it
    /// becomes visible to any future [`acquire`](Self::acquire) — so records
    /// can never leak across traces. Oversized arenas and overflow beyond
    /// the retention cap are dropped.
    pub fn release(&self, mut arena: TraceArena) {
        self.released.fetch_add(1, Ordering::Relaxed);
        arena.clear();
        let cap = arena.word_capacity();
        if cap == 0 || cap > self.max_item_capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let start = self.cursor.fetch_add(1, Ordering::Relaxed);
        for offset in 0..SHARDS {
            let shard = &self.shards[(start + offset) & (SHARDS - 1)];
            let Some(mut guard) = shard.try_lock() else { continue };
            if guard.len() < self.items_per_shard {
                guard.push(arena);
                return;
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Arenas currently available for recycling.
    #[must_use]
    pub fn available(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            recycled: self.recycled.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

impl Default for ArenaPool {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ArenaPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaPool")
            .field("available", &self.available())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    /// An arena holding `n` sealed one-fence traces, its word buffer sized
    /// to at least one record.
    fn dirty_arena(n: usize) -> TraceArena {
        let mut arena = TraceArena::with_word_capacity(n.max(1));
        for id in 0..n {
            arena.push(Event::Fence.here());
            arena.seal(id as u64);
        }
        arena
    }

    #[test]
    fn acquire_from_empty_pool_allocates() {
        let pool = ArenaPool::new();
        let arena = pool.acquire();
        assert!(arena.is_empty());
        assert_eq!(pool.stats().fresh, 1);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn released_arenas_come_back_empty() {
        let pool = ArenaPool::new();
        pool.release(dirty_arena(5));
        let arena = pool.acquire();
        assert!(arena.is_empty(), "recycled arena leaked records");
        assert_eq!(arena.sealed(), 0);
        assert!(arena.word_capacity() >= 5, "capacity should be retained");
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn oversized_arenas_are_dropped() {
        let pool = ArenaPool::with_limits(16, 8);
        pool.release(dirty_arena(9)); // capacity > 8 → dropped
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn zero_capacity_arenas_are_not_pooled() {
        let pool = ArenaPool::new();
        pool.release(TraceArena::new());
        assert_eq!(pool.available(), 0);
    }

    #[test]
    fn retention_cap_is_enforced() {
        let pool = ArenaPool::with_limits(4, 1024);
        for _ in 0..100 {
            pool.release(dirty_arena(2));
        }
        // div_ceil rounds the per-shard cap up to 1, so at most SHARDS stay.
        assert!(pool.available() <= SHARDS);
        assert!(pool.stats().dropped >= 100 - SHARDS as u64);
    }

    #[test]
    fn hit_rate_reflects_recycling() {
        let pool = ArenaPool::new();
        let a = pool.acquire(); // fresh
        pool.release(dirty_arena(3));
        let _b = pool.acquire(); // recycled
        pool.release(a);
        let stats = pool.stats();
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.recycled, 1);
        assert!((stats.hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn concurrent_producers_and_consumers() {
        let pool = std::sync::Arc::new(ArenaPool::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = pool.clone();
                s.spawn(move || {
                    for id in 0..1_000 {
                        let mut arena = pool.acquire();
                        assert!(arena.is_empty());
                        arena.push(Event::Fence.here());
                        arena.seal(id);
                        pool.release(arena);
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.recycled + stats.fresh, 4_000);
        assert_eq!(stats.released, 4_000);
    }
}
