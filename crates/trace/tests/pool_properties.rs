//! Property tests for the arena recycling pool.
//!
//! The pool's core invariant: an arena recycled through the pool can never
//! leak records from one trace into another. Every `acquire` must observe an
//! empty arena, no matter what interleaving of acquires and releases (with
//! arbitrarily dirty arenas) preceded it, and the stats counters must stay
//! consistent with the operation sequence.

use pmtest_trace::{ArenaPool, Event, Trace, TraceArena};
use proptest::prelude::*;

/// One step of a pool workload.
#[derive(Debug, Clone)]
enum Op {
    /// Acquire an arena, record and seal `fill` traces into it, keep it on
    /// the side.
    AcquireAndFill(u8),
    /// Release the oldest held arena (no-op when none are held).
    ReleaseOldest,
    /// Release a freshly allocated dirty arena of the given size.
    ReleaseForeign(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AcquireAndFill),
        Just(Op::ReleaseOldest),
        (1..64u8).prop_map(Op::ReleaseForeign),
    ]
}

/// Records `n` one-fence traces into `arena`.
fn fill(arena: &mut TraceArena, n: u8) {
    for id in 0..n {
        arena.push(Event::Fence.here());
        arena.seal(u64::from(id));
    }
}

fn dirty(n: u8) -> TraceArena {
    let mut arena = TraceArena::with_word_capacity(n.max(1) as usize);
    fill(&mut arena, n);
    arena
}

proptest! {
    /// No interleaving of acquires and dirty releases ever surfaces a
    /// non-empty arena from `acquire`.
    #[test]
    fn acquired_arenas_are_always_empty(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let pool = ArenaPool::new();
        let mut held: Vec<TraceArena> = Vec::new();
        let mut acquires = 0u64;
        let mut releases = 0u64;
        for op in &ops {
            match op {
                Op::AcquireAndFill(n) => {
                    let mut arena = pool.acquire();
                    acquires += 1;
                    prop_assert!(arena.is_empty(), "acquire returned {} stale traces", arena.sealed());
                    fill(&mut arena, *n);
                    held.push(arena);
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        pool.release(held.remove(0));
                        releases += 1;
                    }
                }
                Op::ReleaseForeign(n) => {
                    pool.release(dirty(*n));
                    releases += 1;
                }
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.recycled + stats.fresh, acquires);
        prop_assert_eq!(stats.released, releases);
        prop_assert!(stats.recycled <= releases, "cannot recycle more than was released");
        prop_assert!(pool.available() as u64 <= releases);
    }

    /// Round-tripping lone traces the way `Engine::submit` does (a pooled
    /// arena adopts the trace's record buffer, the worker releases the
    /// arena) never leaks records across traces, for any sequence of trace
    /// lengths.
    #[test]
    fn submitted_traces_never_leak(lens in proptest::collection::vec(0..40usize, 1..100)) {
        let pool = ArenaPool::new();
        for (id, len) in lens.iter().enumerate() {
            let mut arena = pool.acquire();
            prop_assert!(arena.is_empty(), "trace {} inherited {} traces", id, arena.sealed());
            let mut trace = Trace::new(id as u64);
            for _ in 0..*len {
                trace.push(Event::Fence.here());
            }
            arena.push_trace(trace);
            let spans: Vec<_> = arena.traces().map(|(id, words, n)| (id, words.len(), n)).collect();
            prop_assert_eq!(spans, vec![(id as u64, *len, *len as u32)]);
            pool.release(arena);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.released, lens.len() as u64);
    }
}
