//! The sharded ingest plane: one bounded SPSC ring per recording producer,
//! drained by worker threads that prefer their affinity rings and steal
//! from the others when idle.
//!
//! The previous ingest path multiplexed every submitting thread onto
//! per-worker MPMC channels, so each submit paid a channel lock that all
//! producers contended on, plus a load-aware scan over worker queue depths.
//! Here each producer owns a private ring: a push is one uncontended slot
//! mutex, one tail store, and a conditional wake. Consumers claim batches
//! by a head CAS and take the message under the slot mutex — the only
//! place a producer and a consumer can meet, and only when the ring wraps.
//! A ring is bounded in slots and in the packed records it holds queued
//! ([`MAX_QUEUED_WORDS`]); a producer pushing into a full ring waits.
//!
//! Each ring also holds its producer's staged state — for the engine, the
//! traces it sealed but has not shipped — behind the producer lock, which
//! every push onto the ring takes. The ring list is thus the only producer
//! registry: a result point walks it and ships every staged batch.
//!
//! ## Steal protocol
//!
//! Every ring is assigned a *preferred* worker round-robin at registration.
//! A worker looking for work scans its own rings first; only when all of
//! them are empty does it scan the rest, counting each foreign claim as a
//! steal. An idle worker parks on a LIFO stack (`std::thread::park`);
//! producers unpark the ring's preferred worker when parked — else the most
//! recently parked, cache-warm one — and only when the backlog exceeds the
//! awake worker count with no recruit already in flight, so the saturated
//! path never touches the park lock and an oversubscribed pool is not
//! dragged through park/unpark churn.
//!
//! ## Lifecycle
//!
//! * A producer retires its ring when it is done (its thread's session
//!   slot or its `ThreadRecorder` is dropped); idle workers prune a retired
//!   ring once it is drained and nothing is staged on it.
//! * The last worker to exit — normal shutdown or panic — marks the plane
//!   *dead*, discards every queued message (their drop guards settle the
//!   engine's `outstanding` accounting), and wakes stalled producers so a
//!   blocked submit surfaces as an error instead of a hang.
//! * Closing the plane (engine drop) lets workers drain what is queued and
//!   then exit.
//!
//! The crate is `#![forbid(unsafe_code)]`: the ring is safe Rust. The slot
//! mutexes are uncontended in steady state (a producer and a consumer only
//! share a slot across a full wrap), so the design measures within noise of
//! an unsafe seqlock ring for this access pattern.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use pmtest_obs::Counter;

/// Safety-net bound on a producer's wait for ring space. A consumer that
/// frees space wakes a registered waiter; the timeout only covers protocol
/// bugs.
const FULL_RING_POLL: Duration = Duration::from_millis(1);

/// Packed records one producer ring may hold queued, besides its slot
/// count: about one long trace (64 Ki records, 1.5 MiB). A ring that holds
/// any message takes another only while their records stay within this
/// bound, so a producer recording long traces faster than the workers
/// replay them keeps one queued instead of every pending one, and its
/// memory does not depend on how far the checker lags. Short-trace rings —
/// every slot full at a few dozen records each — stay far below it.
const MAX_QUEUED_WORDS: u64 = 1 << 16;

/// Safety-net bound on a worker's park. Wakeups are signalled; the timeout
/// only covers protocol bugs and retired-ring pruning.
const WORKER_PARK: Duration = Duration::from_millis(50);

/// Error: the plane is no longer accepting messages — it was closed, or
/// every worker has exited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlaneClosed;

/// A ring slot: the message plus the trace and packed-record counts it
/// carries, `Some` from the producer's write until a consumer's take.
type MessageSlot<T> = Mutex<Option<(T, u64, u64)>>;

/// One producer's bounded SPSC ring plus its staged state `S`. Pushes are
/// made under the producer lock, so they are serialized even when several
/// threads share the producer; `try_pop` is called by any worker.
pub(crate) struct ProducerRing<T, S = ()> {
    /// Power-of-two slot array. The mutex is the producer/consumer
    /// rendezvous on wrap-around and is otherwise uncontended.
    slots: Box<[MessageSlot<T>]>,
    mask: u64,
    /// Next slot the producer fills. Published with `Release` *after* the
    /// slot is written, so a consumer that observes `head < tail` is
    /// guaranteed to find the slot occupied.
    tail: AtomicU64,
    /// Next slot a consumer claims (CAS).
    head: AtomicU64,
    /// Traces currently queued on this ring.
    occupancy: AtomicU64,
    /// Packed records currently queued on this ring (see
    /// [`MAX_QUEUED_WORDS`]).
    words: AtomicU64,
    /// The owning producer thread has exited; no further pushes.
    retired: AtomicBool,
    /// The worker that scans this ring in its affinity pass.
    pref: usize,
    /// Messages ever pushed onto this ring.
    pushed: AtomicU64,
    /// Highest trace occupancy this ring has ever reached.
    highwater: AtomicU64,
    /// A producer stalled on a full ring registers in `space_waiters` and
    /// waits here; a take notifies only when a waiter is registered.
    space_lock: Mutex<()>,
    space: Condvar,
    space_waiters: AtomicUsize,
    /// The producer lock, guarding what the producer has staged (`None`:
    /// nothing). Every push onto this ring is made under it.
    pub(crate) staged: Mutex<Option<S>>,
}

/// One ring's observability sample, as exported by
/// [`IngestPlane::ring_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RingStats {
    /// The worker that scans this ring in its affinity pass.
    pub(crate) pref: usize,
    /// Traces currently queued.
    pub(crate) occupancy: u64,
    /// Messages ever pushed.
    pub(crate) pushed: u64,
    /// Highest trace occupancy ever reached.
    pub(crate) highwater: u64,
    /// The owning producer has exited.
    pub(crate) retired: bool,
}

impl<T, S> ProducerRing<T, S> {
    fn new(capacity: usize, pref: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(1);
        Self {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            mask: capacity as u64 - 1,
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            occupancy: AtomicU64::new(0),
            words: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            pref,
            pushed: AtomicU64::new(0),
            highwater: AtomicU64::new(0),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
            space_waiters: AtomicUsize::new(0),
            staged: Mutex::new(None),
        }
    }

    /// Marks the ring as no longer produced into. Queued messages are still
    /// drained; once empty the plane prunes the ring.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Traces currently queued here.
    pub(crate) fn occupancy(&self) -> u64 {
        self.occupancy.load(Ordering::Relaxed)
    }

    /// Retired, empty, and nothing staged: nothing will ever appear here
    /// again. Publish invariant (c): the staged state is read under the
    /// producer lock, so no push is in flight while the ring is judged; a
    /// held lock means a push may be, and the ring stays.
    fn is_drained(&self) -> bool {
        self.retired.load(Ordering::Acquire)
            && self.staged.try_lock().is_some_and(|staged| {
                staged.is_none()
                    && self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire)
            })
    }

    /// Whether a message of `words` packed records fits the queued-records
    /// bound now.
    fn has_room_for(&self, words: u64) -> bool {
        let queued = self.words.load(Ordering::SeqCst);
        queued == 0 || queued + words <= MAX_QUEUED_WORDS
    }
}

/// The plane's monotonic counters. The engine registers each handle once in
/// its metrics registry, so its stats and its telemetry snapshot read the
/// same values; a standalone plane keeps unregistered ones.
#[derive(Clone, Default)]
pub(crate) struct IngestCounters {
    /// Batches claimed outside the claiming worker's affinity pass.
    pub(crate) steals: Counter,
    /// Batches claimed inside the claiming worker's affinity pass.
    pub(crate) affinity_hits: Counter,
    /// Rings ever registered (≥ live rings; retired rings are pruned).
    pub(crate) rings_registered: Counter,
    /// Pushes that found their ring full and had to wait for a consumer.
    pub(crate) backpressure_stalls: Counter,
    /// Worker parks actually entered (`park_timeout` calls).
    pub(crate) parks: Counter,
    /// Sleepers unparked by a producer's recruit wake.
    pub(crate) wakes: Counter,
    /// Recruiting CAS attempts that lost to an in-flight recruit: the
    /// backlog warranted a wake but one was already pending.
    pub(crate) recruit_cas_fails: Counter,
}

/// The plane: every registered ring plus the worker wake/stall protocol and
/// the observability counters the engine exports.
pub(crate) struct IngestPlane<T, S = ()> {
    /// Slots per ring (rounded up to a power of two from the engine's
    /// configured queue capacity).
    ring_capacity: usize,
    workers: usize,
    rings: RwLock<Vec<Arc<ProducerRing<T, S>>>>,
    /// Batches queued across all rings. The Dekker-style handshake with the
    /// park path (worker: enlist in `parked` then re-check `pending`;
    /// producer: bump `pending` then check `sleepers`) makes the
    /// producer-side wake skippable when nobody sleeps.
    pending: AtomicU64,
    /// Workers parked waiting for work, most recent on top. Producers wake
    /// the ring's preferred worker if it is parked, otherwise the *top* of
    /// the stack — the most recently active, cache-warm thread — instead of
    /// rotating batches through every cold sleeper the way a condvar's FIFO
    /// order would.
    parked: Mutex<Vec<(usize, std::thread::Thread)>>,
    /// Mirror of `parked.len()`, so the saturated push path can skip the
    /// lock entirely.
    sleepers: AtomicUsize,
    /// A wake has been issued and its worker has not yet claimed a batch
    /// (or parked again). Recruiting one worker per claim, not one per
    /// push, keeps a burst of pushes from dragging the whole pool through
    /// park/unpark cycles on an oversubscribed host.
    recruiting: AtomicBool,
    /// Engine is shutting down; workers drain and exit.
    closed: AtomicBool,
    /// Every worker has exited; submissions must fail, queued messages are
    /// discarded.
    dead: AtomicBool,
    workers_alive: AtomicUsize,
    pub(crate) counters: IngestCounters,
    /// Highest trace occupancy ever observed on a single ring at push time.
    occupancy_highwater: AtomicU64,
}

impl<T: Send, S> IngestPlane<T, S> {
    pub(crate) fn new(workers: usize, ring_capacity: usize, counters: IngestCounters) -> Self {
        Self {
            ring_capacity,
            workers: workers.max(1),
            rings: RwLock::new(Vec::new()),
            pending: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
            sleepers: AtomicUsize::new(0),
            recruiting: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(workers),
            counters,
            occupancy_highwater: AtomicU64::new(0),
        }
    }

    /// Registers a new producer ring, assigning its preferred worker
    /// round-robin so producers spread across the pool.
    pub(crate) fn register_ring(&self) -> Arc<ProducerRing<T, S>> {
        let mut rings = self.rings.write();
        // Read and bumped under the registry lock, so every ring gets its
        // own sequence number.
        let seq = self.counters.rings_registered.get();
        self.counters.rings_registered.inc();
        let ring = Arc::new(ProducerRing::new(self.ring_capacity, seq as usize % self.workers));
        rings.push(ring.clone());
        ring
    }

    /// Pushes one message carrying `n` traces of `words` packed records in
    /// all onto `ring` (producer side, under the producer lock when the
    /// producer is shared). Blocks while the ring is full, or
    /// holds a message and would exceed [`MAX_QUEUED_WORDS`] — the
    /// backpressure regime — and fails once the plane is closed or its
    /// workers are gone. Returns the ring's trace occupancy right after the
    /// push (the queue-depth sample).
    ///
    /// On failure the message is dropped here; callers rely on its drop
    /// guard to settle any accounting.
    pub(crate) fn push(
        &self,
        ring: &ProducerRing<T, S>,
        payload: T,
        n: u64,
        words: u64,
    ) -> Result<u64, PlaneClosed> {
        if self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(PlaneClosed);
        }
        let t = ring.tail.load(Ordering::Relaxed);
        let slot = &ring.slots[(t & ring.mask) as usize];
        let mut payload = Some((payload, n, words));
        let mut stalled = false;
        loop {
            {
                let mut guard = slot.lock();
                // Takes only lower `words` and only this producer raises
                // it, so a fit seen here still holds when the message lands.
                if guard.is_none() && ring.has_room_for(words) {
                    // Re-checked under the slot mutex: `mark_dead` stores the
                    // flag before its drain takes this slot, so a producer
                    // that sees the slot freed *by the death drain* is
                    // guaranteed to see `dead` here and error out instead of
                    // pushing into a plane nobody will ever drain again.
                    if self.dead.load(Ordering::Acquire) {
                        return Err(PlaneClosed);
                    }
                    *guard = payload.take();
                    break;
                }
            }
            // Ring full, or holding as many records as it may: the program
            // now blocks behind the checking pipeline (Fig. 12a's
            // backpressure regime).
            if !stalled {
                stalled = true;
                self.counters.backpressure_stalls.inc();
            }
            // Register as a waiter, then re-check under `space_lock`: a take
            // after the registration sees the waiter (SeqCst on both sides,
            // the parker's Dekker handshake), and it and a death notify under
            // this lock, which only the wait releases — no wakeup is lost.
            let mut space = ring.space_lock.lock();
            ring.space_waiters.fetch_add(1, Ordering::SeqCst);
            let dead = self.dead.load(Ordering::SeqCst);
            if !dead && (slot.lock().is_some() || !ring.has_room_for(words)) {
                ring.space.wait_for(&mut space, FULL_RING_POLL);
            }
            ring.space_waiters.fetch_sub(1, Ordering::SeqCst);
            if dead {
                return Err(PlaneClosed);
            }
        }
        // Counted before the message is published, so a take never
        // subtracts records not yet added.
        ring.words.fetch_add(words, Ordering::AcqRel);
        ring.tail.store(t + 1, Ordering::Release);
        ring.pushed.fetch_add(1, Ordering::Relaxed);
        // A worker may take the message as soon as `tail` is published, and
        // subtract it from `occupancy` and `pending` before the adds below:
        // the counters then sit one message below zero, wrapped, for a
        // moment, so the sums must wrap too (a plain `+` overflows there and
        // panics in debug builds).
        let depth = ring.occupancy.fetch_add(n, Ordering::Relaxed).wrapping_add(n);
        ring.highwater.fetch_max(depth, Ordering::Relaxed);
        self.occupancy_highwater.fetch_max(depth, Ordering::Relaxed);
        let pending = self.pending.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        // Dekker handshake with the park path: workers enlist in `parked`
        // (bumping `sleepers`, SeqCst) before re-checking `pending`, so
        // either we see the sleeper here or it sees our pending increment.
        //
        // Waking a sleeper on *every* push thrashes an oversubscribed host:
        // with one worker awake and keeping up, each push would drag another
        // thread through a park/unpark cycle just to find the batch already
        // claimed. A worker can only transition awake→asleep after its
        // post-enlist `pending` re-check reads zero, and our increment above
        // precedes the `sleepers` load (both SeqCst) — so any worker counted
        // awake here is guaranteed to claim work before it can park. A wake
        // is therefore only needed when the backlog exceeds the awake count,
        // and one outstanding recruit at a time (`recruiting`) is enough:
        // the recruit clears the flag when it claims, at which point the
        // next push re-evaluates the backlog.
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            let awake = self.workers_alive.load(Ordering::SeqCst).saturating_sub(sleepers);
            if pending > awake as u64 {
                if self
                    .recruiting
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    self.wake_one();
                } else {
                    // Backlog warranted a wake, but a recruit is already in
                    // flight. High rates here mean the single-recruit gate is
                    // doing real damping work.
                    self.counters.recruit_cas_fails.inc();
                }
            }
        }
        Ok(depth)
    }

    /// Unparks the most recently parked sleeper. LIFO keeps the working set
    /// on the fewest (and warmest) threads: a pool bigger than the load
    /// leaves its surplus parked instead of rotating batches through every
    /// cold worker. (Ring affinity governs a woken worker's *scan order*,
    /// not which worker gets woken — a steal is cheaper than a cold stack.)
    fn wake_one(&self) {
        let woken = {
            let mut parked = self.parked.lock();
            let Some((_, thread)) = parked.pop() else { return };
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            thread
        };
        self.counters.wakes.inc();
        woken.unpark();
    }

    /// Claims one message from `ring` (any worker). The claim is a head CAS;
    /// the take happens under the slot mutex, which is what makes the
    /// `expect` sound: `head < tail` (tail released after the slot write)
    /// guarantees the slot was filled, the CAS makes this claim exclusive,
    /// and a producer wrapping onto the same physical slot blocks on the
    /// mutex until the take completes.
    fn try_pop(&self, ring: &ProducerRing<T, S>) -> Option<(T, u64)> {
        loop {
            let h = ring.head.load(Ordering::Relaxed);
            let t = ring.tail.load(Ordering::Acquire);
            if h >= t {
                return None;
            }
            if ring
                .head
                .compare_exchange_weak(h, h + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                let (payload, n, words) = ring.slots[(h & ring.mask) as usize]
                    .lock()
                    .take()
                    .expect("claimed ring slot must hold a message");
                ring.occupancy.fetch_sub(n, Ordering::Relaxed);
                ring.words.fetch_sub(words, Ordering::SeqCst);
                self.pending.fetch_sub(1, Ordering::SeqCst);
                // Wake only a registered waiter: a notify costs a syscall
                // whether or not anyone waits.
                if ring.space_waiters.load(Ordering::SeqCst) > 0 {
                    drop(ring.space_lock.lock());
                    ring.space.notify_all();
                }
                return Some((payload, n));
            }
        }
    }

    /// One scan for work: the worker's affinity rings first, then everything
    /// else (counted as steals).
    fn try_claim(&self, me: usize) -> Option<(T, u64)> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let rings = self.rings.read();
        for ring in rings.iter().filter(|r| r.pref == me) {
            if let Some(got) = self.try_pop(ring) {
                self.counters.affinity_hits.inc();
                return Some(got);
            }
        }
        for ring in rings.iter().filter(|r| r.pref != me) {
            if let Some(got) = self.try_pop(ring) {
                self.counters.steals.inc();
                return Some(got);
            }
        }
        None
    }

    /// Blocks until a message is available, the plane is closed *and*
    /// drained (`None`), or a park times out and the scan repeats.
    pub(crate) fn next_batch(&self, me: usize) -> Option<(T, u64)> {
        loop {
            if let Some(got) = self.try_claim(me) {
                // Progress: any outstanding recruit credit is spent, so the
                // next push re-evaluates whether the backlog needs another
                // worker.
                self.recruiting.store(false, Ordering::SeqCst);
                return Some(got);
            }
            if self.closed.load(Ordering::Acquire) && self.pending.load(Ordering::Acquire) == 0 {
                return None;
            }
            self.prune_retired();
            // About to park: this worker is no longer a claimant, so release
            // any recruit credit it holds — a flag stuck true would suppress
            // producer wakes until the park timeout.
            self.recruiting.store(false, Ordering::SeqCst);
            {
                let mut parked = self.parked.lock();
                parked.push((me, std::thread::current()));
                self.sleepers.fetch_add(1, Ordering::SeqCst);
            }
            if self.pending.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::Acquire) {
                self.delist(me);
                continue;
            }
            self.counters.parks.inc();
            std::thread::park_timeout(WORKER_PARK);
            self.delist(me);
        }
    }

    /// Removes this worker's `parked` entry unless a producer already popped
    /// it. A raced wake leaves a stale unpark token behind, which only makes
    /// the next park return immediately — the loop re-checks for work either
    /// way.
    fn delist(&self, me: usize) {
        let mut parked = self.parked.lock();
        if let Some(at) = parked.iter().position(|(idx, _)| *idx == me) {
            parked.remove(at);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drops retired rings that can never hold a message again. Producers
    /// that come and go (one ring per thread per plane) would otherwise
    /// accumulate dead rings on the scan path forever. The producer-lock
    /// probes in [`ProducerRing::is_drained`] never block, so holding the
    /// registry's write lock over them cannot stall a push.
    fn prune_retired(&self) {
        if self.rings.read().iter().any(|r| r.is_drained()) {
            self.rings.write().retain(|r| !r.is_drained());
        }
    }

    /// Discards everything queued on `ring`; each message's drop settles its
    /// own accounting. Used by a producer that raced a dying worker pool.
    pub(crate) fn drain_discard(&self, ring: &ProducerRing<T, S>) {
        while self.try_pop(ring).is_some() {}
    }

    /// A copy of the ring list, for walks that may block (a result point's
    /// pushes, the death drain) and so must not hold the registry lock.
    pub(crate) fn rings(&self) -> Vec<Arc<ProducerRing<T, S>>> {
        self.rings.read().clone()
    }

    /// Called by the last exiting worker (shutdown or panic): no message
    /// will ever be claimed again, so discard the queue (settling the
    /// accounting of every batch in flight) and wake stalled producers so
    /// their submits fail instead of hanging.
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for ring in self.rings() {
            self.drain_discard(&ring);
            drop(ring.space_lock.lock());
            ring.space.notify_all();
        }
        self.nudge_workers();
    }

    /// Whether the worker pool is gone (submissions must fail).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Shuts the plane down: workers drain what is queued, then exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.nudge_workers();
    }

    /// Wakes every parked worker (retired-ring pruning, close, death).
    pub(crate) fn nudge_workers(&self) {
        let drained: Vec<_> = {
            let mut parked = self.parked.lock();
            self.sleepers.fetch_sub(parked.len(), Ordering::SeqCst);
            parked.drain(..).collect()
        };
        for (_, thread) in drained {
            thread.unpark();
        }
    }

    // ---- observability ----

    /// A per-ring observability sample across every registered ring still
    /// on the scan path.
    pub(crate) fn ring_stats(&self) -> Vec<RingStats> {
        self.rings
            .read()
            .iter()
            .map(|r| RingStats {
                pref: r.pref,
                occupancy: r.occupancy.load(Ordering::Relaxed),
                pushed: r.pushed.load(Ordering::Relaxed),
                highwater: r.highwater.load(Ordering::Relaxed),
                retired: r.retired.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Highest trace occupancy ever observed on one ring at push time.
    pub(crate) fn occupancy_highwater(&self) -> u64 {
        self.occupancy_highwater.load(Ordering::Relaxed)
    }

    /// Traces currently queued across all rings.
    pub(crate) fn current_occupancy(&self) -> u64 {
        self.rings.read().iter().map(|r| r.occupancy()).sum()
    }

    /// Rings currently registered (live or retired-but-undrained).
    pub(crate) fn rings_live(&self) -> usize {
        self.rings.read().len()
    }
}

/// RAII guard a worker thread holds for its whole life: the drop (normal
/// exit or unwinding panic) decrements the live-worker count, and the last
/// one out marks the plane dead.
pub(crate) struct WorkerGuard<T: Send, S = ()> {
    plane: Arc<IngestPlane<T, S>>,
}

impl<T: Send, S> WorkerGuard<T, S> {
    pub(crate) fn new(plane: Arc<IngestPlane<T, S>>) -> Self {
        Self { plane }
    }
}

impl<T: Send, S> Drop for WorkerGuard<T, S> {
    fn drop(&mut self) {
        if self.plane.workers_alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.plane.mark_dead();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    /// No interleaving of producers registering, pushing, and exiting with
    /// concurrent stealing consumers loses or duplicates a batch.
    #[test]
    fn no_lost_or_duplicated_batches_under_producer_exit_races() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let plane: Arc<IngestPlane<u64>> =
            Arc::new(IngestPlane::new(2, 4, IngestCounters::default()));
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let plane = plane.clone();
                s.spawn(move || {
                    // Fresh ring per producer; retired the moment the
                    // producer is done — the exit race under test.
                    let ring = plane.register_ring();
                    for i in 0..PER_PRODUCER {
                        plane.push(&ring, p * PER_PRODUCER + i, 1, 1).unwrap();
                    }
                    ring.retire();
                });
            }
            for w in 0..2 {
                let plane = plane.clone();
                let seen = &seen;
                s.spawn(move || {
                    while let Some((v, n)) = plane.next_batch(w) {
                        assert_eq!(n, 1);
                        assert!(seen.lock().insert(v), "batch {v} delivered twice");
                    }
                });
            }
            // Producers finish first (scope joins in spawn order is not
            // guaranteed, so poll): close once everything is accounted for.
            while seen.lock().len() < (PRODUCERS * PER_PRODUCER) as usize {
                std::thread::yield_now();
            }
            plane.close();
        });
        assert_eq!(seen.lock().len(), (PRODUCERS * PER_PRODUCER) as usize);
        assert_eq!(plane.current_occupancy(), 0);
        assert_eq!(plane.counters.rings_registered.get(), PRODUCERS);
    }

    /// A full ring blocks its producer (counting the stall) until a consumer
    /// frees a slot.
    #[test]
    fn full_ring_backpressures_the_producer() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 1, IngestCounters::default()));
        let ring = plane.register_ring();
        plane.push(&ring, 0, 1, 1).unwrap();
        let pushed = Arc::new(AtomicBool::new(false));
        let blocked = {
            let plane = plane.clone();
            let ring = ring.clone();
            let pushed = pushed.clone();
            std::thread::spawn(move || {
                plane.push(&ring, 1, 1, 1).unwrap();
                pushed.store(true, Ordering::Release);
            })
        };
        // The stall is counted before the wait, and nothing can land before
        // the pop below, so this holds however late the thread runs.
        while plane.counters.backpressure_stalls.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!pushed.load(Ordering::Acquire), "push into a full ring must block");
        assert!(plane.counters.backpressure_stalls.get() >= 1);
        let (first, _) = plane.try_pop(&ring).expect("first message queued");
        assert_eq!(first, 0);
        blocked.join().unwrap();
        assert!(pushed.load(Ordering::Acquire));
        let (second, _) = plane.try_pop(&ring).expect("stalled push landed");
        assert_eq!(second, 1);
    }

    /// A ring holding queued records blocks a push that would take it past
    /// `MAX_QUEUED_WORDS` until a consumer takes them; an empty ring takes
    /// a message of any size.
    #[test]
    fn queued_records_backpressure_the_producer() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        let ring = plane.register_ring();
        plane.push(&ring, 0, 1, 2 * MAX_QUEUED_WORDS).unwrap();
        let pushed = Arc::new(AtomicBool::new(false));
        let blocked = {
            let plane = plane.clone();
            let ring = ring.clone();
            let pushed = pushed.clone();
            std::thread::spawn(move || {
                plane.push(&ring, 1, 1, 1).unwrap();
                pushed.store(true, Ordering::Release);
            })
        };
        // The stall is counted before the wait, and nothing can land before
        // the pop below, so this holds however late the thread runs.
        while plane.counters.backpressure_stalls.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!pushed.load(Ordering::Acquire), "a ring over its record bound must block");
        assert_eq!(plane.try_pop(&ring).expect("first message queued").0, 0);
        blocked.join().unwrap();
        // Small messages share the bound until the next would pass it.
        plane.push(&ring, 2, 1, MAX_QUEUED_WORDS - 2).unwrap();
        plane.push(&ring, 3, 1, 1).unwrap();
        assert_eq!(plane.counters.backpressure_stalls.get(), 1, "within the bound nothing stalls");
        assert_eq!(ring.words.load(Ordering::Relaxed), MAX_QUEUED_WORDS);
        for expect in 1..=3 {
            assert_eq!(plane.try_pop(&ring).expect("queued").0, expect);
        }
        assert_eq!(ring.words.load(Ordering::Relaxed), 0);
    }

    /// A worker can take a message the moment `tail` is published, before
    /// its producer adds it to `occupancy` and `pending`; the producer's
    /// sums must wrap back into range instead of overflowing.
    #[test]
    fn push_tolerates_a_take_before_its_counters_are_bumped() {
        let plane: IngestPlane<u32> = IngestPlane::new(1, 8, IngestCounters::default());
        let ring = plane.register_ring();
        // What a racing take leaves behind: both counters one message
        // below zero.
        ring.occupancy.fetch_sub(1, Ordering::Relaxed);
        plane.pending.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(plane.push(&ring, 7, 1, 1), Ok(0), "queue depth back at zero");
        assert_eq!(plane.pending.load(Ordering::SeqCst), 0);
        assert_eq!(ring.occupancy(), 0);
    }

    /// When the last worker dies, queued messages are discarded — and each
    /// discarded message's drop guard still runs, which is how the engine's
    /// `outstanding` counter settles after a worker panic.
    #[test]
    fn dead_plane_discards_queued_messages_and_fails_pushes() {
        struct Settles(Arc<AtomicUsize>);
        impl Drop for Settles {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let settled = Arc::new(AtomicUsize::new(0));
        let plane: Arc<IngestPlane<Settles>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        let ring = plane.register_ring();
        for _ in 0..3 {
            plane.push(&ring, Settles(settled.clone()), 1, 1).unwrap();
        }
        // The only worker exits (as a panic would): everything settles.
        drop(WorkerGuard::new(plane.clone()));
        assert!(plane.is_dead());
        assert_eq!(settled.load(Ordering::SeqCst), 3, "queued messages must settle");
        let err = plane.push(&ring, Settles(settled.clone()), 1, 1);
        assert_eq!(err.unwrap_err(), PlaneClosed);
        assert_eq!(settled.load(Ordering::SeqCst), 4, "rejected message settles too");
    }

    /// A producer stalled on a full ring is released with an error when the
    /// worker pool dies — a blocked submit must not hang forever.
    #[test]
    fn worker_death_unblocks_a_stalled_producer() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 1, IngestCounters::default()));
        let ring = plane.register_ring();
        plane.push(&ring, 0, 1, 1).unwrap();
        let stalled = {
            let plane = plane.clone();
            let ring = ring.clone();
            std::thread::spawn(move || plane.push(&ring, 1, 1, 1))
        };
        std::thread::sleep(Duration::from_millis(10));
        drop(WorkerGuard::new(plane.clone()));
        assert_eq!(stalled.join().unwrap(), Err(PlaneClosed));
    }

    /// Retired, drained rings disappear from the scan path; undrained ones
    /// survive until their messages are claimed.
    #[test]
    fn retired_rings_are_pruned_once_drained() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        let ring = plane.register_ring();
        plane.push(&ring, 7, 1, 1).unwrap();
        ring.retire();
        drop(ring);
        plane.prune_retired();
        assert_eq!(plane.rings_live(), 1, "undrained ring must survive pruning");
        let (v, _) = plane.next_batch(0).expect("retired ring still drains");
        assert_eq!(v, 7);
        plane.prune_retired();
        assert_eq!(plane.rings_live(), 0, "drained retired ring is pruned");
    }

    /// Publish invariant (c): a retired ring with something staged, or with
    /// its producer lock held (a push may be in flight), is never pruned.
    #[test]
    fn retired_rings_with_staged_state_survive_pruning() {
        let plane: IngestPlane<u32, u32> = IngestPlane::new(1, 8, IngestCounters::default());
        let ring = plane.register_ring();
        *ring.staged.lock() = Some(7);
        ring.retire();
        plane.prune_retired();
        assert_eq!(plane.rings_live(), 1, "a staged batch keeps its ring");
        {
            let mut staged = ring.staged.lock();
            let v = staged.take().unwrap();
            plane.prune_retired();
            assert_eq!(plane.rings_live(), 1, "a held producer lock keeps its ring");
            plane.push(&ring, v, 1, 1).unwrap();
        }
        plane.prune_retired();
        assert_eq!(plane.rings_live(), 1, "the published message keeps its ring");
        assert_eq!(plane.next_batch(0).expect("published message drains").0, 7);
        plane.prune_retired();
        assert_eq!(plane.rings_live(), 0, "drained with nothing staged: pruned");
    }

    /// Affinity: a lone preferred worker claims without steals; a foreign
    /// worker's claims are counted.
    #[test]
    fn steals_are_counted_only_for_foreign_claims() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(2, 8, IngestCounters::default()));
        let ring = plane.register_ring(); // pref = 0
        plane.push(&ring, 1, 1, 1).unwrap();
        assert!(plane.try_claim(0).is_some());
        assert_eq!(plane.counters.steals.get(), 0, "affinity claim is not a steal");
        plane.push(&ring, 2, 1, 1).unwrap();
        assert!(plane.try_claim(1).is_some());
        assert_eq!(plane.counters.steals.get(), 1, "foreign claim is a steal");
        assert_eq!(plane.counters.affinity_hits.get(), 1, "only the first claim was on-affinity");
    }

    /// Per-ring samples track pushes, occupancy, and the high-water mark.
    #[test]
    fn ring_stats_sample_push_and_highwater() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(2, 8, IngestCounters::default()));
        let a = plane.register_ring();
        let b = plane.register_ring();
        plane.push(&a, 1, 3, 1).unwrap();
        plane.push(&a, 2, 2, 1).unwrap();
        plane.push(&b, 3, 1, 1).unwrap();
        assert!(plane.try_claim(0).is_some());
        let stats = plane.ring_stats();
        assert_eq!(stats.len(), 2);
        let sa = stats.iter().find(|s| s.pref == 0).unwrap();
        let sb = stats.iter().find(|s| s.pref == 1).unwrap();
        assert_eq!(sa.pushed, 2);
        assert_eq!(sa.highwater, 5, "high-water survives the claim");
        assert_eq!(sa.occupancy, 2, "one 3-trace batch claimed");
        assert!(!sa.retired);
        assert_eq!((sb.pushed, sb.occupancy, sb.highwater), (1, 1, 1));
        a.retire();
        assert!(plane.ring_stats().iter().any(|s| s.retired));
    }

    /// A parked worker records the park, and the producer wake that recruits
    /// it is counted; a second ready batch while the recruit is still in
    /// flight records a recruiting-CAS loss instead of a second wake.
    #[test]
    fn parker_counters_track_parks_wakes_and_recruit_losses() {
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        let ring = plane.register_ring();
        let worker = {
            let plane = plane.clone();
            std::thread::spawn(move || {
                let mut got = 0u32;
                while plane.next_batch(0).is_some() {
                    got += 1;
                }
                got
            })
        };
        // Wait until the worker is actually parked, then feed it.
        while plane.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        plane.push(&ring, 1, 1, 1).unwrap();
        while plane.pending.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        plane.close();
        assert_eq!(worker.join().unwrap(), 1);
        assert!(plane.counters.parks.get() >= 1, "the worker parked at least once");

        // Wake accounting, driven deterministically: enlist this thread as a
        // sleeper, then a wake must pop it and count exactly once.
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        plane.parked.lock().push((0, std::thread::current()));
        plane.sleepers.store(1, Ordering::SeqCst);
        plane.wake_one();
        assert_eq!(plane.counters.wakes.get(), 1, "popping a sleeper counts one wake");
        plane.wake_one();
        assert_eq!(plane.counters.wakes.get(), 1, "an empty stack wakes (and counts) nothing");

        // Recruit-loss path: with the recruiting flag pre-claimed and a
        // sleeper enlisted, a push whose backlog exceeds the awake count
        // must count a CAS loss rather than wake anyone.
        let plane: Arc<IngestPlane<u32>> =
            Arc::new(IngestPlane::new(1, 8, IngestCounters::default()));
        let ring = plane.register_ring();
        plane.recruiting.store(true, Ordering::SeqCst);
        plane.sleepers.store(1, Ordering::SeqCst);
        plane.push(&ring, 2, 1, 1).unwrap();
        assert_eq!(plane.counters.recruit_cas_fails.get(), 1);
        assert_eq!(plane.counters.wakes.get(), 0, "a lost recruit CAS must not wake");
    }
}
