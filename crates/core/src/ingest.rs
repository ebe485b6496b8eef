//! The ingest plane: one single-slot *mailbox* per recording producer,
//! drained by worker threads that prefer their affinity producers and steal
//! from the others.
//!
//! Every submission locks its producer, appends the sealed traces to the
//! producer's staged arena, and hands the whole staged arena to the mailbox
//! if the mailbox is empty. Traces thus go over one at a time while the
//! workers keep pace and batch exactly while they are behind; there is no
//! batch size or queue depth to configure. The producer list is the only
//! producer registry: a result point walks it and hands over every staged
//! arena once its mailbox is empty, whether its thread still runs or not.
//!
//! * **The record bound.** Packed records staged or in the mailbox stay
//!   within [`MAX_STAGED_RECORDS`]; a submission that would pass it while
//!   the mailbox is full waits for a take, and an empty mailbox admits a
//!   trace of any size. Every handoff of short traces fits a buffer
//!   [`TraceArena::clear`] keeps, so steady-state handoffs never allocate.
//! * **Recycling.** The mailbox keeps one arena for the producer's life: a
//!   handoff trades the staged arena for its cleared one, and a take trades
//!   it for the worker's cleared spare, which the worker checks in place
//!   and clears. Every arena a trade hands on is empty.
//! * **Idle takes.** A worker that finds every mailbox empty takes the
//!   staged arena of any producer that left traces behind a full mailbox
//!   and whose lock is free (`try_lock`; a held lock means a submission in
//!   flight, so it yields and scans again). It then watches for a handoff
//!   briefly, and only then parks on a LIFO stack; one recruit at a time
//!   unparks the last parked worker, when full mailboxes outnumber the awake
//!   ones or a producer is left behind an untaken mailbox. In the steady
//!   state only the producer touches its staged arena.
//! * **Lifecycle.** A producer retires when its thread's slot or its
//!   `ThreadRecorder` drops, and is pruned once nothing is staged or in its
//!   mailbox. The last worker to exit marks the plane *dead*, discards
//!   every mailbox (each message's drop guard settles the engine's
//!   accounting) and wakes stalled producers so their submissions fail.
//!   Closing the plane (engine drop) lets workers drain and exit.
//!
//! The crate is `#![forbid(unsafe_code)]`: the mailbox is a mutex.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
use pmtest_obs::Counter;
use pmtest_trace::TraceArena;

/// Safety-net bound on a producer's wait for a take. A worker's take wakes a
/// registered waiter; the timeout only covers protocol bugs.
const FULL_RING_POLL: Duration = Duration::from_millis(1);

/// How long a producer that must wait for a take watches for it before it
/// sleeps: about the futex wait and wake it saves.
const FULL_RING_SPIN: Duration = Duration::from_micros(10);

/// Packed records one producer may hold staged or in its mailbox, not yet
/// taken by a worker: the capacity a cleared arena keeps (about 150 kv set
/// traces). An empty mailbox admits a trace of any size, so a producer of
/// long traces keeps one waiting, not every pending one.
pub(crate) const MAX_STAGED_RECORDS: usize = TraceArena::RETAINED_WORDS;

/// Safety-net bound on a worker's park. Wakeups are signalled; the timeout
/// only covers protocol bugs and retired-producer pruning.
const WORKER_PARK: Duration = Duration::from_millis(50);

/// How long an idle worker watches for a handoff before it parks, so a
/// worker that keeps pace is fed without a wake (a futex call on the
/// producer's `send_trace` path). One worker watches at a time.
const IDLE_WATCH: Duration = Duration::from_micros(20);

/// A value on cache lines of its own (two, for the adjacent-line
/// prefetcher): a producer's private staged state and the counters both
/// sides write stay off each other's lines.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Error: the plane is no longer accepting messages — it was closed, or
/// every worker has exited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlaneClosed;

/// A producer's staged state, guarded by its producer lock.
#[derive(Default)]
pub(crate) struct Staged {
    /// Traces sealed but not yet handed over.
    pub(crate) arena: TraceArena,
    /// Packed records of the last handoff, counted against
    /// [`MAX_STAGED_RECORDS`] while it is still in the mailbox.
    handed: usize,
}

/// The mailbox: the arena it keeps for the producer's life plus, from a
/// handoff until a take, the handoff's message and trace count.
struct Slot<T> {
    arena: TraceArena,
    msg: Option<(T, u64)>,
}

/// One recording producer: its producer lock over the staged arena, and its
/// one-slot mailbox. Handoffs are made under the producer lock, so they are
/// serialized even when several threads share the producer; any worker
/// takes.
pub(crate) struct Producer<T> {
    /// The producer lock. Every handoff is made under it; in the steady
    /// state only the producer touches it.
    pub(crate) staged: Padded<Mutex<Staged>>,
    mailbox: Mutex<Slot<T>>,
    /// The mailbox holds a handoff: set by the handoff and cleared by the
    /// take, each under the mailbox mutex, and read without it by scans.
    full: AtomicBool,
    /// Traces were staged behind a full mailbox and not handed over since:
    /// the only producers an idle worker's scan locks. Written under the
    /// producer lock.
    behind: AtomicBool,
    /// The producer is done; nothing is staged on it by its owner again.
    retired: AtomicBool,
    /// The worker that scans this producer in its affinity pass.
    pref: usize,
    /// Handoffs ever taken from this producer, idle takes included.
    handoffs: AtomicU64,
    /// Most traces one take from this producer carried.
    highwater: AtomicU64,
    /// A producer waiting for a take registers in `space_waiters` and waits
    /// here; a take notifies only when a waiter is registered.
    space_lock: Mutex<()>,
    space: Condvar,
    space_waiters: AtomicUsize,
}

/// One producer's observability sample, as exported by
/// [`IngestPlane::producer_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct ProducerStats {
    /// The worker that scans this producer in its affinity pass.
    pub(crate) pref: usize,
    /// Traces in the mailbox now.
    pub(crate) occupancy: u64,
    /// Handoffs ever taken.
    pub(crate) handoffs: u64,
    /// Most traces one take carried.
    pub(crate) highwater: u64,
    /// The owning producer has exited.
    pub(crate) retired: bool,
}

impl<T> Producer<T> {
    fn new(pref: usize) -> Self {
        Self {
            staged: Padded(Mutex::new(Staged::default())),
            mailbox: Mutex::new(Slot { arena: TraceArena::new(), msg: None }),
            full: AtomicBool::new(false),
            behind: AtomicBool::new(false),
            retired: AtomicBool::new(false),
            pref,
            handoffs: AtomicU64::new(0),
            highwater: AtomicU64::new(0),
            space_lock: Mutex::new(()),
            space: Condvar::new(),
            space_waiters: AtomicUsize::new(0),
        }
    }

    /// Marks the producer as done. What it handed over or staged is still
    /// checked; once nothing is left the plane prunes it.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::Release);
    }

    /// Traces in the mailbox now.
    fn occupancy(&self) -> u64 {
        self.mailbox.lock().msg.as_ref().map_or(0, |(_, n)| *n)
    }

    /// Retired, mailbox empty, and nothing staged: nothing will ever appear
    /// here again. Publish invariant (c): the staged state is read under the
    /// producer lock, so no handoff is in flight while the producer is
    /// judged; a held lock means one may be, and the producer stays.
    fn is_drained(&self) -> bool {
        self.retired.load(Ordering::Acquire)
            && self.staged.try_lock().is_some_and(|staged| {
                staged.arena.sealed() == 0 && !self.full.load(Ordering::Acquire)
            })
    }

    /// Notes one take of `n` traces in this producer's and the plane's
    /// samples.
    fn note_handoff(&self, n: u64, plane_highwater: &AtomicU64) {
        self.handoffs.fetch_add(1, Ordering::Relaxed);
        self.highwater.fetch_max(n, Ordering::Relaxed);
        plane_highwater.fetch_max(n, Ordering::Relaxed);
    }
}

/// The plane's monotonic counters. The engine registers each handle once in
/// its metrics registry, so its stats and its telemetry snapshot read the
/// same values; a standalone plane keeps unregistered ones.
#[derive(Clone, Default)]
pub(crate) struct IngestCounters {
    /// Handoffs taken outside the taking worker's affinity pass.
    pub(crate) steals: Counter,
    /// Handoffs taken inside the taking worker's affinity pass.
    pub(crate) affinity_hits: Counter,
    /// Producers ever registered (≥ live producers; retired ones are
    /// pruned).
    pub(crate) rings_registered: Counter,
    /// Submissions that had to wait for a take to stay within
    /// [`MAX_STAGED_RECORDS`].
    pub(crate) backpressure_stalls: Counter,
    /// Worker parks actually entered (`park_timeout` calls).
    pub(crate) parks: Counter,
    /// Sleepers unparked by a producer's recruit wake.
    pub(crate) wakes: Counter,
    /// Recruiting CAS attempts that lost to an in-flight recruit: the
    /// backlog warranted a wake but one was already pending.
    pub(crate) recruit_cas_fails: Counter,
}

/// What a worker's scan of the staged arenas found.
enum Idle<T> {
    /// A staged arena's traces, now in the worker's spare.
    Took((T, u64)),
    /// Some producer lock was held: its producer may be mid-submission.
    Busy,
    /// Nothing staged anywhere.
    Empty,
}

/// The plane: every registered producer plus the worker wake/stall protocol
/// and the observability counters the engine exports.
pub(crate) struct IngestPlane<T> {
    workers: usize,
    producers: RwLock<Vec<Arc<Producer<T>>>>,
    /// Full mailboxes (see `hand_over` for the park handshake).
    pending: Padded<AtomicU64>,
    /// Workers parked waiting for work, most recent on top.
    parked: Mutex<Vec<(usize, std::thread::Thread)>>,
    /// Mirror of `parked.len()`, read without the lock.
    sleepers: AtomicUsize,
    /// A worker is watching for a handoff before it parks (see
    /// [`IDLE_WATCH`]); it counts as awake, so handoffs do not wake another.
    watching: Padded<AtomicBool>,
    /// A wake has been issued and its worker has not yet taken work (or
    /// parked again): one recruit per take, not per handoff.
    recruiting: AtomicBool,
    /// Engine is shutting down; workers drain and exit.
    closed: AtomicBool,
    /// Every worker has exited; submissions must fail, mailboxes are
    /// discarded.
    dead: AtomicBool,
    workers_alive: AtomicUsize,
    pub(crate) counters: IngestCounters,
    /// Most traces one handoff ever carried.
    handoff_highwater: AtomicU64,
}

impl<T: Send> IngestPlane<T> {
    pub(crate) fn new(workers: usize, counters: IngestCounters) -> Self {
        Self {
            workers: workers.max(1),
            producers: RwLock::new(Vec::new()),
            pending: Padded(AtomicU64::new(0)),
            parked: Mutex::new(Vec::new()),
            sleepers: AtomicUsize::new(0),
            watching: Padded(AtomicBool::new(false)),
            recruiting: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            workers_alive: AtomicUsize::new(workers),
            counters,
            handoff_highwater: AtomicU64::new(0),
        }
    }

    /// Registers a new producer, assigning its preferred worker round-robin
    /// so producers spread across the pool.
    pub(crate) fn register(&self) -> Arc<Producer<T>> {
        let mut producers = self.producers.write();
        // Read and bumped under the registry lock, so every producer gets
        // its own sequence number.
        let seq = self.counters.rings_registered.get();
        self.counters.rings_registered.inc();
        let producer = Arc::new(Producer::new(seq as usize % self.workers));
        producers.push(producer.clone());
        producer
    }

    /// The one stage path, under the producer lock (`staged`): makes room
    /// under [`MAX_STAGED_RECORDS`] for `incoming` packed records, lets
    /// `append` move them into the staged arena, and hands the staged arena
    /// over (its message built by `admit`) if the mailbox is empty. `append`
    /// runs exactly once, also on a closed or dead plane; the caller then
    /// discards the staged traces.
    pub(crate) fn stage(
        &self,
        producer: &Producer<T>,
        staged: &mut Staged,
        incoming: usize,
        append: impl FnOnce(&mut TraceArena),
        mut admit: impl FnMut(&mut TraceArena) -> T,
    ) -> Result<(), PlaneClosed> {
        let room = self.make_room(producer, staged, incoming, &mut admit);
        append(&mut staged.arena);
        room?;
        if producer.full.load(Ordering::Acquire) {
            if producer.behind.load(Ordering::Relaxed) {
                return Ok(());
            }
            // Left behind a full mailbox: flag it for the idle workers' scan,
            // then look again. A take after the first look either sees the
            // flag (SeqCst on both sides, the parker's Dekker handshake) or
            // is seen here, and the traces go over now.
            producer.behind.store(true, Ordering::SeqCst);
            if producer.full.load(Ordering::SeqCst) {
                // Still untaken, so no awake worker was free: recruit a
                // sleeper (one mailbox never outnumbers the awake workers).
                if self.sleepers.load(Ordering::SeqCst) > 0 {
                    self.recruit();
                }
                return Ok(());
            }
        }
        self.hand_over(producer, staged, admit)
    }

    /// Waits for takes and hands staged traces over until `incoming` more
    /// records fit [`MAX_STAGED_RECORDS`] — or stage into an empty arena
    /// before an empty mailbox, which admits any size.
    fn make_room(
        &self,
        producer: &Producer<T>,
        staged: &mut Staged,
        incoming: usize,
        admit: &mut impl FnMut(&mut TraceArena) -> T,
    ) -> Result<(), PlaneClosed> {
        if self.dead.load(Ordering::Acquire) || self.closed.load(Ordering::Acquire) {
            return Err(PlaneClosed);
        }
        loop {
            let full = producer.full.load(Ordering::Acquire);
            let untaken = staged.arena.sealed_records() + if full { staged.handed } else { 0 };
            if untaken + incoming <= MAX_STAGED_RECORDS || (!full && staged.arena.sealed() == 0) {
                return Ok(());
            }
            if full {
                // The program now blocks behind the checking pipeline
                // (Fig. 12a's backpressure regime).
                self.counters.backpressure_stalls.inc();
                self.await_take(producer)?;
            } else {
                self.hand_over(producer, staged, &mut *admit)?;
            }
        }
    }

    /// Blocks until a worker has taken `producer`'s mailbox, watching for
    /// the take before it sleeps; fails once the plane is dead.
    pub(crate) fn await_take(&self, producer: &Producer<T>) -> Result<(), PlaneClosed> {
        let spin = Instant::now();
        while producer.full.load(Ordering::Acquire) && spin.elapsed() < FULL_RING_SPIN {
            std::hint::spin_loop();
        }
        loop {
            if self.dead.load(Ordering::Acquire) {
                return Err(PlaneClosed);
            }
            if !producer.full.load(Ordering::Acquire) {
                return Ok(());
            }
            // Register, then re-check under `space_lock`: a take after the
            // registration sees the waiter (SeqCst on both sides), and takes
            // and deaths notify under this lock — no wakeup is lost.
            let mut space = producer.space_lock.lock();
            producer.space_waiters.fetch_add(1, Ordering::SeqCst);
            if !self.dead.load(Ordering::SeqCst) && producer.full.load(Ordering::SeqCst) {
                producer.space.wait_for(&mut space, FULL_RING_POLL);
            }
            producer.space_waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Trades `staged`'s arena for `producer`'s empty mailbox's cleared one,
    /// with the message `admit` builds, under the producer lock; wakes a
    /// worker if needed. On a dead plane the message drops here, settling
    /// its accounting, and `staged` keeps its traces.
    pub(crate) fn hand_over(
        &self,
        producer: &Producer<T>,
        staged: &mut Staged,
        admit: impl FnOnce(&mut TraceArena) -> T,
    ) -> Result<(), PlaneClosed> {
        if self.dead.load(Ordering::Acquire) {
            return Err(PlaneClosed);
        }
        let n = staged.arena.sealed() as u64;
        let records = staged.arena.sealed_records();
        let msg = admit(&mut staged.arena);
        {
            let mut slot = producer.mailbox.lock();
            // Re-checked under the mailbox mutex: `mark_dead` stores the flag
            // before its drain takes this mutex, so a handoff that lands
            // after the death drain sees `dead` here and errors out instead
            // of handing over to a plane nobody will ever drain again.
            if self.dead.load(Ordering::Acquire) {
                return Err(PlaneClosed);
            }
            debug_assert!(slot.msg.is_none(), "a handoff needs an empty mailbox");
            debug_assert!(slot.arena.is_empty(), "a handoff must trade in a cleared arena");
            std::mem::swap(&mut staged.arena, &mut slot.arena);
            slot.msg = Some((msg, n));
            producer.full.store(true, Ordering::SeqCst);
        }
        staged.handed = records;
        if producer.behind.load(Ordering::Relaxed) {
            producer.behind.store(false, Ordering::Relaxed);
        }
        // A worker may take the message as soon as `full` is published, and
        // subtract it from `pending` before the add below: the counter then
        // sits one below zero, wrapped, for a moment, so the sum must wrap
        // too (a plain `+` overflows there and panics in debug builds).
        let pending = self.pending.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        // Dekker handshake with the park path (SeqCst on both sides): a
        // worker enlists in `parked` before re-checking `pending`, so any
        // worker counted awake here takes work before it can park. A wake
        // is needed only when full mailboxes outnumber the awake workers,
        // and one recruit at a time (`recruiting`) is enough.
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        if sleepers > 0 {
            let awake = self.workers_alive.load(Ordering::SeqCst).saturating_sub(sleepers);
            if pending > awake as u64 {
                self.recruit();
            }
        }
        Ok(())
    }

    /// Wakes a sleeper unless a recruit is already in flight.
    fn recruit(&self) {
        match self.recruiting.compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => self.wake_one(),
            Err(_) => self.counters.recruit_cas_fails.inc(),
        }
    }

    /// Unparks the most recently parked sleeper: LIFO keeps the work on the
    /// fewest, warmest threads.
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

    /// Takes `producer`'s mailbox (any worker), trading the cleared `spare`
    /// for the mailbox's arena, which holds the handoff's traces. The
    /// mailbox mutex makes the take exclusive: a worker that loses the race
    /// finds the message gone.
    fn try_take(&self, producer: &Producer<T>, spare: &mut TraceArena) -> Option<(T, u64)> {
        if !producer.full.load(Ordering::Acquire) {
            return None;
        }
        // Checked before the take, so a failing check leaves the message in
        // the mailbox for the death drain to settle.
        debug_assert!(spare.is_empty(), "a take must trade in a cleared arena");
        let got = {
            let mut slot = producer.mailbox.lock();
            let got = slot.msg.take()?;
            std::mem::swap(spare, &mut slot.arena);
            producer.full.store(false, Ordering::SeqCst);
            got
        };
        self.pending.fetch_sub(1, Ordering::SeqCst);
        producer.note_handoff(got.1, &self.handoff_highwater);
        // Wake only a registered waiter: a notify costs a syscall whether or
        // not anyone waits.
        if producer.space_waiters.load(Ordering::SeqCst) > 0 {
            drop(producer.space_lock.lock());
            producer.space.notify_all();
        }
        Some(got)
    }

    /// One scan of the mailboxes: the worker's affinity producers first,
    /// then everything else (counted as steals).
    fn try_claim(&self, me: usize, spare: &mut TraceArena) -> Option<(T, u64)> {
        if self.pending.load(Ordering::Acquire) == 0 {
            return None;
        }
        let producers = self.producers.read();
        for producer in producers.iter().filter(|p| p.pref == me) {
            if let Some(got) = self.try_take(producer, spare) {
                self.counters.affinity_hits.inc();
                return Some(got);
            }
        }
        for producer in producers.iter().filter(|p| p.pref != me) {
            if let Some(got) = self.try_take(producer, spare) {
                self.counters.steals.inc();
                return Some(got);
            }
        }
        None
    }

    /// One scan of the staged arenas by a worker that found every mailbox
    /// empty, over the producers that left traces behind a full mailbox:
    /// the first whose lock is free hands its staged traces straight to
    /// `spare`, its staged arena becoming the spare's cleared buffers, with
    /// `admit` building their message under the producer lock (publish
    /// invariant (a)). A producer whose mailbox filled meanwhile is left to
    /// the next mailbox scan.
    fn idle_take(
        &self,
        me: usize,
        spare: &mut TraceArena,
        admit: &mut impl FnMut(&mut TraceArena) -> T,
    ) -> Idle<T> {
        let producers = self.producers.read();
        let mut busy = false;
        for affine in [true, false] {
            let behind =
                |p: &&Arc<Producer<T>>| (p.pref == me) == affine && p.behind.load(Ordering::SeqCst);
            for producer in producers.iter().filter(behind) {
                let Some(mut staged) = producer.staged.try_lock() else {
                    busy = true;
                    continue;
                };
                if staged.arena.sealed() == 0 || producer.full.load(Ordering::Acquire) {
                    continue;
                }
                debug_assert!(spare.is_empty(), "a take must trade in a cleared arena");
                let n = staged.arena.sealed() as u64;
                let msg = admit(&mut staged.arena);
                std::mem::swap(spare, &mut staged.arena);
                producer.behind.store(false, Ordering::Relaxed);
                producer.note_handoff(n, &self.handoff_highwater);
                let claims =
                    if affine { &self.counters.affinity_hits } else { &self.counters.steals };
                claims.inc();
                return Idle::Took((msg, n));
            }
        }
        if busy {
            Idle::Busy
        } else {
            Idle::Empty
        }
    }

    /// Blocks until work is available — its traces then sit in `spare`,
    /// which must come in cleared — or the plane is closed *and* drained
    /// (`None`). A full mailbox is taken first; failing that, a staged
    /// arena (see [`idle_take`](Self::idle_take)), whose message `admit`
    /// builds. Otherwise the worker parks, and a park that times out scans
    /// again.
    pub(crate) fn next_batch(
        &self,
        me: usize,
        spare: &mut TraceArena,
        mut admit: impl FnMut(&mut TraceArena) -> T,
    ) -> Option<(T, u64)> {
        loop {
            let got = match self.try_claim(me, spare) {
                Some(got) => Some(got),
                None => match self.idle_take(me, spare, &mut admit) {
                    Idle::Took(got) => Some(got),
                    Idle::Busy => {
                        std::thread::yield_now();
                        continue;
                    }
                    Idle::Empty => None,
                },
            };
            if let Some(got) = got {
                // Progress: any outstanding recruit credit is spent, so the
                // next handoff re-evaluates whether another worker is needed.
                // Written only when set: the flag shares the plane's hot
                // line with `pending`.
                if self.recruiting.load(Ordering::Relaxed) {
                    self.recruiting.store(false, Ordering::SeqCst);
                }
                return Some(got);
            }
            if self.closed.load(Ordering::Acquire) && self.pending.load(Ordering::Acquire) == 0 {
                return None;
            }
            if self.watch_for_handoff() {
                continue;
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

    /// Watches `pending` for up to [`IDLE_WATCH`] unless another worker
    /// watches; true when a handoff (or the close) arrived. A submission
    /// that finds its mailbox empty hands over, so `pending` is all to watch.
    fn watch_for_handoff(&self) -> bool {
        if self.watching.swap(true, Ordering::AcqRel) {
            return false;
        }
        let start = Instant::now();
        let arrived = loop {
            if self.pending.load(Ordering::Acquire) > 0 || self.closed.load(Ordering::Acquire) {
                break true;
            }
            if start.elapsed() >= IDLE_WATCH {
                break false;
            }
            std::thread::yield_now();
        };
        self.watching.store(false, Ordering::Release);
        arrived
    }

    /// Removes this worker's `parked` entry unless a producer already popped
    /// it (a raced wake only leaves a stale unpark token).
    fn delist(&self, me: usize) {
        let mut parked = self.parked.lock();
        if let Some(at) = parked.iter().position(|(idx, _)| *idx == me) {
            parked.remove(at);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Drops retired producers that can never hold work again. The
    /// producer-lock probes in [`Producer::is_drained`] never block, so
    /// holding the registry's write lock over them cannot stall a handoff.
    fn prune_retired(&self) {
        if self.producers.read().iter().any(|p| p.is_drained()) {
            self.producers.write().retain(|p| !p.is_drained());
        }
    }

    /// Discards `producer`'s mailbox; the message's drop settles its own
    /// accounting, and its records leave with a throwaway spare. Used by a
    /// producer that raced a dying worker pool.
    pub(crate) fn drain_discard(&self, producer: &Producer<T>) {
        let _ = self.try_take(producer, &mut TraceArena::new());
    }

    /// A copy of the producer list, for walks that may block (a result
    /// point's handoffs, the death drain) and so must not hold the registry
    /// lock.
    pub(crate) fn producers(&self) -> Vec<Arc<Producer<T>>> {
        self.producers.read().clone()
    }

    /// Called by the last exiting worker (shutdown or panic): no mailbox
    /// will ever be taken again, so discard them (settling the accounting of
    /// every handoff in flight) and wake stalled producers so their
    /// submissions fail instead of hanging.
    fn mark_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for producer in self.producers() {
            self.drain_discard(&producer);
            drop(producer.space_lock.lock());
            producer.space.notify_all();
        }
        self.nudge_workers();
    }

    /// Whether the worker pool is gone (submissions must fail).
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Shuts the plane down: workers drain what is handed over, then exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.nudge_workers();
    }

    /// Wakes every parked worker (close, death).
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

    /// A per-producer observability sample across every producer still on
    /// the scan path.
    pub(crate) fn producer_stats(&self) -> Vec<ProducerStats> {
        self.producers
            .read()
            .iter()
            .map(|p| ProducerStats {
                pref: p.pref,
                occupancy: p.occupancy(),
                handoffs: p.handoffs.load(Ordering::Relaxed),
                highwater: p.highwater.load(Ordering::Relaxed),
                retired: p.retired.load(Ordering::Acquire),
            })
            .collect()
    }

    /// Most traces one handoff ever carried.
    pub(crate) fn handoff_highwater(&self) -> u64 {
        self.handoff_highwater.load(Ordering::Relaxed)
    }

    /// Traces in mailboxes now, across all producers.
    pub(crate) fn current_occupancy(&self) -> u64 {
        self.producers.read().iter().map(|p| p.occupancy()).sum()
    }

    /// Producers currently registered (live, or retired with work left).
    pub(crate) fn producers_live(&self) -> usize {
        self.producers.read().len()
    }
}

/// RAII guard a worker thread holds for its whole life: the drop (normal
/// exit or unwinding panic) decrements the live-worker count, and the last
/// one out marks the plane dead.
pub(crate) struct WorkerGuard<T: Send> {
    plane: Arc<IngestPlane<T>>,
}

impl<T: Send> WorkerGuard<T> {
    pub(crate) fn new(plane: Arc<IngestPlane<T>>) -> Self {
        Self { plane }
    }
}

impl<T: Send> Drop for WorkerGuard<T> {
    fn drop(&mut self) {
        if self.plane.workers_alive.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.plane.mark_dead();
        }
    }
}

#[cfg(test)]
impl<T> Producer<T> {
    /// Word capacity of the mailbox's arena.
    pub(crate) fn mailbox_word_capacity(&self) -> usize {
        self.mailbox.lock().arena.word_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_trace::{Event, Trace};
    use std::collections::HashSet;

    /// The test message: the id of the first trace a handoff carries.
    fn first_id(arena: &mut TraceArena) -> u64 {
        arena.traces().next().map_or(u64::MAX, |(id, _, _)| id)
    }

    /// A sealed trace of `records` fences.
    fn fences(id: u64, records: usize) -> Trace {
        let mut trace = Trace::new(id);
        for _ in 0..records {
            trace.push(Event::Fence.here());
        }
        trace
    }

    /// Stages trace `id` of `records` packed records through the one stage
    /// path.
    fn stage(
        plane: &IngestPlane<u64>,
        producer: &Producer<u64>,
        id: u64,
        records: usize,
    ) -> Result<(), PlaneClosed> {
        let mut staged = producer.staged.lock();
        let trace = fences(id, records);
        plane.stage(producer, &mut staged, records, |a| a.push_trace(trace), first_id)
    }

    /// No interleaving of producers registering, staging, and exiting with
    /// concurrent stealing workers loses or duplicates a trace — whether it
    /// reaches a worker by a mailbox take or by an idle take.
    #[test]
    fn no_lost_or_duplicated_traces_under_producer_exit_races() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 500;
        let plane: Arc<IngestPlane<u64>> = Arc::new(IngestPlane::new(2, IngestCounters::default()));
        let seen = Mutex::new(HashSet::new());
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let plane = plane.clone();
                s.spawn(move || {
                    // Fresh producer per thread; retired the moment it is
                    // done — the exit race under test.
                    let producer = plane.register();
                    for i in 0..PER_PRODUCER {
                        stage(&plane, &producer, p * PER_PRODUCER + i, 1 + (i % 3) as usize)
                            .unwrap();
                    }
                    producer.retire();
                });
            }
            for w in 0..2 {
                let plane = plane.clone();
                let seen = &seen;
                s.spawn(move || {
                    let mut spare = TraceArena::new();
                    while let Some((first, n)) = plane.next_batch(w, &mut spare, first_id) {
                        assert_eq!(n, spare.sealed() as u64);
                        assert_eq!(first, first_id(&mut spare));
                        for (id, _, _) in spare.traces() {
                            assert!(seen.lock().insert(id), "trace {id} delivered twice");
                        }
                        spare.clear();
                    }
                });
            }
            // Close once everything is accounted for: the idle takes ship
            // what the exiting producers left staged.
            while seen.lock().len() < (PRODUCERS * PER_PRODUCER) as usize {
                std::thread::yield_now();
            }
            plane.close();
        });
        assert_eq!(seen.lock().len(), (PRODUCERS * PER_PRODUCER) as usize);
        assert_eq!(plane.current_occupancy(), 0);
        assert_eq!(plane.counters.rings_registered.get(), PRODUCERS);
    }

    /// A producer hands over while its mailbox is empty and stages behind a
    /// full one; a take lets the next submission hand everything staged
    /// over in one handoff.
    #[test]
    fn traces_batch_exactly_while_the_mailbox_is_full() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        stage(&plane, &producer, 0, 1).unwrap();
        assert_eq!(producer.occupancy(), 1, "an empty mailbox takes the trace at once");
        for id in 1..4 {
            stage(&plane, &producer, id, 1).unwrap();
        }
        assert_eq!(producer.staged.lock().arena.sealed(), 3, "a full mailbox leaves them staged");
        let mut spare = TraceArena::new();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((0, 1)));
        stage(&plane, &producer, 4, 1).unwrap();
        assert_eq!(producer.occupancy(), 4, "the next submission hands all four over");
        assert!(producer.staged.lock().arena.is_empty());
        spare.clear();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((1, 4)));
        assert_eq!(plane.handoff_highwater(), 4);
        assert_eq!(plane.counters.backpressure_stalls.get(), 0, "within the bound nothing stalls");
    }

    /// Records staged or in the mailbox stay within the bound: a submission
    /// that would pass it while the mailbox is full waits for a take
    /// (counting the stall), and an empty mailbox admits a trace of any
    /// size.
    #[test]
    fn the_record_bound_backpressures_the_producer() {
        let plane: Arc<IngestPlane<u64>> = Arc::new(IngestPlane::new(1, IngestCounters::default()));
        let producer = plane.register();
        stage(&plane, &producer, 0, 2 * MAX_STAGED_RECORDS).unwrap();
        assert_eq!(producer.occupancy(), 1, "an empty mailbox admits any size");
        let staged = Arc::new(AtomicBool::new(false));
        let blocked = {
            let (plane, producer, staged) = (plane.clone(), producer.clone(), staged.clone());
            std::thread::spawn(move || {
                stage(&plane, &producer, 1, 1).unwrap();
                staged.store(true, Ordering::Release);
            })
        };
        // The stall is counted before the wait, and nothing can land before
        // the take below, so this holds however late the thread runs.
        while plane.counters.backpressure_stalls.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!staged.load(Ordering::Acquire), "a submission over the bound must block");
        let mut spare = TraceArena::new();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((0, 1)));
        blocked.join().unwrap();
        assert_eq!(producer.occupancy(), 1, "the waiting trace went over after the take");
        // Short traces share the bound until the next would pass it.
        spare.clear();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((1, 1)));
        stage(&plane, &producer, 2, 1).unwrap();
        stage(&plane, &producer, 3, MAX_STAGED_RECORDS - 2).unwrap();
        assert_eq!(plane.counters.backpressure_stalls.get(), 1, "within the bound nothing stalls");
        assert_eq!(producer.staged.lock().arena.sealed_records(), MAX_STAGED_RECORDS - 2);
    }

    /// An empty mailbox before a non-empty staged arena takes what is staged
    /// first when the next trace would not fit beside it, and the trace then
    /// waits for that handoff's take: every handoff of short traces stays
    /// within the bound.
    #[test]
    fn a_handoff_never_passes_the_bound_for_short_traces() {
        let plane: Arc<IngestPlane<u64>> = Arc::new(IngestPlane::new(1, IngestCounters::default()));
        let producer = plane.register();
        stage(&plane, &producer, 0, 1).unwrap();
        stage(&plane, &producer, 1, MAX_STAGED_RECORDS - 1).unwrap();
        let mut spare = TraceArena::new();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((0, 1)));
        let waiting = {
            let (plane, producer) = (plane.clone(), producer.clone());
            std::thread::spawn(move || stage(&plane, &producer, 2, 2))
        };
        while plane.counters.backpressure_stalls.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        spare.clear();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((1, 1)), "trace 1 went over alone");
        waiting.join().unwrap().unwrap();
        spare.clear();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((2, 1)), "trace 2 followed alone");
        assert_eq!(plane.handoff_highwater(), 1);
    }

    /// A worker can take a handoff the moment `full` is published, before
    /// its producer adds it to `pending`; the producer's sum must wrap back
    /// into range instead of overflowing.
    #[test]
    fn a_handoff_tolerates_a_take_before_its_counter_is_bumped() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        // What a racing take leaves behind: the counter one below zero.
        plane.pending.fetch_sub(1, Ordering::SeqCst);
        stage(&plane, &producer, 7, 1).unwrap();
        assert_eq!(plane.pending.load(Ordering::SeqCst), 0);
    }

    /// When the last worker dies, the mailbox's message is discarded — and
    /// its drop guard still runs, which is how the engine's `outstanding`
    /// counter settles after a worker panic — and later submissions fail.
    #[test]
    fn dead_plane_discards_the_mailbox_and_fails_submissions() {
        struct Settles(Arc<AtomicUsize>);
        impl Drop for Settles {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let settled = Arc::new(AtomicUsize::new(0));
        let plane: Arc<IngestPlane<Settles>> =
            Arc::new(IngestPlane::new(1, IngestCounters::default()));
        let producer = plane.register();
        let admit = |_: &mut TraceArena| Settles(settled.clone());
        for id in 0..3 {
            let mut staged = producer.staged.lock();
            plane.stage(&producer, &mut staged, 1, |a| a.push_trace(fences(id, 1)), admit).unwrap();
        }
        assert_eq!(settled.load(Ordering::SeqCst), 0);
        // The only worker exits (as a panic would): the handoff settles.
        drop(WorkerGuard::new(plane.clone()));
        assert!(plane.is_dead());
        assert_eq!(settled.load(Ordering::SeqCst), 1, "the mailbox's message must settle");
        let mut staged = producer.staged.lock();
        let err = plane.stage(&producer, &mut staged, 1, |a| a.push_trace(fences(3, 1)), admit);
        assert_eq!(err, Err(PlaneClosed));
        assert_eq!(staged.arena.sealed(), 3, "the caller discards what a dead plane refused");
    }

    /// A producer stalled on the bound is released with an error when the
    /// worker pool dies — a blocked submission must not hang forever.
    #[test]
    fn worker_death_unblocks_a_stalled_producer() {
        let plane: Arc<IngestPlane<u64>> = Arc::new(IngestPlane::new(1, IngestCounters::default()));
        let producer = plane.register();
        stage(&plane, &producer, 0, MAX_STAGED_RECORDS).unwrap();
        let stalled = {
            let (plane, producer) = (plane.clone(), producer.clone());
            std::thread::spawn(move || stage(&plane, &producer, 1, 1))
        };
        while plane.counters.backpressure_stalls.get() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(WorkerGuard::new(plane.clone()));
        assert_eq!(stalled.join().unwrap(), Err(PlaneClosed));
    }

    /// Retired producers leave the scan path once drained; one with a full
    /// mailbox survives until it is taken.
    #[test]
    fn retired_producers_are_pruned_once_drained() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        stage(&plane, &producer, 7, 1).unwrap();
        producer.retire();
        drop(producer);
        plane.prune_retired();
        assert_eq!(plane.producers_live(), 1, "a full mailbox keeps its producer");
        let (v, _) = plane
            .next_batch(0, &mut TraceArena::new(), first_id)
            .expect("a retired producer still drains");
        assert_eq!(v, 7);
        plane.prune_retired();
        assert_eq!(plane.producers_live(), 0, "drained and retired: pruned");
    }

    /// Publish invariant (c): a retired producer with something staged, or
    /// with its producer lock held (a handoff may be in flight), is never
    /// pruned.
    #[test]
    fn retired_producers_with_staged_state_survive_pruning() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        producer.staged.lock().arena.push_trace(Trace::new(7));
        producer.retire();
        plane.prune_retired();
        assert_eq!(plane.producers_live(), 1, "a staged trace keeps its producer");
        {
            let mut staged = producer.staged.lock();
            plane.prune_retired();
            assert_eq!(plane.producers_live(), 1, "a held producer lock keeps its producer");
            plane.hand_over(&producer, &mut staged, first_id).unwrap();
        }
        plane.prune_retired();
        assert_eq!(plane.producers_live(), 1, "the handoff keeps its producer");
        let mut spare = TraceArena::new();
        assert_eq!(plane.next_batch(0, &mut spare, first_id).expect("handoff drains").0, 7);
        assert_eq!(spare.traces().next().unwrap().0, 7, "the take got the staged trace");
        plane.prune_retired();
        assert_eq!(plane.producers_live(), 0, "drained with nothing staged: pruned");
    }

    /// A handoff trades the staged arena for the mailbox's cleared one, and
    /// a take trades the worker's cleared spare for the mailbox's: the
    /// records move without a copy, and the mailbox keeps the spare's
    /// buffer.
    #[test]
    fn handoffs_and_takes_trade_arenas_through_the_mailbox() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        let trace = fences(3, 1);
        let records = trace.packed().as_ptr();
        {
            let mut staged = producer.staged.lock();
            plane.stage(&producer, &mut staged, 1, |a| a.push_trace(trace), first_id).unwrap();
            assert!(staged.arena.is_empty(), "the producer stages on into the mailbox's arena");
        }
        let mut spare = TraceArena::new();
        for _ in 0..10 {
            spare.push(Event::Fence.here());
        }
        spare.seal(9);
        spare.clear();
        let spare_capacity = spare.word_capacity();
        assert_eq!(plane.try_take(&producer, &mut spare), Some((3, 1)));
        assert_eq!(spare.traces().next().unwrap().1.as_ptr(), records, "moved, not copied");
        assert_eq!(producer.mailbox_word_capacity(), spare_capacity, "the mailbox kept the spare");
    }

    /// A worker that finds every mailbox empty takes a staged arena whose
    /// producer lock is free, trading in its spare; a held producer lock
    /// reads as busy, not as empty.
    #[test]
    fn an_idle_worker_takes_staged_traces_under_a_free_producer_lock() {
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        stage(&plane, &producer, 0, 1).unwrap();
        stage(&plane, &producer, 1, 1).unwrap();
        let mut spare = TraceArena::new();
        assert!(matches!(plane.idle_take(0, &mut spare, &mut first_id), Idle::Empty));
        assert!(spare.is_empty(), "a full mailbox is left to the mailbox scan");
        assert_eq!(plane.try_claim(0, &mut spare), Some((0, 1)));
        spare.clear();
        {
            let _held = producer.staged.lock();
            assert!(matches!(plane.idle_take(0, &mut spare, &mut first_id), Idle::Busy));
        }
        let Idle::Took(got) = plane.idle_take(0, &mut spare, &mut first_id) else {
            panic!("the staged trace must be taken");
        };
        assert_eq!(got, (1, 1));
        assert_eq!(spare.traces().next().unwrap().0, 1);
        assert!(producer.staged.lock().arena.is_empty());
        assert_eq!(plane.counters.affinity_hits.get(), 2, "both takes count as claims");
        assert_eq!(plane.pending.load(Ordering::SeqCst), 0, "an idle take fills no mailbox");
    }

    /// Affinity: a lone preferred worker takes without steals; a foreign
    /// worker's takes are counted.
    #[test]
    fn steals_are_counted_only_for_foreign_takes() {
        let plane: IngestPlane<u64> = IngestPlane::new(2, IngestCounters::default());
        let producer = plane.register(); // pref = 0
        stage(&plane, &producer, 1, 1).unwrap();
        assert!(plane.try_claim(0, &mut TraceArena::new()).is_some());
        assert_eq!(plane.counters.steals.get(), 0, "an affinity take is not a steal");
        stage(&plane, &producer, 2, 1).unwrap();
        assert!(plane.try_claim(1, &mut TraceArena::new()).is_some());
        assert_eq!(plane.counters.steals.get(), 1, "a foreign take is a steal");
        assert_eq!(plane.counters.affinity_hits.get(), 1, "only the first take was on-affinity");
    }

    /// Per-producer samples track takes, mailbox occupancy, and the largest
    /// take.
    #[test]
    fn producer_stats_sample_takes_and_highwater() {
        let plane: IngestPlane<u64> = IngestPlane::new(2, IngestCounters::default());
        let a = plane.register();
        let b = plane.register();
        stage(&plane, &a, 1, 1).unwrap();
        stage(&plane, &a, 2, 1).unwrap();
        stage(&plane, &a, 3, 1).unwrap();
        assert!(plane.try_claim(0, &mut TraceArena::new()).is_some());
        stage(&plane, &a, 4, 1).unwrap();
        assert!(plane.try_claim(0, &mut TraceArena::new()).is_some());
        stage(&plane, &a, 5, 1).unwrap();
        stage(&plane, &b, 6, 1).unwrap();
        let stats = plane.producer_stats();
        assert_eq!(stats.len(), 2);
        let sa = stats.iter().find(|s| s.pref == 0).unwrap();
        let sb = stats.iter().find(|s| s.pref == 1).unwrap();
        assert_eq!((sa.handoffs, sa.occupancy, sa.highwater), (2, 1, 3));
        assert!(!sa.retired);
        assert_eq!((sb.handoffs, sb.occupancy, sb.highwater), (0, 1, 0));
        a.retire();
        assert!(plane.producer_stats().iter().any(|s| s.retired));
    }

    /// A parked worker records the park, and the handoff that recruits it
    /// is counted; a second handoff while the recruit is still in flight
    /// records a recruiting-CAS loss instead of a second wake.
    #[test]
    fn parker_counters_track_parks_wakes_and_recruit_losses() {
        let plane: Arc<IngestPlane<u64>> = Arc::new(IngestPlane::new(1, IngestCounters::default()));
        let producer = plane.register();
        let worker = {
            let plane = plane.clone();
            std::thread::spawn(move || {
                let mut got = 0u32;
                let mut spare = TraceArena::new();
                while plane.next_batch(0, &mut spare, first_id).is_some() {
                    spare.clear();
                    got += 1;
                }
                got
            })
        };
        // Wait until the worker is actually parked, then feed it.
        while plane.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        stage(&plane, &producer, 1, 1).unwrap();
        while plane.pending.load(Ordering::SeqCst) > 0 {
            std::thread::yield_now();
        }
        plane.close();
        assert_eq!(worker.join().unwrap(), 1);
        assert!(plane.counters.parks.get() >= 1, "the worker parked at least once");

        // Wake accounting, driven deterministically: enlist this thread as a
        // sleeper, then a wake must pop it and count exactly once.
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        plane.parked.lock().push((0, std::thread::current()));
        plane.sleepers.store(1, Ordering::SeqCst);
        plane.wake_one();
        assert_eq!(plane.counters.wakes.get(), 1, "popping a sleeper counts one wake");
        plane.wake_one();
        assert_eq!(plane.counters.wakes.get(), 1, "an empty stack wakes (and counts) nothing");

        // Recruit-loss path: with the recruiting flag pre-claimed and a
        // sleeper enlisted, a handoff that outnumbers the awake workers must
        // count a CAS loss rather than wake anyone.
        let plane: IngestPlane<u64> = IngestPlane::new(1, IngestCounters::default());
        let producer = plane.register();
        plane.recruiting.store(true, Ordering::SeqCst);
        plane.sleepers.store(1, Ordering::SeqCst);
        stage(&plane, &producer, 2, 1).unwrap();
        assert_eq!(plane.counters.recruit_cas_fails.get(), 1);
        assert_eq!(plane.counters.wakes.get(), 0, "a lost recruit CAS must not wake");
    }

    /// A lone producer's one mailbox never outnumbers the awake workers, so
    /// the producer recruits a sleeper when it is left behind an untaken
    /// mailbox — once, not per staged trace.
    #[test]
    fn a_producer_left_behind_recruits_a_sleeper() {
        let plane: IngestPlane<u64> = IngestPlane::new(2, IngestCounters::default());
        let producer = plane.register();
        // Worker 1 sleeps; worker 0 is awake but busy checking.
        let enlist = || {
            plane.parked.lock().push((1, std::thread::current()));
            plane.sleepers.store(1, Ordering::SeqCst);
        };
        enlist();
        stage(&plane, &producer, 0, 1).unwrap();
        assert_eq!(plane.counters.wakes.get(), 0, "one full mailbox, one awake worker");
        stage(&plane, &producer, 1, 1).unwrap();
        assert_eq!(plane.counters.wakes.get(), 1, "left behind the untaken mailbox");
        assert_eq!(plane.sleepers.load(Ordering::SeqCst), 0);
        enlist();
        plane.recruiting.store(false, Ordering::SeqCst);
        stage(&plane, &producer, 2, 1).unwrap();
        assert_eq!(plane.counters.wakes.get(), 1, "already behind: no second recruit");
    }
}
