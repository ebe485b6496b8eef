use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use pmtest_obs::TelemetrySnapshot;
use pmtest_trace::Trace;

/// A bounded trace queue simulating the kernel FIFO of §4.5.
///
/// Crash-consistent *kernel modules* (the paper tests PMFS) cannot host the
/// checking engine; instead the kernel side pushes traces into a FIFO
/// (`/proc/PMTest`, 1024 entries) that a user-space pump drains into the
/// engine. Two details from the paper are reproduced:
///
/// * when the FIFO is full, the producer blocks on an interruptible wait
///   queue;
/// * it is woken only once the FIFO has drained below **half** capacity,
///   avoiding wakeup thrashing.
///
/// This FIFO models the *kernel↔user* boundary only; it is not on the
/// engine's own ingest path, which uses per-producer SPSC rings carrying
/// packed arenas (DESIGN.md §13). The user-space pump that drains this
/// FIFO submits into that plane like any other producer.
///
/// # Examples
///
/// ```
/// use pmtest_core::KernelFifo;
/// use pmtest_trace::Trace;
///
/// let fifo = KernelFifo::with_capacity(4);
/// assert!(fifo.push(Trace::new(0)));
/// assert_eq!(fifo.pop().map(|t| t.id()), Some(0));
/// fifo.close();
/// assert_eq!(fifo.pop(), None);
/// ```
pub struct KernelFifo {
    state: Mutex<FifoState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
    counters: FifoCounters,
}

struct FifoState {
    queue: VecDeque<Trace>,
    closed: bool,
}

/// Always-on occupancy and stall accounting. Counters are relaxed atomics;
/// the stall clocks are read only on the blocking paths, where a condvar
/// wait already dwarfs them.
#[derive(Default)]
struct FifoCounters {
    pushes: AtomicU64,
    pops: AtomicU64,
    occupancy_highwater: AtomicU64,
    push_stalls: AtomicU64,
    push_stall_ns: AtomicU64,
    pop_stalls: AtomicU64,
    pop_stall_ns: AtomicU64,
}

/// Lifetime statistics of a [`KernelFifo`] — how full the FIFO ran and how
/// long each side spent blocked on the other (§4.5's producer wait queue).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FifoStats {
    /// Traces accepted by [`KernelFifo::push`].
    pub pushes: u64,
    /// Traces handed out by [`KernelFifo::pop`] / [`KernelFifo::pop_batch`].
    pub pops: u64,
    /// Highest occupancy ever reached. At capacity, the producer has been
    /// put on the wait queue at least once.
    pub occupancy_highwater: u64,
    /// Times a push found the FIFO full and blocked.
    pub push_stalls: u64,
    /// Total nanoseconds pushes spent blocked on a full FIFO.
    pub push_stall_ns: u64,
    /// Times a pop found the FIFO empty and blocked.
    pub pop_stalls: u64,
    /// Total nanoseconds pops spent blocked on an empty FIFO.
    pub pop_stall_ns: u64,
}

impl Default for KernelFifo {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelFifo {
    /// The paper's FIFO depth.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Creates a FIFO with the paper's 1024-trace capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// Creates a FIFO with a custom capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be positive");
        Self {
            state: Mutex::new(FifoState { queue: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
            counters: FifoCounters::default(),
        }
    }

    /// Lifetime occupancy and stall statistics.
    #[must_use]
    pub fn stats(&self) -> FifoStats {
        FifoStats {
            pushes: self.counters.pushes.load(Ordering::Relaxed),
            pops: self.counters.pops.load(Ordering::Relaxed),
            occupancy_highwater: self.counters.occupancy_highwater.load(Ordering::Relaxed),
            push_stalls: self.counters.push_stalls.load(Ordering::Relaxed),
            push_stall_ns: self.counters.push_stall_ns.load(Ordering::Relaxed),
            pop_stalls: self.counters.pop_stalls.load(Ordering::Relaxed),
            pop_stall_ns: self.counters.pop_stall_ns.load(Ordering::Relaxed),
        }
    }

    /// Folds the FIFO's statistics into a telemetry snapshot (so a pump
    /// harness can merge them with [`Engine::telemetry_snapshot`]).
    ///
    /// [`Engine::telemetry_snapshot`]: crate::Engine::telemetry_snapshot
    pub fn snapshot_into(&self, snap: &mut TelemetrySnapshot) {
        let stats = self.stats();
        snap.push_counter("fifo_pushes", &[], stats.pushes);
        snap.push_counter("fifo_pops", &[], stats.pops);
        snap.push_counter("fifo_occupancy_highwater", &[], stats.occupancy_highwater);
        snap.push_counter("fifo_push_stalls", &[], stats.push_stalls);
        snap.push_counter("fifo_push_stall_ns", &[], stats.push_stall_ns);
        snap.push_counter("fifo_pop_stalls", &[], stats.pop_stalls);
        snap.push_counter("fifo_pop_stall_ns", &[], stats.pop_stall_ns);
        snap.push_gauge("fifo_capacity", &[], self.capacity as f64);
        snap.push_gauge("fifo_occupancy", &[], self.len() as f64);
    }

    /// The FIFO's statistics as a standalone telemetry snapshot.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// Maximum number of queued traces.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently queued traces.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.state.lock().queue.is_empty()
    }

    /// Enqueues a trace, blocking while the FIFO is full (the kernel module
    /// putting itself on the wait queue, §4.5). Returns `false` if the FIFO
    /// was closed.
    pub fn push(&self, trace: Trace) -> bool {
        let mut state = self.state.lock();
        if state.queue.len() >= self.capacity && !state.closed {
            // Producer goes on the wait queue: count the stall and clock it.
            self.counters.push_stalls.fetch_add(1, Ordering::Relaxed);
            let stalled = Instant::now();
            while state.queue.len() >= self.capacity && !state.closed {
                self.not_full.wait(&mut state);
            }
            self.counters
                .push_stall_ns
                .fetch_add(stalled.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if state.closed {
            return false;
        }
        state.queue.push_back(trace);
        let occupancy = state.queue.len() as u64;
        drop(state);
        self.counters.pushes.fetch_add(1, Ordering::Relaxed);
        self.counters.occupancy_highwater.fetch_max(occupancy, Ordering::Relaxed);
        self.not_empty.notify_one();
        true
    }

    /// Dequeues the next trace, blocking while the FIFO is empty. Returns
    /// `None` once the FIFO is closed *and* drained.
    pub fn pop(&self) -> Option<Trace> {
        let mut state = self.state.lock();
        let mut stalled = None;
        loop {
            if let Some(trace) = state.queue.pop_front() {
                // Paper: the producer "gets interrupted and resumes execution
                // when the FIFO is less than half full".
                self.wake_below_half(state.queue.len());
                drop(state);
                self.settle_pop_stall(stalled);
                self.counters.pops.fetch_add(1, Ordering::Relaxed);
                return Some(trace);
            }
            if state.closed {
                drop(state);
                self.settle_pop_stall(stalled);
                return None;
            }
            if stalled.is_none() {
                self.counters.pop_stalls.fetch_add(1, Ordering::Relaxed);
                stalled = Some(Instant::now());
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Wakes blocked producers once `len` queued traces leave the FIFO less
    /// than half full — in exact arithmetic, so a one-slot FIFO wakes its
    /// producer when it empties (`len < capacity / 2` never holds there).
    fn wake_below_half(&self, len: usize) {
        if 2 * len < self.capacity {
            self.not_full.notify_all();
        }
    }

    /// Accumulates the time a pop spent blocked, if it blocked at all.
    fn settle_pop_stall(&self, stalled: Option<Instant>) {
        if let Some(since) = stalled {
            self.counters
                .pop_stall_ns
                .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Dequeues up to `max` traces in one lock acquisition, blocking while
    /// the FIFO is empty. Returns an empty vector once the FIFO is closed
    /// *and* drained.
    ///
    /// This is the batched drain for the user-space pump: everything popped
    /// here can go to the engine via `Engine::submit_batch` as one dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    pub fn pop_batch(&self, max: usize) -> Vec<Trace> {
        assert!(max > 0, "pop_batch needs a positive batch size");
        let mut state = self.state.lock();
        let mut stalled = None;
        loop {
            if !state.queue.is_empty() {
                let take = max.min(state.queue.len());
                let batch: Vec<Trace> = state.queue.drain(..take).collect();
                self.wake_below_half(state.queue.len());
                drop(state);
                self.settle_pop_stall(stalled);
                self.counters.pops.fetch_add(batch.len() as u64, Ordering::Relaxed);
                return batch;
            }
            if state.closed {
                drop(state);
                self.settle_pop_stall(stalled);
                return Vec::new();
            }
            if stalled.is_none() {
                self.counters.pop_stalls.fetch_add(1, Ordering::Relaxed);
                stalled = Some(Instant::now());
            }
            self.not_empty.wait(&mut state);
        }
    }

    /// Closes the FIFO: producers stop being admitted, consumers drain what
    /// remains and then observe `None`.
    pub fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        drop(state);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

impl fmt::Debug for KernelFifo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("KernelFifo")
            .field("capacity", &self.capacity)
            .field("len", &state.queue.len())
            .field("closed", &state.closed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Polls `done` until it holds, for at most ten seconds. The FIFO counts
    /// a stall under its lock before the blocked side waits, so waiting for
    /// the counted stall holds however late that thread is scheduled.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn fifo_order_preserved() {
        let fifo = KernelFifo::with_capacity(8);
        for id in 0..5 {
            assert!(fifo.push(Trace::new(id)));
        }
        assert_eq!(fifo.len(), 5);
        for id in 0..5 {
            assert_eq!(fifo.pop().map(|t| t.id()), Some(id));
        }
        assert!(fifo.is_empty());
    }

    #[test]
    fn push_blocks_until_half_drained() {
        let fifo = Arc::new(KernelFifo::with_capacity(4));
        for id in 0..4 {
            fifo.push(Trace::new(id));
        }
        let producer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.push(Trace::new(99)))
        };
        assert!(eventually(|| fifo.stats().push_stalls == 1), "producer must block");
        assert!(!producer.is_finished(), "producer must block on a full fifo");
        // One pop leaves 3 >= capacity/2: still blocked. The pause gives a
        // wrongly woken producer time to finish; it cannot fail a correct run.
        fifo.pop().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(!producer.is_finished(), "woken only below half capacity");
        // Two more pops drop below half (1 < 2): producer resumes.
        fifo.pop().unwrap();
        fifo.pop().unwrap();
        assert!(producer.join().unwrap());
        let remaining: Vec<u64> =
            std::iter::from_fn(|| if fifo.is_empty() { None } else { fifo.pop().map(|t| t.id()) })
                .collect();
        assert_eq!(remaining, [3, 99]);
    }

    #[test]
    fn close_unblocks_everyone() {
        // A producer blocked on a full FIFO, with nothing draining the slot.
        let fifo = Arc::new(KernelFifo::with_capacity(1));
        fifo.push(Trace::new(0));
        let blocked_producer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.push(Trace::new(1)))
        };
        assert!(eventually(|| fifo.stats().push_stalls == 1), "producer must block");
        fifo.close();
        assert!(!blocked_producer.join().unwrap(), "closed fifo rejects");
        // The consumer side: it drains what is queued, then sees the close.
        let consumer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(t) = fifo.pop() {
                    seen.push(t.id());
                }
                seen
            })
        };
        assert_eq!(consumer.join().unwrap(), [0], "consumer drained then observed close");
        // A consumer blocked on an empty FIFO is released by the close too.
        let empty = Arc::new(KernelFifo::with_capacity(1));
        let blocked_consumer = {
            let empty = empty.clone();
            std::thread::spawn(move || empty.pop())
        };
        assert!(eventually(|| empty.stats().pop_stalls == 1), "consumer must block");
        empty.close();
        assert_eq!(blocked_consumer.join().unwrap(), None);
    }

    #[test]
    fn one_slot_fifo_wakes_its_producer_on_pop() {
        let fifo = Arc::new(KernelFifo::with_capacity(1));
        fifo.push(Trace::new(0));
        let producer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.push(Trace::new(1)))
        };
        assert!(eventually(|| fifo.stats().push_stalls == 1), "producer must block");
        assert_eq!(fifo.pop().map(|t| t.id()), Some(0));
        let woke = eventually(|| producer.is_finished());
        // Release a producer the pop failed to wake, so a lost wakeup fails
        // this test instead of hanging it.
        fifo.close();
        assert!(woke, "emptying a one-slot fifo must wake its blocked producer");
        assert!(producer.join().unwrap(), "the woken push lands");
        assert_eq!(fifo.pop().map(|t| t.id()), Some(1));
    }

    #[test]
    fn pop_batch_drains_up_to_max() {
        let fifo = KernelFifo::with_capacity(8);
        for id in 0..6 {
            assert!(fifo.push(Trace::new(id)));
        }
        let batch = fifo.pop_batch(4);
        assert_eq!(batch.iter().map(|t| t.id()).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let batch = fifo.pop_batch(4);
        assert_eq!(batch.iter().map(|t| t.id()).collect::<Vec<_>>(), [4, 5]);
        fifo.close();
        assert!(fifo.pop_batch(4).is_empty(), "closed and drained");
    }

    #[test]
    fn pop_batch_wakes_blocked_producer() {
        let fifo = Arc::new(KernelFifo::with_capacity(4));
        for id in 0..4 {
            fifo.push(Trace::new(id));
        }
        let producer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.push(Trace::new(99)))
        };
        assert!(eventually(|| fifo.stats().push_stalls == 1), "producer must block");
        assert!(!producer.is_finished(), "producer must block on a full fifo");
        // Draining four at once goes far below half capacity: wakes producer.
        assert_eq!(fifo.pop_batch(4).len(), 4);
        assert!(producer.join().unwrap());
        assert_eq!(fifo.pop().map(|t| t.id()), Some(99));
    }

    #[test]
    fn pop_on_closed_empty_returns_none() {
        let fifo = KernelFifo::new();
        assert_eq!(fifo.capacity(), KernelFifo::DEFAULT_CAPACITY);
        fifo.close();
        assert_eq!(fifo.pop(), None);
        assert!(!fifo.push(Trace::new(0)));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = KernelFifo::with_capacity(0);
    }

    #[test]
    fn stats_track_occupancy_and_stalls() {
        let fifo = Arc::new(KernelFifo::with_capacity(2));
        fifo.push(Trace::new(0));
        fifo.push(Trace::new(1));
        assert_eq!(fifo.stats().occupancy_highwater, 2);
        assert_eq!(fifo.stats().push_stalls, 0);
        let producer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.push(Trace::new(2)))
        };
        assert!(eventually(|| fifo.stats().push_stalls >= 1), "producer must block");
        assert_eq!(fifo.stats().push_stalls, 1, "full fifo stalls the producer");
        fifo.pop().unwrap();
        fifo.pop().unwrap();
        assert!(producer.join().unwrap());
        let stats = fifo.stats();
        assert_eq!(stats.pushes, 3);
        assert_eq!(stats.pops, 2);
        assert!(stats.push_stall_ns > 0, "stall time accumulates while blocked");
    }

    #[test]
    fn pop_stall_time_is_clocked() {
        let fifo = Arc::new(KernelFifo::with_capacity(4));
        let consumer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || fifo.pop_batch(4))
        };
        assert!(eventually(|| fifo.stats().pop_stalls == 1), "consumer must block");
        fifo.push(Trace::new(0));
        assert_eq!(consumer.join().unwrap().len(), 1);
        let stats = fifo.stats();
        assert_eq!(stats.pop_stalls, 1);
        assert!(stats.pop_stall_ns > 0);
        assert_eq!(stats.pops, 1);
    }

    #[test]
    fn snapshot_folds_into_telemetry() {
        let fifo = KernelFifo::with_capacity(8);
        for id in 0..3 {
            fifo.push(Trace::new(id));
        }
        fifo.pop().unwrap();
        let snap = fifo.telemetry_snapshot();
        assert_eq!(snap.counter("fifo_pushes"), Some(3));
        assert_eq!(snap.counter("fifo_pops"), Some(1));
        assert_eq!(snap.counter("fifo_occupancy_highwater"), Some(3));
        assert_eq!(snap.gauge("fifo_occupancy"), Some(2.0));
        assert_eq!(snap.gauge("fifo_capacity"), Some(8.0));
        // Folds into an existing snapshot without clobbering it.
        let mut merged = TelemetrySnapshot::default();
        merged.push_counter("engine_traces_checked", &[], 9);
        fifo.snapshot_into(&mut merged);
        assert_eq!(merged.counter("engine_traces_checked"), Some(9));
        assert_eq!(merged.counter("fifo_pushes"), Some(3));
    }
}
