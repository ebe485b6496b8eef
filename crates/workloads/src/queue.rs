use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_interval::ByteRange;
use pmtest_pmem::{PersistMode, PmError, PmHeap, PmPool, PmRead};
use pmtest_trace::Event;

use crate::fault::{Fault, FaultSet};
use crate::kv::{CheckMode, KvError};

const NODE_HDR: u64 = 16; // next, vlen

/// A durable FIFO queue on low-level primitives, modelled on the persistent
/// lock-free queue the paper cites (Friedman et al., PPoPP 2018) — another
/// "custom CCS" beyond the WHISPER set.
///
/// Layout: root `{head: u64, tail: u64, count: u64}`; nodes
/// `{next: u64, vlen: u64, value bytes}`.
///
/// Enqueue protocol (persist-then-link, like the paper's publish pattern):
///
/// 1. write the node (value, `next = 0`); `clwb`; `sfence`;
/// 2. link it (`tail.next` or `head` when empty); `clwb`; `sfence`;
/// 3. swing `tail` (and bump `count`); `clwb`; `sfence`.
///
/// Recovery needs no log: a node is reachable only once step 2 persists,
/// and a lagging `tail` is fixed by walking one `next` link — exactly the
/// original algorithm's argument. The [`FaultSet`] sites remove or misplace
/// individual steps (Table 5's low-level classes).
pub struct PmQueue {
    pm: Arc<PmPool>,
    heap: Arc<PmHeap>,
    mode: PersistMode,
    base: u64,
    check: CheckMode,
    faults: FaultSet,
    op_lock: Mutex<()>,
}

impl PmQueue {
    /// Initializes an empty queue at the start of `heap`'s root area
    /// (needs 24 bytes).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] if the root area is too small.
    pub fn create(heap: Arc<PmHeap>, check: CheckMode, faults: FaultSet) -> Result<Self, KvError> {
        let root = heap.root();
        Self::root_fits(root.len())?;
        let pm = heap.pool().clone();
        let mode = PersistMode::X86;
        pm.write(root.start(), &[0u8; 24])?;
        mode.persist(&pm, ByteRange::with_len(root.start(), 24));
        Ok(Self { pm, heap, mode, base: root.start(), check, faults, op_lock: Mutex::new(()) })
    }

    /// Attaches to an existing queue at the start of `heap`'s root area
    /// without reinitializing it (e.g. on a pool restored from a crash
    /// image).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] if the root area is too small.
    pub fn open(heap: Arc<PmHeap>, check: CheckMode, faults: FaultSet) -> Result<Self, KvError> {
        let root = heap.root();
        Self::root_fits(root.len())?;
        let pm = heap.pool().clone();
        Ok(Self {
            pm,
            heap,
            mode: PersistMode::X86,
            base: root.start(),
            check,
            faults,
            op_lock: Mutex::new(()),
        })
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<PmPool> {
        &self.pm
    }

    /// Fails unless a root area of `root_len` bytes holds the queue's
    /// `{head, tail, count}` root.
    pub(crate) fn root_fits(root_len: u64) -> Result<(), KvError> {
        if root_len < 24 {
            return Err(KvError::Pm(PmError::OutOfMemory { requested: 24 }));
        }
        Ok(())
    }

    fn head_slot(&self) -> u64 {
        self.base
    }

    fn tail_slot(&self) -> u64 {
        self.base + 8
    }

    fn count_slot(&self) -> u64 {
        self.base + 16
    }

    fn persist_maybe(&self, range: ByteRange, skip_flush: bool, skip_fence: bool, double: bool) {
        if !skip_flush {
            self.mode.writeback(&self.pm, range);
            if double {
                self.mode.writeback(&self.pm, range);
            }
        }
        if !skip_fence {
            self.mode.order(&self.pm);
        }
    }

    /// Appends `value` at the tail.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on allocation or bounds errors.
    pub fn enqueue(&self, value: &[u8]) -> Result<(), KvError> {
        let _guard = self.op_lock.lock();
        let node_len = NODE_HDR + value.len() as u64;
        let node = self.heap.alloc(node_len, 8)?;
        let node_range = ByteRange::with_len(node, node_len);

        // 1. Build and persist the node.
        self.pm.write_u64(node, 0)?;
        self.pm.write_u64(node + 8, value.len() as u64)?;
        self.pm.write(node + NODE_HDR, value)?;
        let link_early = self.faults.is_active(Fault::QueueLinkBeforeNodePersist);
        if !link_early {
            self.persist_maybe(
                node_range,
                self.faults.is_active(Fault::QueueSkipFlushNode),
                self.faults.is_active(Fault::QueueSkipFenceNode),
                false,
            );
        }
        // 2. Link: predecessor's next, or head when empty.
        let tail = self.pm.read_u64(self.tail_slot())?;
        let link_slot = if tail == 0 { self.head_slot() } else { tail };
        let link = self.pm.write_u64(link_slot, node)?;
        self.persist_maybe(link, self.faults.is_active(Fault::QueueSkipFlushLink), false, false);
        if link_early {
            // Misplaced ordering: the node persists only after publication.
            self.persist_maybe(node_range, false, false, false);
        }
        // 3. Swing the tail and count.
        let tail_w = self.pm.write_u64(self.tail_slot(), node)?;
        let count = self.pm.read_u64(self.count_slot())?;
        let count_w = self.pm.write_u64(self.count_slot(), count + 1)?;
        self.persist_maybe(
            ByteRange::new(tail_w.start().min(count_w.start()), tail_w.end().max(count_w.end())),
            self.faults.is_active(Fault::QueueSkipFlushTail),
            false,
            self.faults.is_active(Fault::QueueDoubleFlushTail),
        );

        if self.check.enabled() {
            // The fundamental publish invariant, as the paper annotates
            // low-level CCS (§6.3).
            self.pm.emit(Event::IsOrderedBefore(node_range, link));
            self.pm.emit(Event::IsPersist(node_range));
            self.pm.emit(Event::IsPersist(link));
            self.pm.emit(Event::IsPersist(tail_w));
        }
        Ok(())
    }

    /// Removes and returns the head value, if any.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on bounds errors.
    pub fn dequeue(&self) -> Result<Option<Vec<u8>>, KvError> {
        let _guard = self.op_lock.lock();
        let head = self.pm.read_u64(self.head_slot())?;
        if head == 0 {
            return Ok(None);
        }
        let next = self.pm.read_u64(head)?;
        let vlen = self.pm.read_u64(head + 8)?;
        let value = self.pm.read_vec(ByteRange::with_len(head + NODE_HDR, vlen))?;
        // Unlink: an 8-byte atomic head update.
        let head_w = self.pm.write_u64(self.head_slot(), next)?;
        self.persist_maybe(head_w, self.faults.is_active(Fault::QueueSkipFlushLink), false, false);
        if next == 0 {
            let tail_w = self.pm.write_u64(self.tail_slot(), 0)?;
            self.persist_maybe(tail_w, false, false, false);
        }
        let count = self.pm.read_u64(self.count_slot())?;
        let count_w = self.pm.write_u64(self.count_slot(), count.saturating_sub(1))?;
        self.persist_maybe(count_w, false, false, false);
        if self.check.enabled() {
            self.pm.emit(Event::IsPersist(head_w));
            self.pm.emit(Event::IsPersist(count_w));
        }
        let _ = self.heap.free(head);
        Ok(Some(value))
    }

    /// Number of queued items.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on bounds errors.
    pub fn len(&self) -> Result<u64, KvError> {
        Ok(self.pm.read_u64(self.count_slot())?)
    }

    /// Whether the queue holds no items.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on bounds errors.
    pub fn is_empty(&self) -> Result<bool, KvError> {
        Ok(self.len()? == 0)
    }

    /// Walks the chain from `head`, returning the values in order (used by
    /// crash-validation checks).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on a corrupt image.
    pub fn items(&self) -> Result<Vec<Vec<u8>>, KvError> {
        let mut out = Vec::new();
        Self::walk(&*self.pm, self.head_slot(), |_, value| out.push(value.to_vec()))?;
        Ok(out)
    }

    /// The walk behind [`items`](Self::items), over any image — the live
    /// pool, or a raw crash image that [`QueueRecovery`] reads in place:
    /// hands each reachable node's address and value to `visit`, in chain
    /// order. `base` is the root's address. The walk stops after one node
    /// more than the image has bytes: a chain of distinct nodes in an
    /// N-byte image has at most N of them, so a longer walk has revisited an
    /// address — a torn next pointer closed a cycle.
    ///
    /// [`QueueRecovery`]: crate::QueueRecovery
    pub(crate) fn walk<M: PmRead + ?Sized>(
        pm: &M,
        base: u64,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<(), KvError> {
        let mut scratch = Vec::new();
        let limit = pm.size();
        let mut walked = 0;
        let mut cur = pm.read_u64(base)?;
        while cur != 0 && walked <= limit {
            let vlen = pm.read_u64(cur + 8)?;
            visit(cur, pm.read_bytes(ByteRange::with_len(cur + NODE_HDR, vlen), &mut scratch)?);
            walked += 1;
            cur = pm.read_u64(cur)?;
        }
        Ok(())
    }
}

impl fmt::Debug for PmQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmQueue")
            .field("check", &self.check)
            .field("faults", &format_args!("{}", self.faults))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> PmQueue {
        let heap = Arc::new(PmHeap::new(Arc::new(PmPool::untracked(1 << 20)), 4096));
        PmQueue::create(heap, CheckMode::None, FaultSet::none()).unwrap()
    }

    #[test]
    fn fifo_order() {
        let q = queue();
        for i in 0..10u64 {
            q.enqueue(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(q.len().unwrap(), 10);
        for i in 0..10u64 {
            assert_eq!(q.dequeue().unwrap(), Some(i.to_le_bytes().to_vec()));
        }
        assert_eq!(q.dequeue().unwrap(), None);
        assert!(q.is_empty().unwrap());
    }

    #[test]
    fn interleaved_enqueue_dequeue() {
        let q = queue();
        q.enqueue(b"a").unwrap();
        q.enqueue(b"b").unwrap();
        assert_eq!(q.dequeue().unwrap(), Some(b"a".to_vec()));
        q.enqueue(b"c").unwrap();
        assert_eq!(q.items().unwrap(), vec![b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(q.dequeue().unwrap(), Some(b"b".to_vec()));
        assert_eq!(q.dequeue().unwrap(), Some(b"c".to_vec()));
        // Drain to empty and refill (head/tail reset path).
        assert_eq!(q.dequeue().unwrap(), None);
        q.enqueue(b"d").unwrap();
        assert_eq!(q.dequeue().unwrap(), Some(b"d".to_vec()));
    }

    #[test]
    fn clean_protocol_passes_under_pmtest() {
        use pmtest_core::PmTestSession;
        let session = PmTestSession::builder().build();
        session.start();
        let pm = Arc::new(PmPool::new(1 << 20, session.sink()));
        let heap = Arc::new(PmHeap::new(pm, 4096));
        let q = PmQueue::create(heap, CheckMode::Checkers, FaultSet::none()).unwrap();
        for i in 0..8u64 {
            q.enqueue(&i.to_le_bytes()).unwrap();
            session.send_trace();
        }
        q.dequeue().unwrap();
        let report = session.finish();
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn link_before_persist_is_detected() {
        use pmtest_core::{DiagKind, PmTestSession};
        let session = PmTestSession::builder().build();
        session.start();
        let pm = Arc::new(PmPool::new(1 << 20, session.sink()));
        let heap = Arc::new(PmHeap::new(pm, 4096));
        let q = PmQueue::create(
            heap,
            CheckMode::Checkers,
            FaultSet::one(Fault::QueueLinkBeforeNodePersist),
        )
        .unwrap();
        q.enqueue(b"x").unwrap();
        let report = session.finish();
        assert!(report.has(DiagKind::NotOrderedBefore), "{report}");
    }

    #[test]
    fn crash_states_preserve_fifo_prefix_semantics() {
        // At any crash point, the recovered queue must be a prefix of the
        // enqueued sequence, possibly missing a tail that never linked.
        let pm = Arc::new(PmPool::untracked(1 << 18));
        let heap = Arc::new(PmHeap::new(pm.clone(), 4096));
        let q = PmQueue::create(heap, CheckMode::None, FaultSet::none()).unwrap();
        q.enqueue(b"one").unwrap();
        pm.begin_crash_recording();
        q.enqueue(b"two").unwrap();
        q.enqueue(b"three").unwrap();
        let sim = pmtest_pmem::crash::CrashSim::from_pool(&pm).unwrap();
        let check = |image: &[u8]| -> Result<(), String> {
            let pool = Arc::new(PmPool::untracked(image.len()));
            pool.restore(image);
            let heap = Arc::new(PmHeap::new(pool, 4096));
            let q = PmQueue {
                pm: heap.pool().clone(),
                heap: heap.clone(),
                mode: PersistMode::X86,
                base: 0,
                check: CheckMode::None,
                faults: FaultSet::none(),
                op_lock: Mutex::new(()),
            };
            let items = q.items().map_err(|e| e.to_string())?;
            let expected: [&[u8]; 3] = [b"one", b"two", b"three"];
            if items.len() > 3 {
                return Err("queue grew impossible items".to_owned());
            }
            for (i, item) in items.iter().enumerate() {
                if item != expected[i] {
                    return Err(format!("item {i} torn: {item:?}"));
                }
            }
            if items.is_empty() {
                return Err("durable first item lost".to_owned());
            }
            Ok(())
        };
        assert!(sim.find_violation(&check, 3000).is_none(), "clean queue is crash-consistent");
    }
}
