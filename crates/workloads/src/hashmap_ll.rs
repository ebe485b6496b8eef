use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_interval::ByteRange;
use pmtest_pmem::{PersistMode, PmError, PmHeap, PmPool, PmRead};
use pmtest_trace::Event;

use crate::fault::{Fault, FaultSet};
use crate::hashmap_tx::hash64;
use crate::kv::{CheckMode, KvError, KvMap};
use crate::queue::WALK_LIMIT;

const NODE_HDR: u64 = 24; // key, next, vlen

/// The low-level hashmap microbenchmark ("HashMap w/o TX" in Fig. 10):
/// crash consistency hand-built from `write`/`clwb`/`sfence`, no
/// transactional library — the paper's Fig. 2c style of CCS.
///
/// Insert protocol (publish-after-persist):
///
/// 1. write the new node (key, next = current head, value);
/// 2. `clwb` the node; `sfence` — the node is durable;
/// 3. write the bucket head pointer; `clwb`; `sfence` — the node is
///    published;
/// 4. update the element count; `clwb`; `sfence`.
///
/// Recovery needs no log: an unpublished node is simply unreachable. The
/// [`FaultSet`] sites remove or misplace individual flushes/fences —
/// Table 5's low-level *Ordering*, *Writeback* and *Performance* bug
/// classes. With [`CheckMode::Checkers`] the structure asserts its own
/// protocol with `isOrderedBefore`/`isPersist`, as the paper annotates
/// WHISPER (§6.3 uses 12 `isPersist` + 6 `isOrderedBefore`).
pub struct HashMapLl {
    pm: Arc<PmPool>,
    heap: Arc<PmHeap>,
    mode: PersistMode,
    base: u64,
    nbuckets: u64,
    check: CheckMode,
    faults: FaultSet,
    op_lock: Mutex<()>,
}

impl HashMapLl {
    /// Initializes a map with `nbuckets` buckets at the start of `heap`'s
    /// root area.
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] if the root area cannot hold the bucket array
    /// plus count.
    pub fn create(
        heap: Arc<PmHeap>,
        nbuckets: u64,
        check: CheckMode,
        faults: FaultSet,
    ) -> Result<Self, KvError> {
        let root = heap.root();
        let needed = Self::root_fits(root.len(), nbuckets)?;
        let pm = heap.pool().clone();
        let mode = PersistMode::X86;
        // count at base, buckets after.
        let zero = vec![0u8; needed as usize];
        pm.write(root.start(), &zero)?;
        mode.persist(&pm, ByteRange::with_len(root.start(), needed));
        Ok(Self {
            pm,
            heap,
            mode,
            base: root.start(),
            nbuckets,
            check,
            faults,
            op_lock: Mutex::new(()),
        })
    }

    /// Attaches to an existing map (same `nbuckets` it was created with) at
    /// the start of `heap`'s root area without reinitializing it (e.g. on a
    /// pool restored from a crash image).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] if the root area cannot hold the bucket array
    /// plus count.
    pub fn open(
        heap: Arc<PmHeap>,
        nbuckets: u64,
        check: CheckMode,
        faults: FaultSet,
    ) -> Result<Self, KvError> {
        let root = heap.root();
        Self::root_fits(root.len(), nbuckets)?;
        let pm = heap.pool().clone();
        Ok(Self {
            pm,
            heap,
            mode: PersistMode::X86,
            base: root.start(),
            nbuckets,
            check,
            faults,
            op_lock: Mutex::new(()),
        })
    }

    /// Walks every bucket chain, returning `(key, value)` pairs in bucket
    /// order (used by crash-validation checks).
    ///
    /// # Errors
    ///
    /// Returns [`KvError`] on a corrupt image.
    pub fn entries(&self) -> Result<Vec<(u64, Vec<u8>)>, KvError> {
        let mut out = Vec::new();
        Self::walk(&*self.pm, self.base, self.nbuckets, |key, value| {
            out.push((key, value.to_vec()));
        })?;
        Ok(out)
    }

    /// The walk behind [`entries`](Self::entries), over any image — the
    /// live pool, or a raw crash image that [`HashMapRecovery`] reads in
    /// place: hands each reachable `(key, value)` to `visit`, in bucket
    /// order, and stops after [`WALK_LIMIT`] + 1 entries in all (a torn
    /// pointer can form a cycle). `base` is the root's address.
    ///
    /// [`HashMapRecovery`]: crate::HashMapRecovery
    pub(crate) fn walk<M: PmRead + ?Sized>(
        pm: &M,
        base: u64,
        nbuckets: u64,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<(), KvError> {
        let mut scratch = Vec::new();
        let mut walked = 0;
        for b in 0..nbuckets {
            let mut cur = pm.read_u64(base + 8 + b * 8)?;
            while cur != 0 && walked <= WALK_LIMIT {
                let key = pm.read_u64(cur)?;
                let vlen = pm.read_u64(cur + 16)?;
                visit(key, pm.read_bytes(ByteRange::with_len(cur + NODE_HDR, vlen), &mut scratch)?);
                walked += 1;
                cur = pm.read_u64(cur + 8)?;
            }
        }
        Ok(())
    }

    /// Fails unless a root area of `root_len` bytes holds the count plus
    /// `nbuckets` bucket slots; returns the bytes they need.
    pub(crate) fn root_fits(root_len: u64, nbuckets: u64) -> Result<u64, KvError> {
        let needed = 8 + nbuckets * 8;
        if root_len < needed {
            return Err(KvError::Pm(PmError::OutOfMemory { requested: needed }));
        }
        Ok(needed)
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<PmPool> {
        &self.pm
    }

    fn count_slot(&self) -> u64 {
        self.base
    }

    fn bucket_slot(&self, key: u64) -> u64 {
        self.base + 8 + (hash64(key) % self.nbuckets) * 8
    }

    fn node_key(&self, node: u64) -> Result<u64, KvError> {
        Ok(self.pm.read_u64(node)?)
    }

    fn node_next(&self, node: u64) -> Result<u64, KvError> {
        Ok(self.pm.read_u64(node + 8)?)
    }

    fn find(&self, key: u64) -> Result<Option<(Option<u64>, u64)>, KvError> {
        let mut prev = None;
        let mut cur = self.pm.read_u64(self.bucket_slot(key))?;
        while cur != 0 {
            if self.node_key(cur)? == key {
                return Ok(Some((prev, cur)));
            }
            prev = Some(cur);
            cur = self.node_next(cur)?;
        }
        Ok(None)
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
}

impl KvMap for HashMapLl {
    fn insert(&self, key: u64, value: &[u8]) -> Result<(), KvError> {
        let _guard = self.op_lock.lock();
        // Remove-then-insert gives replace semantics with the same
        // publish-after-persist discipline.
        if self.find(key)?.is_some() {
            drop(_guard);
            self.remove(key)?;
            return self.insert(key, value);
        }
        let node_len = NODE_HDR + value.len() as u64;
        let node = self.heap.alloc(node_len, 8)?;
        let node_range = ByteRange::with_len(node, node_len);
        let slot = self.bucket_slot(key);
        let head = self.pm.read_u64(slot)?;

        // 1–2: build and persist the node.
        self.pm.write_u64(node, key)?;
        self.pm.write_u64(node + 8, head)?;
        self.pm.write_u64(node + 16, value.len() as u64)?;
        self.pm.write(node + NODE_HDR, value)?;
        if self.faults.is_active(Fault::HmLlLinkBeforeNodePersist) {
            // Misplaced ordering: publish first, persist the node later.
            let head_w = self.pm.write_u64(slot, node)?;
            self.persist_maybe(head_w, false, false, false);
            self.persist_maybe(node_range, false, false, false);
        } else {
            self.persist_maybe(
                node_range,
                self.faults.is_active(Fault::HmLlSkipFlushNode),
                self.faults.is_active(Fault::HmLlSkipFenceAfterNode),
                self.faults.is_active(Fault::HmLlDoubleFlushNode),
            );
            // 3: publish.
            let head_w = self.pm.write_u64(slot, node)?;
            self.persist_maybe(
                head_w,
                self.faults.is_active(Fault::HmLlSkipFlushHead),
                self.faults.is_active(Fault::HmLlSkipFenceAfterHead),
                self.faults.is_active(Fault::HmLlDoubleFlushHead),
            );
        }
        // 4: count.
        let count = self.pm.read_u64(self.count_slot())?;
        let count_w = self.pm.write_u64(self.count_slot(), count + 1)?;
        self.persist_maybe(count_w, self.faults.is_active(Fault::HmLlSkipFlushCount), false, false);

        if self.check.enabled() {
            // The protocol's two fundamental assertions (§3.1): the node
            // persists before it is published, and everything is durable
            // now.
            let slot_range = ByteRange::with_len(slot, 8);
            self.pm.emit(Event::IsOrderedBefore(node_range, slot_range));
            self.pm.emit(Event::IsPersist(node_range));
            self.pm.emit(Event::IsPersist(slot_range));
            self.pm.emit(Event::IsPersist(ByteRange::with_len(self.count_slot(), 8)));
        }
        Ok(())
    }

    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, KvError> {
        match self.find(key)? {
            Some((_, node)) => {
                let vlen = self.pm.read_u64(node + 16)?;
                Ok(Some(self.pm.read_vec(ByteRange::with_len(node + NODE_HDR, vlen))?))
            }
            None => Ok(None),
        }
    }

    fn remove(&self, key: u64) -> Result<bool, KvError> {
        let _guard = self.op_lock.lock();
        let Some((prev, node)) = self.find(key)? else {
            return Ok(false);
        };
        let next = self.node_next(node)?;
        // Unlink: a single 8-byte pointer update, atomic on PM.
        let target = match prev {
            Some(p) => p + 8,
            None => self.bucket_slot(key),
        };
        let w = self.pm.write_u64(target, next)?;
        self.persist_maybe(
            w,
            self.faults.is_active(Fault::HmLlSkipFlushHead),
            self.faults.is_active(Fault::HmLlSkipFenceAfterHead),
            false,
        );
        let count = self.pm.read_u64(self.count_slot())?;
        let count_w = self.pm.write_u64(self.count_slot(), count.saturating_sub(1))?;
        self.persist_maybe(count_w, self.faults.is_active(Fault::HmLlSkipFlushCount), false, false);
        if self.check.enabled() {
            self.pm.emit(Event::IsOrderedBefore(w, count_w));
            self.pm.emit(Event::IsPersist(w));
            self.pm.emit(Event::IsPersist(count_w));
        }
        let _ = self.heap.free(node);
        Ok(true)
    }

    fn len(&self) -> Result<u64, KvError> {
        Ok(self.pm.read_u64(self.count_slot())?)
    }
}

impl fmt::Debug for HashMapLl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HashMapLl")
            .field("nbuckets", &self.nbuckets)
            .field("check", &self.check)
            .field("faults", &format_args!("{}", self.faults))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> HashMapLl {
        let heap = Arc::new(PmHeap::new(Arc::new(PmPool::untracked(1 << 20)), 4096));
        HashMapLl::create(heap, 64, CheckMode::None, FaultSet::none()).unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let m = map();
        for k in 0..100u64 {
            m.insert(k, &crate::gen::value_for(k, 48)).unwrap();
        }
        assert_eq!(m.len().unwrap(), 100);
        for k in 0..100u64 {
            assert_eq!(m.get(k).unwrap(), Some(crate::gen::value_for(k, 48)));
        }
        assert!(m.remove(10).unwrap());
        assert!(!m.remove(10).unwrap());
        assert_eq!(m.len().unwrap(), 99);
    }

    #[test]
    fn replace_is_remove_then_insert() {
        let m = map();
        m.insert(5, b"one").unwrap();
        m.insert(5, b"two").unwrap();
        assert_eq!(m.get(5).unwrap(), Some(b"two".to_vec()));
        assert_eq!(m.len().unwrap(), 1);
    }

    #[test]
    fn clean_protocol_emits_no_failures_under_pmtest() {
        use pmtest_core::PmTestSession;
        let session = PmTestSession::builder().build();
        session.start();
        let pm = Arc::new(PmPool::new(1 << 20, session.sink()));
        let heap = Arc::new(PmHeap::new(pm, 4096));
        let m = HashMapLl::create(heap, 16, CheckMode::Checkers, FaultSet::none()).unwrap();
        for k in 0..20u64 {
            m.insert(k, b"value").unwrap();
            session.send_trace();
        }
        m.remove(3).unwrap();
        let report = session.finish();
        assert!(report.is_clean(), "clean protocol must pass: {report}");
    }

    #[test]
    fn missing_node_fence_is_detected() {
        use pmtest_core::{DiagKind, PmTestSession};
        let session = PmTestSession::builder().build();
        session.start();
        let pm = Arc::new(PmPool::new(1 << 20, session.sink()));
        let heap = Arc::new(PmHeap::new(pm, 4096));
        let m = HashMapLl::create(
            heap,
            16,
            CheckMode::Checkers,
            FaultSet::one(Fault::HmLlSkipFenceAfterNode),
        )
        .unwrap();
        m.insert(1, b"v").unwrap();
        let report = session.finish();
        assert!(report.has(DiagKind::NotOrderedBefore), "got {report}");
    }
}
