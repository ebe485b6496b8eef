//! Recovery procedures for crash-point exploration.
//!
//! [`pmtest_core::explore()`] enumerates reachable post-crash images; the
//! procs here say what "recovers correctly" means for each workload, in the
//! recovery-invariant discipline of persistent data structures: mount the
//! raw image, run the structure's recovery (refusing images that provably
//! lost acknowledged data), then check the structure's invariants on the
//! recovered state.
//!
//! The queue and hashmap procs assume an *insert-only* recorded window
//! (`begin_crash_recording` after any dequeues/removes): their
//! count-vs-reachable refusal relies on the protocol writing the count only
//! after the publishing link's fence, which removal paths do not preserve
//! in the same direction.

use std::sync::Arc;

use pmtest_core::explore::RecoveryProc;
use pmtest_pmem::{PmHeap, PmPool};
use pmtest_pmfs::{Pmfs, PmfsOptions};

use crate::fault::FaultSet;
use crate::hashmap_ll::HashMapLl;
use crate::kv::{CheckMode, KvMap};
use crate::queue::PmQueue;

/// Walk bound shared by the raw chain walks (a torn pointer can form a
/// cycle; the mounted structures carry their own bound too).
const WALK_LIMIT: usize = 1_000_000;

fn mount_pool(image: &[u8]) -> Arc<PmPool> {
    let pool = Arc::new(PmPool::untracked(image.len()));
    pool.restore(image);
    pool
}

/// Recovery for [`PmQueue`] over an enqueue-only recorded window.
///
/// `recover` walks the chain from `head`, refuses images whose durable
/// `count` exceeds the reachable items (an acknowledged enqueue whose link
/// never persisted), then repairs the derived `tail` and `count` fields
/// from the walk — the original algorithm's recovery argument. `check`
/// asserts FIFO-prefix semantics on the recovered image: the reachable
/// items are a prefix of the enqueued sequence, nothing durable at
/// recording start is lost, and the repaired tail/count agree with the
/// walk.
pub struct QueueRecovery {
    root_size: u64,
    expected: Vec<Vec<u8>>,
    prior: usize,
}

impl QueueRecovery {
    /// Creates the proc: `root_size` is the heap root-area size the queue
    /// was created with, `expected` the full enqueued sequence (prior +
    /// recorded), `prior` how many of those were durable before recording
    /// started.
    #[must_use]
    pub fn new(root_size: u64, expected: Vec<Vec<u8>>, prior: usize) -> Self {
        Self { root_size, expected, prior }
    }

    fn mount(&self, image: &[u8]) -> Result<(PmQueue, Arc<PmPool>, u64), String> {
        let pool = mount_pool(image);
        let heap = Arc::new(PmHeap::new(pool.clone(), self.root_size));
        let base = heap.root().start();
        let q = PmQueue::open(heap, CheckMode::None, FaultSet::none())
            .map_err(|e| format!("open queue: {e}"))?;
        Ok((q, pool, base))
    }

    /// Raw walk from `head`, returning the node addresses in order.
    fn chain(pool: &PmPool, base: u64) -> Result<Vec<u64>, String> {
        let mut nodes = Vec::new();
        let mut cur = pool.read_u64(base).map_err(|e| format!("read head: {e}"))?;
        while cur != 0 {
            if nodes.len() >= WALK_LIMIT {
                return Err("queue chain cycles (torn next pointer)".to_owned());
            }
            nodes.push(cur);
            cur = pool.read_u64(cur).map_err(|e| format!("torn next pointer: {e}"))?;
        }
        Ok(nodes)
    }
}

impl RecoveryProc for QueueRecovery {
    fn name(&self) -> &str {
        "queue"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let (q, pool, base) = self.mount(image)?;
        let items = q.items().map_err(|e| format!("unwalkable chain: {e}"))?;
        let count = pool.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize > items.len() {
            return Err(format!(
                "acknowledged enqueue lost: durable count {count} exceeds {} reachable item(s)",
                items.len()
            ));
        }
        // Repair the derived fields from the walk: tail = last reachable
        // node, count = reachable items.
        let nodes = Self::chain(&pool, base)?;
        let last = nodes.last().copied().unwrap_or(0);
        pool.write_u64(base + 8, last).map_err(|e| format!("repair tail: {e}"))?;
        pool.write_u64(base + 16, items.len() as u64).map_err(|e| format!("repair count: {e}"))?;
        image.copy_from_slice(&pool.snapshot());
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let (q, pool, base) = self.mount(image)?;
        let items = q.items().map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        if items.len() < self.prior {
            return Err(format!(
                "previously durable item lost: {} reachable, {} were durable at start",
                items.len(),
                self.prior
            ));
        }
        if items.len() > self.expected.len() {
            return Err(format!(
                "{} reachable items but only {} were enqueued",
                items.len(),
                self.expected.len()
            ));
        }
        for (i, (got, want)) in items.iter().zip(&self.expected).enumerate() {
            if got != want {
                return Err(format!("item {i} torn: got {got:?}, want {want:?}"));
            }
        }
        let count = pool.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize != items.len() {
            return Err(format!("count {count} disagrees with {} reachable items", items.len()));
        }
        let nodes = Self::chain(&pool, base)?;
        let tail = pool.read_u64(base + 8).map_err(|e| format!("read tail: {e}"))?;
        if tail != nodes.last().copied().unwrap_or(0) {
            return Err(format!("tail {tail:#x} is not the last reachable node"));
        }
        Ok(())
    }
}

/// Recovery for [`HashMapLl`] over an insert-only recorded window with
/// distinct keys.
///
/// `recover` walks every bucket chain, refuses images whose durable `count`
/// exceeds the reachable entries (an acknowledged insert whose publish
/// never persisted), then repairs `count` from the walk. `check` asserts
/// that every reachable entry carries a value that was actually inserted
/// (no torn nodes are reachable), that every key durable at recording
/// start is still reachable, and that no key appears twice.
pub struct HashMapRecovery {
    root_size: u64,
    nbuckets: u64,
    expected: Vec<(u64, Vec<u8>)>,
    prior_keys: Vec<u64>,
}

impl HashMapRecovery {
    /// Creates the proc: `expected` is every `(key, value)` ever inserted
    /// (prior + recorded, distinct keys), `prior_keys` the keys durable
    /// before recording started.
    #[must_use]
    pub fn new(
        root_size: u64,
        nbuckets: u64,
        expected: Vec<(u64, Vec<u8>)>,
        prior_keys: Vec<u64>,
    ) -> Self {
        Self { root_size, nbuckets, expected, prior_keys }
    }

    fn mount(&self, image: &[u8]) -> Result<(HashMapLl, Arc<PmPool>, u64), String> {
        let pool = mount_pool(image);
        let heap = Arc::new(PmHeap::new(pool.clone(), self.root_size));
        let base = heap.root().start();
        let m = HashMapLl::open(heap, self.nbuckets, CheckMode::None, FaultSet::none())
            .map_err(|e| format!("open hashmap: {e}"))?;
        Ok((m, pool, base))
    }
}

impl RecoveryProc for HashMapRecovery {
    fn name(&self) -> &str {
        "hashmap_ll"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let (m, pool, base) = self.mount(image)?;
        let entries = m.entries().map_err(|e| format!("unwalkable bucket chain: {e}"))?;
        let count = pool.read_u64(base).map_err(|e| format!("read count: {e}"))?;
        if count as usize > entries.len() {
            return Err(format!(
                "acknowledged insert lost: durable count {count} exceeds {} reachable entries",
                entries.len()
            ));
        }
        pool.write_u64(base, entries.len() as u64).map_err(|e| format!("repair count: {e}"))?;
        image.copy_from_slice(&pool.snapshot());
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let (m, _pool, _base) = self.mount(image)?;
        let entries = m.entries().map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        let mut seen = Vec::new();
        for (key, value) in &entries {
            if seen.contains(key) {
                return Err(format!("key {key} reachable twice"));
            }
            seen.push(*key);
            match self.expected.iter().find(|(k, _)| k == key) {
                None => return Err(format!("reachable key {key} was never inserted (torn node)")),
                Some((_, want)) if want != value => {
                    return Err(format!("key {key} torn: got {value:?}, want {want:?}"));
                }
                Some(_) => {}
            }
        }
        for key in &self.prior_keys {
            if !seen.contains(key) {
                return Err(format!("previously durable key {key} lost"));
            }
        }
        if m.len().map_err(|e| format!("read count: {e}"))? as usize != entries.len() {
            return Err("count disagrees with reachable entries after recovery".to_owned());
        }
        Ok(())
    }
}

/// Invariant callback run against a mounted, recovered [`Pmfs`].
pub type PmfsInvariant = dyn Fn(&Pmfs) -> Result<(), String> + Send + Sync;

/// Recovery for [`Pmfs`]: real journal replay.
///
/// `recover` mounts the raw image — which runs undo-journal recovery
/// (rolling back uncommitted transactions, honoring the commit marker and
/// torn-entry checksums) — and writes the recovered pool back. `check`
/// remounts (recovery is idempotent: the journal is truncated), runs the
/// file system's structural [`check_consistency`](Pmfs::check_consistency),
/// then the workload-supplied invariant (e.g. write atomicity: a file holds
/// entirely-old or entirely-new content).
pub struct PmfsRecovery {
    opts: PmfsOptions,
    invariant: Box<PmfsInvariant>,
}

impl PmfsRecovery {
    /// Creates the proc. `opts` should carry the formatting parameters with
    /// every fault flag off — recovery itself must not inject faults.
    pub fn new(
        opts: PmfsOptions,
        invariant: impl Fn(&Pmfs) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        Self { opts, invariant: Box::new(invariant) }
    }
}

impl RecoveryProc for PmfsRecovery {
    fn name(&self) -> &str {
        "pmfs"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let fs = Pmfs::mount_image(image, self.opts)
            .map_err(|e| format!("mount / journal replay failed: {e}"))?;
        image.copy_from_slice(&fs.pool().snapshot());
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let fs = Pmfs::mount_image(image, self.opts)
            .map_err(|e| format!("remount of recovered image failed: {e}"))?;
        fs.check_consistency()?;
        (self.invariant)(&fs)
    }
}
