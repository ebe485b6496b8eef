//! Recovery procedures for crash-point exploration.
//!
//! [`pmtest_core::explore()`] enumerates reachable post-crash images; the
//! procs here say what "recovers correctly" means for each workload, in the
//! recovery-invariant discipline of persistent data structures: run the
//! structure's recovery on the raw image (refusing images that provably
//! lost acknowledged data), then check the structure's invariants on the
//! recovered state.
//!
//! The queue and hashmap procs read and repair the image in place through
//! [`PmRead`], with the same walks the live structures use
//! ([`PmQueue::items`], [`HashMapLl::entries`]), and find the root where a
//! [`PmHeap`] puts it ([`PmHeap::root_area`]). Only PMFS mounts its image,
//! because its invariant callback takes a mounted [`Pmfs`].
//!
//! The queue and hashmap procs assume an *insert-only* recorded window
//! (`begin_crash_recording` after any dequeues/removes): their
//! count-vs-reachable refusal relies on the protocol writing the count only
//! after the publishing link's fence, which removal paths do not preserve
//! in the same direction.

use pmtest_core::explore::RecoveryProc;
use pmtest_pmem::{PmHeap, PmRead};
use pmtest_pmfs::{Pmfs, PmfsOptions};

use crate::hashmap_ll::HashMapLl;
use crate::kv::KvError;
use crate::queue::PmQueue;

/// Stores `value` little-endian at `addr` of `image`. The slot must be in
/// bounds: callers write only slots they have just read.
fn put_u64(image: &mut [u8], addr: u64, value: u64) {
    let at = addr as usize;
    image[at..at + 8].copy_from_slice(&value.to_le_bytes());
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

    /// The root's address, once the root area is known to hold it.
    fn base(&self) -> Result<u64, String> {
        let root = PmHeap::root_area(self.root_size);
        PmQueue::root_fits(root.len()).map_err(|e| format!("open queue: {e}"))?;
        Ok(root.start())
    }

    /// Refuses a chain the walk stopped on: more nodes than `image` has
    /// bytes means a torn next pointer closed a cycle.
    fn acyclic(reachable: usize, image: &[u8]) -> Result<(), String> {
        if reachable > image.len() {
            return Err("queue chain cycles (torn next pointer)".to_owned());
        }
        Ok(())
    }
}

impl RecoveryProc for QueueRecovery {
    fn name(&self) -> &str {
        "queue"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let base = self.base()?;
        let (mut reachable, mut last) = (0, 0);
        PmQueue::walk(&*image, base, |node, _| {
            reachable += 1;
            last = node;
        })
        .map_err(|e| format!("unwalkable chain: {e}"))?;
        let count = image.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize > reachable {
            return Err(format!(
                "acknowledged enqueue lost: durable count {count} exceeds {reachable} reachable \
                 item(s)"
            ));
        }
        Self::acyclic(reachable, image)?;
        // Repair the derived fields from the walk: tail = last reachable
        // node, count = reachable items.
        put_u64(image, base + 8, last);
        put_u64(image, base + 16, reachable as u64);
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let base = self.base()?;
        // The walk runs to its end before any item is judged, so a torn
        // pointer further down still reports as an unwalkable chain.
        let (mut reachable, mut last, mut torn) = (0, 0, None);
        PmQueue::walk(image, base, |node, got| {
            if torn.is_none() && self.expected.get(reachable).is_some_and(|want| got != want) {
                torn = Some((reachable, got.to_vec()));
            }
            reachable += 1;
            last = node;
        })
        .map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        if reachable < self.prior {
            return Err(format!(
                "previously durable item lost: {reachable} reachable, {} were durable at start",
                self.prior
            ));
        }
        if reachable > self.expected.len() {
            return Err(format!(
                "{reachable} reachable items but only {} were enqueued",
                self.expected.len()
            ));
        }
        if let Some((i, got)) = torn {
            return Err(format!("item {i} torn: got {got:?}, want {:?}", self.expected[i]));
        }
        let count = image.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize != reachable {
            return Err(format!("count {count} disagrees with {reachable} reachable items"));
        }
        Self::acyclic(reachable, image)?;
        let tail = image.read_u64(base + 8).map_err(|e| format!("read tail: {e}"))?;
        if tail != last {
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

    /// The root's address, once the root area is known to hold it.
    fn base(&self) -> Result<u64, String> {
        let root = PmHeap::root_area(self.root_size);
        HashMapLl::root_fits(root.len(), self.nbuckets)
            .map_err(|e| format!("open hashmap: {e}"))?;
        Ok(root.start())
    }

    /// What is wrong with a reachable entry, given the keys `seen` before
    /// it: a duplicate key, a key never inserted, or a torn value.
    fn entry_error(&self, seen: &[u64], key: u64, value: &[u8]) -> Option<String> {
        if seen.contains(&key) {
            return Some(format!("key {key} reachable twice"));
        }
        match self.expected.iter().find(|(k, _)| *k == key) {
            None => Some(format!("reachable key {key} was never inserted (torn node)")),
            Some((_, want)) if want != value => {
                Some(format!("key {key} torn: got {value:?}, want {want:?}"))
            }
            Some(_) => None,
        }
    }
}

impl RecoveryProc for HashMapRecovery {
    fn name(&self) -> &str {
        "hashmap_ll"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let base = self.base()?;
        let mut reachable = 0;
        HashMapLl::walk(&*image, base, self.nbuckets, |_, _| reachable += 1)
            .map_err(|e| format!("unwalkable bucket chain: {e}"))?;
        let count = image.read_u64(base).map_err(|e| format!("read count: {e}"))?;
        if count as usize > reachable {
            return Err(format!(
                "acknowledged insert lost: durable count {count} exceeds {reachable} reachable \
                 entries"
            ));
        }
        put_u64(image, base, reachable as u64);
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let base = self.base()?;
        // The walk runs to its end before the first bad entry is reported,
        // so a torn pointer further down still reports as an unwalkable
        // chain.
        let mut seen = Vec::new();
        let mut bad = None;
        HashMapLl::walk(image, base, self.nbuckets, |key, value| {
            if bad.is_none() {
                bad = self.entry_error(&seen, key, value);
            }
            seen.push(key);
        })
        .map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        if let Some(reason) = bad {
            return Err(reason);
        }
        for key in &self.prior_keys {
            if !seen.contains(key) {
                return Err(format!("previously durable key {key} lost"));
            }
        }
        let count = image.read_u64(base).map_err(|e| format!("read count: {}", KvError::Pm(e)))?;
        if count as usize != seen.len() {
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
