use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_interval::ByteRange;

use crate::{PmError, PmPool};

/// A first-fit free-list allocator carving objects out of a [`PmPool`].
///
/// The transactional libraries and the file system allocate their nodes,
/// log entries and blocks from a `PmHeap`. A *root area* at the start of the
/// pool is reserved for durable entry points (pool roots, superblocks) so
/// recovery code knows where to start reading.
///
/// **Substitution note** (see DESIGN.md): unlike PMDK's allocator, the free
/// list itself is volatile — after a simulated crash the workloads rebuild
/// reachability from their roots. This is sound for reproducing the paper
/// because PMTest's checkers test *ordering and durability of the
/// application's updates*, not allocator internals, and the paper's
/// workloads never recover allocator state mid-test either.
///
/// # Examples
///
/// ```
/// use pmtest_pmem::{PmHeap, PmPool};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), pmtest_pmem::PmError> {
/// let heap = PmHeap::new(Arc::new(PmPool::untracked(4096)), 64);
/// let a = heap.alloc(128, 8)?;
/// let b = heap.alloc(32, 8)?;
/// assert_ne!(a, b);
/// heap.free(a)?;
/// let c = heap.alloc(64, 8)?; // reuses the freed block
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
pub struct PmHeap {
    pool: Arc<PmPool>,
    root: ByteRange,
    state: Mutex<HeapState>,
}

#[derive(Debug)]
struct HeapState {
    /// start -> length of free blocks, address-ordered for coalescing.
    free: BTreeMap<u64, u64>,
    /// start -> length of live allocations.
    live: BTreeMap<u64, u64>,
}

impl PmHeap {
    /// Creates a heap over `pool`, reserving the first `root_size` bytes as
    /// the root area.
    ///
    /// # Panics
    ///
    /// Panics if `root_size` exceeds the pool size.
    #[must_use]
    pub fn new(pool: Arc<PmPool>, root_size: u64) -> Self {
        let size = pool.size();
        assert!(root_size <= size, "root area larger than pool");
        let mut free = BTreeMap::new();
        if root_size < size {
            free.insert(root_size, size - root_size);
        }
        Self {
            pool,
            root: Self::root_area(root_size),
            state: Mutex::new(HeapState { free, live: BTreeMap::new() }),
        }
    }

    /// The underlying pool.
    #[must_use]
    pub fn pool(&self) -> &Arc<PmPool> {
        &self.pool
    }

    /// The reserved root area.
    #[must_use]
    pub fn root(&self) -> ByteRange {
        self.root
    }

    /// The root area a heap created with `root_size` reserves: the first
    /// `root_size` bytes of its pool. Recovery code that reads a raw crash
    /// image finds the durable entry points here without building a heap.
    #[must_use]
    pub fn root_area(root_size: u64) -> ByteRange {
        ByteRange::new(0, root_size)
    }

    /// Allocates `size` bytes aligned to `align`, returning the offset.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::InvalidAlloc`] for a zero size or non-power-of-two
    /// alignment, and [`PmError::OutOfMemory`] when no free block fits.
    pub fn alloc(&self, size: u64, align: u64) -> Result<u64, PmError> {
        if size == 0 {
            return Err(PmError::InvalidAlloc { reason: "zero size" });
        }
        if align == 0 || !align.is_power_of_two() {
            return Err(PmError::InvalidAlloc { reason: "alignment must be a power of two" });
        }
        let mut state = self.state.lock();
        // First fit in address order.
        let mut found: Option<(u64, u64, u64)> = None; // (block_start, block_len, alloc_start)
        for (&start, &len) in &state.free {
            let aligned = (start + align - 1) & !(align - 1);
            let pad = aligned - start;
            if len >= pad + size {
                found = Some((start, len, aligned));
                break;
            }
        }
        let Some((start, len, aligned)) = found else {
            return Err(PmError::OutOfMemory { requested: size });
        };
        state.free.remove(&start);
        if aligned > start {
            state.free.insert(start, aligned - start);
        }
        let alloc_end = aligned + size;
        let block_end = start + len;
        if block_end > alloc_end {
            state.free.insert(alloc_end, block_end - alloc_end);
        }
        state.live.insert(aligned, size);
        Ok(aligned)
    }

    /// Marks `range` as a live allocation even though it was not handed out
    /// by [`alloc`](Self::alloc) — used when re-mounting a persistent image
    /// whose durable structures (file blocks, pool objects) must be carved
    /// out of the fresh volatile free list before any new allocation.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::InvalidAlloc`] if any byte of `range` is not
    /// currently free.
    pub fn reserve(&self, range: ByteRange) -> Result<(), PmError> {
        if range.is_empty() {
            return Err(PmError::InvalidAlloc { reason: "empty reserve" });
        }
        let mut state = self.state.lock();
        let Some((&start, &len)) = state.free.range(..=range.start()).next_back() else {
            return Err(PmError::InvalidAlloc { reason: "reserve target is not free" });
        };
        let end = start + len;
        if range.start() < start || range.end() > end {
            return Err(PmError::InvalidAlloc { reason: "reserve target is not free" });
        }
        state.free.remove(&start);
        if range.start() > start {
            state.free.insert(start, range.start() - start);
        }
        if end > range.end() {
            state.free.insert(range.end(), end - range.end());
        }
        state.live.insert(range.start(), range.len());
        Ok(())
    }

    /// Releases the allocation starting at `addr`, coalescing with adjacent
    /// free blocks.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::InvalidFree`] if `addr` is not a live allocation.
    pub fn free(&self, addr: u64) -> Result<(), PmError> {
        let mut state = self.state.lock();
        let Some(len) = state.live.remove(&addr) else {
            return Err(PmError::InvalidFree { addr });
        };
        let mut start = addr;
        let mut end = addr + len;
        // Coalesce with the predecessor.
        if let Some((&p_start, &p_len)) = state.free.range(..addr).next_back() {
            if p_start + p_len == start {
                state.free.remove(&p_start);
                start = p_start;
            }
        }
        // Coalesce with the successor.
        if let Some((&n_start, &n_len)) = state.free.range(addr..).next() {
            if n_start == end {
                state.free.remove(&n_start);
                end = n_start + n_len;
            }
        }
        state.free.insert(start, end - start);
        Ok(())
    }

    /// The byte range of a live allocation, if `addr` is one.
    #[must_use]
    pub fn allocation(&self, addr: u64) -> Option<ByteRange> {
        let state = self.state.lock();
        state.live.get(&addr).map(|&len| ByteRange::with_len(addr, len))
    }

    /// Total bytes currently allocated (excluding the root area).
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.state.lock().live.values().sum()
    }

    /// Total bytes currently free.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.state.lock().free.values().sum()
    }
}

impl fmt::Debug for PmHeap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmHeap")
            .field("root", &self.root)
            .field("live_bytes", &self.live_bytes())
            .field("free_bytes", &self.free_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(size: usize, root: u64) -> PmHeap {
        PmHeap::new(Arc::new(PmPool::untracked(size)), root)
    }

    #[test]
    fn allocations_do_not_overlap_root_or_each_other() {
        let h = heap(1024, 128);
        let a = h.alloc(100, 8).unwrap();
        let b = h.alloc(100, 8).unwrap();
        assert!(a >= 128 && b >= 128);
        let ra = h.allocation(a).unwrap();
        let rb = h.allocation(b).unwrap();
        assert!(!ra.overlaps(&rb));
    }

    #[test]
    fn alignment_is_respected() {
        let h = heap(4096, 0);
        let a = h.alloc(1, 1).unwrap();
        let b = h.alloc(8, 64).unwrap();
        assert_eq!(b % 64, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn free_and_reuse() {
        let h = heap(1024, 0);
        let a = h.alloc(64, 8).unwrap();
        let _b = h.alloc(64, 8).unwrap();
        h.free(a).unwrap();
        let c = h.alloc(64, 8).unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn coalescing_reassembles_the_arena() {
        let h = heap(1024, 0);
        let total_free = h.free_bytes();
        let a = h.alloc(100, 8).unwrap();
        let b = h.alloc(100, 8).unwrap();
        let c = h.alloc(100, 8).unwrap();
        h.free(b).unwrap();
        h.free(a).unwrap();
        h.free(c).unwrap();
        assert_eq!(h.free_bytes(), total_free);
        assert_eq!(h.live_bytes(), 0);
        // One big block again: a max-size allocation succeeds.
        let big = h.alloc(total_free, 1).unwrap();
        assert_eq!(big, 0);
    }

    #[test]
    fn errors() {
        let h = heap(256, 0);
        assert!(matches!(h.alloc(0, 8), Err(PmError::InvalidAlloc { .. })));
        assert!(matches!(h.alloc(8, 3), Err(PmError::InvalidAlloc { .. })));
        assert!(matches!(h.alloc(10_000, 8), Err(PmError::OutOfMemory { .. })));
        assert!(matches!(h.free(13), Err(PmError::InvalidFree { .. })));
        let a = h.alloc(8, 8).unwrap();
        h.free(a).unwrap();
        assert!(matches!(h.free(a), Err(PmError::InvalidFree { .. })), "double free rejected");
    }

    #[test]
    fn exhaustion_then_recovery() {
        let h = heap(256, 0);
        let mut addrs = Vec::new();
        while let Ok(a) = h.alloc(32, 8) {
            addrs.push(a);
        }
        assert_eq!(addrs.len(), 8);
        for a in addrs {
            h.free(a).unwrap();
        }
        assert_eq!(h.free_bytes(), 256);
    }

    #[test]
    fn reserve_carves_out_of_the_free_list() {
        let h = heap(1024, 0);
        h.reserve(ByteRange::new(100, 200)).unwrap();
        // The reserved range is live and never handed out again.
        assert_eq!(h.allocation(100), Some(ByteRange::new(100, 200)));
        let mut seen = Vec::new();
        while let Ok(a) = h.alloc(100, 1) {
            seen.push(a);
        }
        for a in &seen {
            assert!(!ByteRange::with_len(*a, 100).overlaps(&ByteRange::new(100, 200)));
        }
        // Reserving something already live fails.
        assert!(h.reserve(ByteRange::new(150, 160)).is_err());
        assert!(h.reserve(ByteRange::new(50, 150)).is_err(), "partial overlap refused");
        assert!(h.reserve(ByteRange::new(5, 5)).is_err(), "empty refused");
        // Reserved ranges free like normal allocations.
        h.free(100).unwrap();
        assert!(h.reserve(ByteRange::new(100, 200)).is_ok());
    }

    #[test]
    #[should_panic(expected = "root area larger than pool")]
    fn oversized_root_panics() {
        let _ = heap(64, 128);
    }
}
