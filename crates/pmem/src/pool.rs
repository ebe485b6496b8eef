use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmtest_interval::ByteRange;
use pmtest_trace::{Event, NullSink, SharedSink, Sink};

use crate::crash::{CrashSim, LogOp};
use crate::PmError;

/// A simulated persistent-memory pool.
///
/// The pool plays the role of the paper's mmap'd NVDIMM region: programs
/// store persistent data at byte offsets inside it and make those stores
/// durable with `clwb`/`sfence` (x86) or `ofence`/`dfence` (HOPS). Every
/// instrumented operation emits a [`pmtest_trace::Event`] into the sink the
/// pool was created with, which is how PMTest (or a baseline tool) observes
/// the program.
///
/// Reads are not traced — PMTest only tracks updates to persistency state
/// (§4.3).
///
/// Instrumented methods are `#[track_caller]`, so diagnostics point at the
/// application call site.
///
/// # Examples
///
/// ```
/// use pmtest_pmem::PmPool;
/// use pmtest_interval::ByteRange;
///
/// # fn main() -> Result<(), pmtest_pmem::PmError> {
/// let pool = PmPool::untracked(1024);
/// let written = pool.write(0, &[1, 2, 3, 4])?;
/// pool.persist_barrier(written);
/// assert_eq!(pool.read_vec(written)?, [1, 2, 3, 4]);
/// # Ok(())
/// # }
/// ```
pub struct PmPool {
    /// The memory image. Per-byte atomics (relaxed) instead of a lock: PM is
    /// shared by concurrent threads, and a global lock would serialize the
    /// workloads whose scalability Fig. 12 measures. Racing byte accesses
    /// behave like racing stores on real hardware: bytes, not locks.
    mem: Vec<AtomicU8>,
    sink: SharedSink,
    /// The crash log being recorded, with each op's call site for culprit
    /// attribution; `None` when no crash recording is active.
    crash_log: Mutex<Option<CrashSim>>,
}

impl PmPool {
    /// Creates a zero-initialized pool of `size` bytes whose instrumentation
    /// events go to `sink`.
    #[must_use]
    pub fn new(size: usize, sink: SharedSink) -> Self {
        let mut mem = Vec::with_capacity(size);
        mem.resize_with(size, || AtomicU8::new(0));
        Self { mem, sink, crash_log: Mutex::new(None) }
    }

    /// Creates an uninstrumented pool (events are discarded) — the "native"
    /// configuration that Figs. 10–12 normalize against.
    #[must_use]
    pub fn untracked(size: usize) -> Self {
        Self::new(size, Arc::new(NullSink))
    }

    /// Pool size in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.mem.len() as u64
    }

    /// The sink receiving this pool's instrumentation events.
    #[must_use]
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }

    fn check_range(&self, range: ByteRange) -> Result<(), PmError> {
        let size = self.size();
        if range.end() > size {
            return Err(PmError::OutOfBounds { range, pool_size: size });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads (untraced)
    // ------------------------------------------------------------------

    /// Copies `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), PmError> {
        let range = ByteRange::with_len(addr, buf.len() as u64);
        self.check_range(range)?;
        let base = addr as usize;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.mem[base + i].load(Ordering::Relaxed);
        }
        Ok(())
    }

    /// Reads `range` into a freshly allocated buffer.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_vec(&self, range: ByteRange) -> Result<Vec<u8>, PmError> {
        self.check_range(range)?;
        let mut out = vec![0u8; range.len() as usize];
        self.read(range.start(), &mut out)?;
        Ok(out)
    }

    /// Reads a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_u64(&self, addr: u64) -> Result<u64, PmError> {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_u32(&self, addr: u64) -> Result<u32, PmError> {
        let mut buf = [0u8; 4];
        self.read(addr, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Reads one byte at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    pub fn read_u8(&self, addr: u64) -> Result<u8, PmError> {
        let mut buf = [0u8; 1];
        self.read(addr, &mut buf)?;
        Ok(buf[0])
    }

    // ------------------------------------------------------------------
    // Instrumented PM operations
    // ------------------------------------------------------------------

    /// Stores `data` at `addr`, emitting a `write` event; returns the written
    /// range (handy for a follow-up [`flush`](Self::flush)).
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    #[track_caller]
    pub fn write(&self, addr: u64, data: &[u8]) -> Result<ByteRange, PmError> {
        let range = ByteRange::with_len(addr, data.len() as u64);
        self.check_range(range)?;
        let base = addr as usize;
        for (i, &b) in data.iter().enumerate() {
            self.mem[base + i].store(b, Ordering::Relaxed);
        }
        if !range.is_empty() {
            let entry = Event::Write(range).here();
            self.sink.record(entry);
            if let Some(log) = self.crash_log.lock().as_mut() {
                log.record_write(range, data, entry.loc);
            }
        }
        Ok(range)
    }

    /// Stores a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    #[track_caller]
    pub fn write_u64(&self, addr: u64, value: u64) -> Result<ByteRange, PmError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Stores a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    #[track_caller]
    pub fn write_u32(&self, addr: u64, value: u32) -> Result<ByteRange, PmError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`PmError::OutOfBounds`] if the range exceeds the pool.
    #[track_caller]
    pub fn write_u8(&self, addr: u64, value: u8) -> Result<ByteRange, PmError> {
        self.write(addr, &[value])
    }

    /// Issues a cache-line writeback (`clwb`) of `range`.
    #[track_caller]
    pub fn flush(&self, range: ByteRange) {
        if range.is_empty() {
            return;
        }
        let entry = Event::Flush(range).here();
        self.sink.record(entry);
        if let Some(log) = self.crash_log.lock().as_mut() {
            log.record(LogOp::Flush(range), entry.loc);
        }
    }

    /// Issues an `sfence`, ordering and completing prior writebacks.
    #[track_caller]
    pub fn fence(&self) {
        let entry = Event::Fence.here();
        self.sink.record(entry);
        if let Some(log) = self.crash_log.lock().as_mut() {
            log.record(LogOp::Fence, entry.loc);
        }
    }

    /// The paper's `persist_barrier`: `clwb(range); sfence` (§2.1).
    #[track_caller]
    pub fn persist_barrier(&self, range: ByteRange) {
        self.flush(range);
        self.fence();
    }

    /// Issues a HOPS ordering fence (`ofence`, §5.2).
    #[track_caller]
    pub fn ofence(&self) {
        self.sink.record(Event::OFence.here());
    }

    /// Issues a HOPS durability fence (`dfence`, §5.2).
    #[track_caller]
    pub fn dfence(&self) {
        let entry = Event::DFence.here();
        self.sink.record(entry);
        if let Some(log) = self.crash_log.lock().as_mut() {
            log.record(LogOp::DFence, entry.loc);
        }
    }

    /// Emits an arbitrary event on behalf of an instrumented library
    /// (transaction begin/end, `TX_ADD`, checkers).
    #[track_caller]
    pub fn emit(&self, event: Event) {
        self.sink.record(event.here());
    }

    // ------------------------------------------------------------------
    // Crash simulation support
    // ------------------------------------------------------------------

    /// Starts recording a crash log for crash simulation, snapshotting the
    /// current contents as the pre-trace durable image.
    ///
    /// The regular trace (what PMTest sees) carries no data values; the crash
    /// simulator needs them to materialize post-crash memory images, so the
    /// pool keeps this side log only when asked. Each write's bytes go to
    /// the log's one payload slab, so recording allocates only as the log
    /// grows. [`CrashSim::from_pool`] drains the recording.
    pub fn begin_crash_recording(&self) {
        *self.crash_log.lock() = Some(CrashSim::new(self.snapshot(), Vec::new()));
    }

    /// Stops recording and returns the log recorded since
    /// [`begin_crash_recording`](Self::begin_crash_recording); `None` if
    /// recording was never started.
    pub(crate) fn take_crash_log(&self) -> Option<CrashSim> {
        self.crash_log.lock().take()
    }

    /// Copies the full pool contents (the volatile image).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.mem.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Replaces the pool contents with `image` (e.g. a crash state produced
    /// by the simulator) so that recovery code can run against it.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not exactly the pool size.
    pub fn restore(&self, image: &[u8]) {
        assert_eq!(image.len(), self.mem.len(), "restore image size mismatch");
        for (cell, &b) in self.mem.iter().zip(image) {
            cell.store(b, Ordering::Relaxed);
        }
    }
}

impl fmt::Debug for PmPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PmPool")
            .field("size", &self.size())
            .field("tracked", &self.sink.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_trace::MemorySink;

    fn tracked(size: usize) -> (Arc<MemorySink>, PmPool) {
        let sink = Arc::new(MemorySink::new());
        let pool = PmPool::new(size, sink.clone());
        (sink, pool)
    }

    #[test]
    fn write_then_read_round_trips() {
        let pool = PmPool::untracked(256);
        pool.write(10, &[9, 8, 7]).unwrap();
        assert_eq!(pool.read_vec(ByteRange::new(10, 13)).unwrap(), [9, 8, 7]);
        pool.write_u64(64, u64::MAX).unwrap();
        assert_eq!(pool.read_u64(64).unwrap(), u64::MAX);
        pool.write_u32(80, 77).unwrap();
        assert_eq!(pool.read_u32(80).unwrap(), 77);
        pool.write_u8(90, 5).unwrap();
        assert_eq!(pool.read_u8(90).unwrap(), 5);
    }

    #[test]
    fn out_of_bounds_accesses_error() {
        let pool = PmPool::untracked(64);
        assert!(matches!(pool.write(60, &[0; 8]), Err(PmError::OutOfBounds { .. })));
        assert!(matches!(pool.read_u64(60), Err(PmError::OutOfBounds { .. })));
        let mut buf = [0; 8];
        assert!(pool.read(63, &mut buf).is_err());
        assert!(pool.write(64, &[]).is_ok(), "empty write at end is in bounds");
    }

    #[test]
    fn operations_emit_events_in_order() {
        let (sink, pool) = tracked(256);
        let r = pool.write(0, &[1, 2, 3, 4]).unwrap();
        pool.flush(r);
        pool.fence();
        pool.ofence();
        pool.dfence();
        pool.emit(Event::TxBegin);
        let events: Vec<Event> = sink.snapshot().iter().map(|e| e.event).collect();
        assert_eq!(
            events,
            [
                Event::Write(ByteRange::new(0, 4)),
                Event::Flush(ByteRange::new(0, 4)),
                Event::Fence,
                Event::OFence,
                Event::DFence,
                Event::TxBegin,
            ]
        );
    }

    #[test]
    fn persist_barrier_is_flush_plus_fence() {
        let (sink, pool) = tracked(256);
        let r = pool.write(0, &[1]).unwrap();
        pool.persist_barrier(r);
        let events: Vec<Event> = sink.snapshot().iter().map(|e| e.event).collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1], Event::Flush(ByteRange::new(0, 1)));
        assert_eq!(events[2], Event::Fence);
    }

    #[test]
    fn empty_writes_and_flushes_are_not_traced() {
        let (sink, pool) = tracked(64);
        pool.write(0, &[]).unwrap();
        pool.flush(ByteRange::new(5, 5));
        assert!(sink.is_empty());
    }

    #[test]
    fn events_carry_caller_location() {
        let (sink, pool) = tracked(64);
        pool.write(0, &[1]).unwrap();
        let entry = sink.snapshot()[0];
        assert!(entry.loc.file().contains("pool.rs"), "got {}", entry.loc);
    }

    #[test]
    fn snapshot_and_restore() {
        let pool = PmPool::untracked(16);
        pool.write(0, &[1; 16]).unwrap();
        let snap = pool.snapshot();
        pool.write(0, &[2; 16]).unwrap();
        pool.restore(&snap);
        assert_eq!(pool.read_vec(ByteRange::new(0, 16)).unwrap(), vec![1; 16]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn restore_checks_size() {
        let pool = PmPool::untracked(16);
        pool.restore(&[0; 8]);
    }

    #[test]
    fn crash_recording_captures_values() {
        let pool = PmPool::untracked(64);
        pool.write(0, &[7]).unwrap();
        pool.begin_crash_recording();
        pool.write(1, &[8]).unwrap();
        pool.flush(ByteRange::new(0, 2));
        pool.fence();
        pool.write(3, &[9, 10]).unwrap();
        let sim = CrashSim::from_pool(&pool).unwrap();
        assert_eq!(sim.op_count(), 4);
        let start = sim.analyze(0).minimal_image();
        assert_eq!(start[..4], [7, 0, 0, 0], "base image taken at recording start");
        assert_eq!(sim.final_image()[..5], [7, 8, 0, 9, 10]);
        assert_eq!(sim.analyze(3).minimal_image()[..4], [7, 8, 0, 0], "flushed and fenced");
        assert!(sim.site(3).is_some_and(|loc| loc.file().ends_with("pool.rs")));
        assert!(CrashSim::from_pool(&pool).is_none(), "from_pool drains");
        pool.write(0, &[1]).unwrap();
        assert!(CrashSim::from_pool(&pool).is_none(), "draining stops the recording");
    }

    #[test]
    fn pool_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmPool>();
    }
}
