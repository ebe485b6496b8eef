//! Simulated persistent memory substrate for the PMTest reproduction.
//!
//! The paper evaluates on battery-backed NVDIMMs mapped into the process
//! (§6.1, Table 3). This crate substitutes a **simulated PM pool**: a
//! byte-addressable region whose every access is funnelled through
//! instrumented methods that emit [`pmtest_trace::Event`]s. PMTest itself
//! never inspects memory contents — it reasons about the *trace* — so the
//! simulation preserves exactly the behaviour the tool observes, while adding
//! something the real hardware cannot offer: a [`crash::CrashSim`] that
//! enumerates the memory images a power failure could leave behind, used to
//! validate that every diagnostic corresponds to a genuinely inconsistent
//! crash state.
//!
//! Contents:
//!
//! * [`PmPool`] — the PM region: bounds-checked reads, instrumented
//!   writes/flushes/fences, x86 (`clwb`/`sfence`) and HOPS (`ofence`/
//!   `dfence`) primitives, and a `persist_barrier` helper matching the
//!   paper's `clwb; sfence` idiom (§2.1);
//! * [`PmHeap`] — a first-fit free-list allocator carving objects out of a
//!   pool, with a reserved root area for durable entry points;
//! * [`PmRead`] — bounds-checked reads shared by a live pool and a raw
//!   crash image (`[u8]`), so recovery code reads and repairs an image in
//!   place;
//! * [`cacheline`] — cache-line geometry helpers;
//! * [`crash`] — the crash-state generator and the [`crash::RecoveryCheck`]
//!   trait that workloads implement so crash states can be validated.
//!
//! # Examples
//!
//! ```
//! use pmtest_pmem::PmPool;
//! use pmtest_trace::MemorySink;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), pmtest_pmem::PmError> {
//! let sink = Arc::new(MemorySink::new());
//! let pool = PmPool::new(4096, sink.clone());
//! pool.write_u64(0x40, 0xdead_beef)?;
//! pool.persist_barrier(pmtest_interval::ByteRange::with_len(0x40, 8));
//! assert_eq!(pool.read_u64(0x40)?, 0xdead_beef);
//! assert_eq!(sink.len(), 3); // write, clwb, sfence
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cacheline;
pub mod crash;
mod error;
mod heap;
mod mode;
mod pool;
mod read;

pub use error::PmError;
pub use heap::PmHeap;
pub use mode::PersistMode;
pub use pool::PmPool;
pub use read::PmRead;
