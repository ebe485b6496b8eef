//! Trace events, source locations, and sinks for the PMTest reproduction.
//!
//! PMTest is a *trace-based* tester (§4.3 of the paper): the program under
//! test is instrumented so that every persistent-memory operation — writes,
//! cache-line writebacks, fences, transaction-library calls — and every
//! checker the programmer places are appended, in program order, to a trace.
//! The checking engine later replays that trace against the persistency
//! model's checking rules.
//!
//! This crate defines the trace vocabulary shared by everything above it:
//!
//! * [`Event`] — the alphabet of PM operations and checkers (Table 2 plus the
//!   HOPS primitives of §5.2);
//! * [`SourceLoc`] / [`Entry`] — each event carries the file/line that issued
//!   it, so diagnostics read `FAIL @ examples/quickstart.rs:17` exactly like
//!   the paper's `WARN/FAIL @<file>:<line>` outputs;
//! * [`Trace`] — an ordered batch of entries shipped to the engine by
//!   `PMTest_SEND_TRACE`;
//! * [`Sink`] — the instrumentation interface. Instrumented libraries (the
//!   PM pool, the transactional libraries, the file system) emit events into
//!   a `Sink` without knowing whether it is PMTest's recorder, a baseline
//!   tool, or a no-op.
//!
//! # Examples
//!
//! ```
//! use pmtest_trace::{Event, MemorySink, Sink};
//! use pmtest_interval::ByteRange;
//!
//! let sink = MemorySink::new();
//! sink.record(Event::Write(ByteRange::with_len(0x10, 64)).here());
//! sink.record(Event::Fence.here());
//! assert_eq!(sink.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod event;
mod loc;
pub mod packed;
mod pool;
mod recorder;
mod sink;
mod stats;

pub use arena::{ArenaStats, TraceArena, TraceSpan};
pub use event::{Entry, Event, EventKind, SourceLoc, Trace};
pub use loc::{LocId, LocInterner};
pub use packed::{
    Fingerprinter, InternStats, LocResolver, PackedEntry, PackedOp, TraceFingerprint,
    PACKED_ENTRY_BYTES,
};
pub use pool::{ArenaPool, PoolStats};
pub use recorder::{FlightRecorder, IntervalNote, StepRecord};
pub use sink::{CountingSink, MemorySink, NullSink, SharedSink, Sink};
pub use stats::{TraceStats, TraceStatsBuilder};
