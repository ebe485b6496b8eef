//! The PMTest checking engine.
//!
//! This crate implements the paper's core contribution (§3–§5): a fast,
//! flexible, trace-based detector of crash-consistency bugs in persistent
//! memory programs.
//!
//! # How checking works
//!
//! The program under test is instrumented (see `pmtest-pmem` and the
//! libraries built on it) so that every PM operation and every checker the
//! programmer places flows into a [`PmTestSession`]. The session buffers
//! entries per thread into a compact packed-record arena; `send_trace`
//! seals the open records as an independent trace and ships it to the
//! [`Engine`] — singly or in per-thread batches — over a sharded ingest
//! plane: one bounded ring per producer thread, drained by workers that
//! prefer their affinity rings and steal from the rest when idle (Fig. 8;
//! DESIGN.md §13). Each worker replays the trace against the configured
//! [`PersistencyModel`]'s *checking rules*, maintaining a [`ShadowMemory`]
//! that maps each modified address range to a *persist interval* — the epoch
//! window in which the write may become durable. Checkers then reduce to
//! interval arithmetic:
//!
//! * [`Event::IsPersist`](pmtest_trace::Event::IsPersist) passes iff every
//!   written byte's persist interval has closed;
//! * [`Event::IsOrderedBefore`](pmtest_trace::Event::IsOrderedBefore) passes
//!   iff every interval of the first range ends no later than any interval of
//!   the second begins.
//!
//! This is what makes PMTest fast: one linear pass per trace instead of
//! enumerating persist orderings (Yat) or instrumenting every store
//! (pmemcheck).
//!
//! # Flexibility
//!
//! [`PersistencyModel`] is an open trait: [`X86Model`] implements Intel's
//! `clwb`/`sfence` semantics (§4.4) and [`HopsModel`] the relaxed
//! `ofence`/`dfence` semantics of HOPS (§5.2); users add models by
//! implementing the trait. High-level transaction checkers
//! (`TX_CHECKER_START/END`, §5.1) are built from the two low-level checkers
//! and run inside the same pass.
//!
//! # Examples
//!
//! Checking the exact trace of the paper's Fig. 7:
//!
//! ```
//! use pmtest_core::{check_trace, DiagKind, X86Model};
//! use pmtest_trace::{Event, Trace};
//! use pmtest_interval::ByteRange;
//!
//! let mut trace = Trace::new(0);
//! let a = ByteRange::with_len(0x10, 64);
//! let b = ByteRange::with_len(0x50, 64);
//! trace.push(Event::Write(a).here());
//! trace.push(Event::Flush(a).here());
//! trace.push(Event::Fence.here());
//! trace.push(Event::Write(b).here());
//! trace.push(Event::IsPersist(b).here());          // FAIL: B never flushed
//! trace.push(Event::IsOrderedBefore(a, b).here()); // pass: A closed at 1, B opens at 1
//! let diags = check_trace(&trace, &X86Model::new());
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].kind, DiagKind::NotPersisted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
pub mod cache;
mod checker;
pub mod compose;
mod diag;
mod engine;
mod epoch;
pub mod explore;
mod fifo;
mod ingest;
mod model;
mod session;
mod shadow;
pub mod telemetry;

pub use bundle::{
    op_token, BundleReason, DiagnosisBundle, IntervalNote, OpenInterval, StepRecord, WindowStart,
    BUNDLE_STEPS,
};
pub use cache::{VerdictCacheConfig, VerdictCacheStats};
pub use checker::{
    check_packed_with, check_trace, check_trace_observed, check_trace_with, CheckerScratch,
    ReplayObserver,
};
pub use diag::{Diag, DiagKind, Report, Severity, TraceReport};
pub use engine::{Engine, EngineConfig, EngineStats, ReuseStats, SubmitError};
pub use epoch::{Epoch, EpochInterval};
pub use explore::{
    explore, ExploreConfig, ExploreMode, ExplorePhase, ExploreReport, ExploreStats,
    ExploreViolation, PointOutcome, RecoveryProc,
};
pub use fifo::{FifoStats, KernelFifo};
pub use model::{BuiltinModel, HopsModel, PersistencyModel, X86Model};
pub use session::{PmTestSession, SessionBuilder, ThreadRecorder};
pub use shadow::{SegState, ShadowMemory};
pub use telemetry::{CheckerCategory, TelemetryConfig, TelemetryLevel};
