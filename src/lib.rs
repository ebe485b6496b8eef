//! # pmtest — a Rust reproduction of PMTest (ASPLOS 2019)
//!
//! *PMTest: A Fast and Flexible Testing Framework for Persistent Memory
//! Programs*, Liu, Wei, Zhao, Kolli, Khan.
//!
//! Persistent memory (PM) programs must make their updates durable **and**
//! ordered — and the hardware is free to reorder persists, so the order
//! written in the code is not the order that reaches memory. PMTest finds
//! the resulting crash-consistency bugs with two assertion-like checkers
//! (`isPersist`, `isOrderedBefore`), validated by *inferring persist
//! intervals* from a trace of PM operations in a single pass instead of
//! enumerating orderings.
//!
//! This crate is the facade over the full reproduction:
//!
//! * [`core`] — the checking engine: shadow memory, persistency models
//!   (x86, HOPS), the low- and high-level checkers, the master/worker
//!   pipeline, and the [`core::PmTestSession`] API mirroring the paper's
//!   Table 2;
//! * [`pmem`] — the simulated PM substrate (pool, heap, cache lines) and
//!   the ground-truth crash-state generator used to validate diagnostics;
//! * [`txlib`] / [`mnemosyne`] — PMDK-like (undo-log) and Mnemosyne-like
//!   (redo-log) transactional libraries, instrumented for PMTest;
//! * [`pmfs`] — a PMFS-like journaling file system (the "kernel module"
//!   target, with the paper's real journal bugs behind flags);
//! * [`workloads`] — the WHISPER-like benchmarks of Figs. 10–12;
//! * [`bugs`] — the Table 5 synthetic-bug catalog and runner;
//! * [`baseline`] — the pmemcheck-like and Yat-like comparison tools;
//! * [`obs`] — the telemetry core: metrics registry, span buffers, and
//!   JSON-lines / Prometheus exporters behind
//!   [`core::Engine::telemetry_snapshot`] (see DESIGN.md §9);
//! * [`interval`] / [`trace`] — the underlying containers and the trace
//!   vocabulary.
//!
//! # Quickstart
//!
//! Annotate a program, run it, read the report (the Fig. 1a bug):
//!
//! ```
//! use pmtest::prelude::*;
//!
//! # fn main() -> Result<(), pmtest::pmem::PmError> {
//! // 1. A session hosts the checking engine (PMTest_INIT + PMTest_START).
//! let session = PmTestSession::builder().model(X86Model::new()).build();
//! session.start();
//!
//! // 2. The program writes persistent data through an instrumented pool.
//! let pool = PmPool::new(4096, session.sink());
//! let data = pool.write_u64(0x00, 0xDA7A)?;
//! let valid = pool.write_u8(0x40, 1)?;      // valid flag set...
//! pool.flush(data);
//! pool.flush(valid);
//! pool.fence();                              // ...but only one barrier!
//!
//! // 3. Assert the intended behaviour (the two low-level checkers).
//! session.is_ordered_before(data, valid);    // data must persist first
//! session.is_persist(valid);
//!
//! // 4. Ship the trace and collect results.
//! session.send_trace();
//! let report = session.finish();
//! assert_eq!(report.fail_count(), 1, "the missing barrier is caught:\n{report}");
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for transactional (`TX_CHECKER`) use, the HOPS model,
//! kernel-module testing through the bounded FIFO, and crash-state
//! validation; see DESIGN.md and EXPERIMENTS.md for the paper-reproduction
//! map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pmtest_baseline as baseline;
pub use pmtest_bugs as bugs;
pub use pmtest_core as core;
pub use pmtest_interval as interval;
pub use pmtest_mnemosyne as mnemosyne;
pub use pmtest_obs as obs;
pub use pmtest_pmem as pmem;
pub use pmtest_pmfs as pmfs;
pub use pmtest_trace as trace;
pub use pmtest_txlib as txlib;
pub use pmtest_workloads as workloads;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use pmtest_core::{
        check_trace, Diag, DiagKind, Engine, EngineConfig, EngineStats, FifoStats, HopsModel,
        KernelFifo, PersistencyModel, PmTestSession, Report, Severity, SubmitError,
        TelemetryConfig, TelemetryLevel, ThreadRecorder, X86Model,
    };
    pub use pmtest_interval::ByteRange;
    pub use pmtest_obs::TelemetrySnapshot;
    pub use pmtest_pmem::{PersistMode, PmHeap, PmPool};
    pub use pmtest_trace::{
        ArenaPool, Entry, Event, PoolStats, Sink, SourceLoc, Trace, TraceStats,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let session = PmTestSession::builder().workers(2).build();
        session.start();
        let pool = PmPool::new(1024, session.sink());
        let r = pool.write_u64(0, 1).unwrap();
        pool.persist_barrier(r);
        session.is_persist(r);
        session.send_trace();
        assert!(session.finish().is_clean());
    }
}
