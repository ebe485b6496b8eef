//! Satellite: a generated program that kills a checker worker mid-batch
//! must surface as a [`SubmitError`] on a later submission — the engine
//! rejects further work instead of hanging, and `shutdown` still drains
//! cleanly. Exercised exactly the way the difftest executor drives the
//! engine.

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmtest_core::{Diag, PersistencyModel, ShadowMemory};
use pmtest_difftest::exec::{build_engine, submit_replicas, EngineRun};
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_interval::ByteRange;
use pmtest_trace::{Entry, SourceLoc};

/// A persistency model that panics on the first operation it sees —
/// simulating a checker dying mid-batch.
struct PanickingModel;

impl fmt::Debug for PanickingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PanickingModel")
    }
}

impl PersistencyModel for PanickingModel {
    fn name(&self) -> &str {
        "panicking"
    }

    fn apply(&self, _shadow: &mut ShadowMemory, _entry: &Entry, _diags: &mut Vec<Diag>) {
        panic!("checker died mid-batch (intentional)");
    }

    fn check_persist(
        &self,
        _shadow: &ShadowMemory,
        _range: ByteRange,
        _loc: SourceLoc,
        _diags: &mut Vec<Diag>,
    ) {
        panic!("checker died mid-batch (intentional)");
    }

    fn check_ordered_before(
        &self,
        _shadow: &ShadowMemory,
        _first: ByteRange,
        _second: ByteRange,
        _loc: SourceLoc,
        _diags: &mut Vec<Diag>,
    ) {
        panic!("checker died mid-batch (intentional)");
    }
}

#[test]
fn engine_rejects_submissions_after_a_worker_panic_instead_of_hanging() {
    // A generated program guaranteed (by the generator's minimum size) to
    // contain at least one op, so the worker's panic actually triggers.
    let program = generate(0, &GenConfig::default());
    assert!(!program.ops.is_empty());

    let engine = build_engine(Arc::new(PanickingModel), &EngineRun::new(1, 1));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut id = 0u64;
    let error = loop {
        assert!(
            Instant::now() < deadline,
            "engine kept accepting traces 10s after its only worker died"
        );
        match submit_replicas(&engine, &program, 1, 1, id) {
            Ok(()) => {
                id += 1;
                std::thread::yield_now();
            }
            Err(e) => break e,
        }
    };
    let _ = error; // SubmitError carries no payload worth asserting on.

    // Shutdown after the panic must not hang or propagate the panic.
    let report = engine.shutdown();
    let _ = report;
}
