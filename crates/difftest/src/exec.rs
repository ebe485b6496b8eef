//! Executes a generated program through the checking engine (across a
//! worker-count × batch-size matrix), the crash-state oracle, and the
//! baseline checkers.

use std::sync::Arc;

use pmtest_core::{
    check_trace, BundleReason, DiagnosisBundle, Engine, EngineConfig, HopsModel, PersistencyModel,
    Report, Severity, SubmitError, TelemetryConfig, VerdictCacheConfig, X86Model,
};
use pmtest_pmem::crash::CrashSim;
use pmtest_trace::Trace;

use crate::program::{Dialect, Program, POOL_BYTES};

/// One engine configuration of the differential matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineRun {
    /// Worker threads.
    pub workers: usize,
    /// Traces per submitted batch.
    pub batch_capacity: usize,
    /// The telemetry level the engine runs at; no level may change a
    /// report.
    pub telemetry: TelemetryConfig,
}

impl EngineRun {
    /// A matrix cell at telemetry level `Off`.
    #[must_use]
    pub const fn new(workers: usize, batch_capacity: usize) -> Self {
        Self { workers, batch_capacity, telemetry: TelemetryConfig::off() }
    }
}

/// The default matrix: the paper's single-worker default, a two-worker
/// unbatched run, and a wide batched run — enough to catch shard-merge and
/// batching bugs on every fuzzed program without tripling its cost.
pub const DEFAULT_MATRIX: &[EngineRun] =
    &[EngineRun::new(1, 1), EngineRun::new(2, 1), EngineRun::new(4, 32)];

/// How many identical copies of the program each engine run checks. Multiple
/// replicas make worker scheduling matter (a single trace never exercises
/// the shard merge), while identical copies keep the expected report trivial
/// to cross-compare.
pub const REPLICAS: u64 = 6;

/// The checking model a program dialect runs under.
#[must_use]
pub fn model_for(dialect: Dialect) -> Arc<dyn PersistencyModel> {
    match dialect {
        Dialect::X86 => Arc::new(X86Model::new()),
        Dialect::Hops => Arc::new(HopsModel::new()),
    }
}

/// The engine configuration of one matrix cell.
fn cell_config(model: Arc<dyn PersistencyModel>, run: &EngineRun) -> EngineConfig {
    EngineConfig {
        model,
        workers: run.workers,
        telemetry: run.telemetry.clone(),
        ..EngineConfig::default()
    }
}

/// Builds an engine for one matrix cell.
#[must_use]
pub fn build_engine(model: Arc<dyn PersistencyModel>, run: &EngineRun) -> Engine {
    Engine::new(cell_config(model, run))
}

/// Submits `replicas` copies of the program (trace ids `start_id..`) in
/// batches of `batch_capacity`.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine's workers have died — e.g. a
/// generated program killed a checker mid-batch.
pub fn submit_replicas(
    engine: &Engine,
    program: &Program,
    batch_capacity: usize,
    replicas: u64,
    start_id: u64,
) -> Result<(), SubmitError> {
    let mut batch: Vec<Trace> = Vec::with_capacity(batch_capacity);
    for id in start_id..start_id + replicas {
        batch.push(program.trace(id));
        if batch.len() >= batch_capacity {
            engine.submit_batch(std::mem::take(&mut batch))?;
        }
    }
    engine.submit_batch(batch)
}

/// Runs the program through one engine configuration under an explicit
/// model and returns the report.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine stopped accepting traces.
pub fn run_with_model(
    program: &Program,
    model: Arc<dyn PersistencyModel>,
    run: &EngineRun,
    replicas: u64,
) -> Result<Report, SubmitError> {
    let engine = build_engine(model, run);
    submit_replicas(&engine, program, run.batch_capacity, replicas, 0)?;
    Ok(engine.shutdown())
}

/// Runs the program through one engine configuration under its dialect's
/// model.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine stopped accepting traces.
pub fn run_engine(
    program: &Program,
    run: &EngineRun,
    replicas: u64,
) -> Result<Report, SubmitError> {
    run_with_model(program, model_for(program.dialect), run, replicas)
}

/// Builds a matrix-cell engine with the verdict cache enabled — identical
/// to [`build_engine`] otherwise, for cache-on/off equivalence sweeps.
#[must_use]
pub fn build_engine_cached(model: Arc<dyn PersistencyModel>, run: &EngineRun) -> Engine {
    Engine::new(EngineConfig {
        verdict_cache: VerdictCacheConfig { enabled: true, ..VerdictCacheConfig::default() },
        ..cell_config(model, run)
    })
}

/// Like [`run_engine`], but with the verdict cache enabled. The replica
/// scheme guarantees hits: replicas 2..N of every trace share replica 1's
/// fingerprint, so any cache-induced divergence shows up as a report
/// mismatch against the uncached run.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine stopped accepting traces.
pub fn run_engine_cached(
    program: &Program,
    run: &EngineRun,
    replicas: u64,
) -> Result<Report, SubmitError> {
    let engine = build_engine_cached(model_for(program.dialect), run);
    submit_replicas(&engine, program, run.batch_capacity, replicas, 0)?;
    Ok(engine.shutdown())
}

/// The reports of one program across the engine matrix.
#[derive(Clone, Debug)]
pub struct MatrixOutcome {
    /// `(configuration, report)` pairs, in matrix order.
    pub reports: Vec<(EngineRun, Report)>,
}

impl MatrixOutcome {
    /// A description of the first cross-configuration disagreement, if any.
    /// Reports must be *byte-identical* (same diagnostics, messages, and
    /// locations, sorted by trace id) across the matrix — per-trace checking
    /// is deterministic, so anything weaker would hide shard-merge bugs.
    #[must_use]
    pub fn mismatch(&self) -> Option<String> {
        let (base_run, base) = &self.reports[0];
        for (run, report) in &self.reports[1..] {
            if report != base {
                return Some(format!(
                    "engine reports diverge: {}w/b{} vs {}w/b{}: [{}] vs [{}]",
                    base_run.workers,
                    base_run.batch_capacity,
                    run.workers,
                    run.batch_capacity,
                    base.summary(),
                    report.summary(),
                ));
            }
        }
        None
    }

    /// The canonical report (first matrix cell).
    #[must_use]
    pub fn canonical(&self) -> &Report {
        &self.reports[0].1
    }
}

/// Runs the program across the whole matrix.
///
/// # Errors
///
/// Returns [`SubmitError`] if any engine stopped accepting traces.
pub fn run_matrix(program: &Program, matrix: &[EngineRun]) -> Result<MatrixOutcome, SubmitError> {
    let mut reports = Vec::with_capacity(matrix.len());
    for run in matrix {
        reports.push((run.clone(), run_engine(program, run, REPLICAS)?));
    }
    Ok(MatrixOutcome { reports })
}

/// The program's serialized diagnosis bundle (JSON lines), built by
/// re-checking its trace the way an engine worker does: an ERROR bundle if
/// a checker fails, a manual capture otherwise. Unlike an engine bundle it
/// keeps every step, so `pmtest-explain` replays the whole program. Shared
/// by `pmtest-explain --bundle-out` and `difftest-fuzz --minimize`.
#[must_use]
pub fn capture_diagnosis_bundle(program: &Program) -> String {
    let trace = program.trace(0);
    let model = model_for(program.dialect);
    let fails = check_trace(&trace, model.as_ref()).iter().any(|d| d.severity() == Severity::Fail);
    let reason = if fails { BundleReason::Error } else { BundleReason::Manual };
    DiagnosisBundle::recheck(model.as_ref(), &trace, reason, trace.len()).to_json_lines()
}

/// Builds the crash-state oracle for the program: an all-zeros pool image
/// plus the program's valued-op log, each op carrying its synthetic
/// `difftest:<op index>` source site so exploration violations attribute
/// culprit writes back to program lines.
#[must_use]
pub fn crash_sim(program: &Program) -> CrashSim {
    let sites = program
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_valued())
        .map(|(i, _)| Program::loc(i))
        .collect();
    CrashSim::with_sites(vec![0u8; POOL_BYTES as usize], program.valued_ops(), sites)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;

    #[test]
    fn matrix_runs_agree_on_a_simple_program() {
        let p = Program {
            dialect: Dialect::X86,
            ops: vec![
                Op::Write { addr: 0, len: 8 },
                Op::Flush { addr: 0, len: 8 },
                Op::CheckPersist { addr: 0, len: 8 }, // no fence: FAIL
            ],
        };
        let outcome = run_matrix(&p, DEFAULT_MATRIX).unwrap();
        assert!(outcome.mismatch().is_none());
        assert_eq!(outcome.canonical().traces().len(), REPLICAS as usize);
        assert_eq!(outcome.canonical().fail_count(), REPLICAS as usize);
    }

    #[test]
    fn failing_program_captures_an_error_bundle() {
        let p = Program {
            dialect: Dialect::X86,
            ops: vec![Op::Write { addr: 0, len: 8 }, Op::CheckPersist { addr: 0, len: 8 }],
        };
        let text = capture_diagnosis_bundle(&p);
        let header = text.lines().next().unwrap();
        assert!(header.contains("\"bundle\":\"pmtest-diagnosis\""));
        assert!(header.contains("\"reason\":\"error\""));
    }

    #[test]
    fn clean_program_captures_a_manual_bundle() {
        let p = Program {
            dialect: Dialect::X86,
            ops: vec![
                Op::Write { addr: 0, len: 8 },
                Op::Flush { addr: 0, len: 8 },
                Op::Fence,
                Op::CheckPersist { addr: 0, len: 8 },
            ],
        };
        let text = capture_diagnosis_bundle(&p);
        assert!(text.lines().next().unwrap().contains("\"reason\":\"manual\""));
    }
}
