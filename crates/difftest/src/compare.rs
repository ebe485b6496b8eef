//! The verdict comparator: cross-validates engine reports against the
//! crash-state oracle and the baseline checkers, flagging divergences.
//!
//! # What counts as a divergence
//!
//! * **Matrix mismatch** — the same program produces different reports at
//!   different worker counts / batch sizes (shard-merge or batching bug).
//! * **Missed persist bug** — the engine passes an `isPersist` while the
//!   crash oracle reaches a state where the range is not at its final
//!   value. Never excusable: the engine's byte-granular flush tracking is
//!   strictly *more* conservative than the oracle's line-granular one.
//! * **Spurious persist fail** — the engine fails an `isPersist` the oracle
//!   guarantees durable, *and* the fail persists after widening every flush
//!   to full cache lines. (A fail explained by the widening is the
//!   documented byte-vs-line granularity gap, not a bug.)
//! * **Missed order bug** — the engine passes an `isOrderedBefore(A, B)`
//!   while some reachable crash state shows a byte of B at its
//!   *latest-write* value without A being complete. (The engine — like the
//!   paper's — checks the most recent update to each byte, so stale data
//!   from an overwritten earlier store to B is not a counterexample, but a
//!   single byte whose final data lands early is.) Suppressed for programs
//!   containing `ofence`: the oracle conservatively ignores `ofence`, so it
//!   over-approximates reachability and such witnesses may be unreachable on
//!   real HOPS hardware (see the HOPS oracle tests in
//!   `crates/pmem/tests/hops_oracle.rs`).
//! * **Spurious order fail** — the engine fails an `isOrderedBefore` but
//!   exhaustive enumeration finds no witness, the two ranges share no cache
//!   line (same-line prefix atomicity is invisible to interval inference),
//!   and the fail survives flush widening.
//! * **Pmemcheck disagreement** — on programs whose transaction shape both
//!   tools interpret identically ([`Program::pmemcheck_comparable`]), the
//!   two must agree on the *presence* of missing-log diagnostics and of
//!   unpersisted-data-at-transaction-end diagnostics. (Counts and exact
//!   ranges legitimately differ: the engine reports per uncovered gap,
//!   pmemcheck per store.)
//! * **Yat miss** — when the engine and the crash oracle agree a range is
//!   not durable at a checker, the Yat-style exhaustive replay must also
//!   find a violating state for the equivalent recovery predicate (unless
//!   its state budget ran out first).

use pmtest_baseline::{run_pmemcheck, yat};
use pmtest_core::{Diag, DiagKind, SubmitError};
use pmtest_interval::ByteRange;
use pmtest_pmem::cacheline::align_to_lines;
use pmtest_pmem::crash::CrashSim;

use crate::exec::{self, EngineRun, DEFAULT_MATRIX};
use crate::program::{Op, Program, LOC_FILE, POOL_BYTES};

/// Per-crash-point cap on exhaustive state enumeration during the ordering
/// witness scan; points with more reachable states are skipped and the scan
/// reported as capped (inconclusive) if no witness turned up elsewhere.
pub const MAX_STATES_PER_POINT: u128 = 2048;

/// State budget handed to the Yat baseline for the directed cross-check.
pub const YAT_BUDGET: u128 = 100_000;

/// The class of a detected divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Engine reports differ across the worker/batch matrix.
    MatrixMismatch,
    /// Engine `isPersist` PASS; oracle reaches a non-durable state.
    MissedPersistBug,
    /// Engine `isPersist` FAIL; oracle guarantees durability; flush
    /// widening does not explain it.
    SpuriousPersistFail,
    /// Engine `isOrderedBefore` PASS; oracle reaches a B-without-A state.
    MissedOrderBug,
    /// Engine `isOrderedBefore` FAIL; exhaustively no witness; not
    /// explained by shared lines or flush widening.
    SpuriousOrderFail,
    /// Engine and pmemcheck disagree on missing-log presence.
    PmemcheckMissingLog,
    /// Engine and pmemcheck disagree on unpersisted-at-TX-end presence.
    PmemcheckTxEnd,
    /// Yat found no violation where engine + oracle agree one exists.
    YatMissedViolation,
}

/// One divergence between oracles on one program.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The class.
    pub kind: DivergenceKind,
    /// The checker op the divergence anchors to, if any.
    pub op_index: Option<usize>,
    /// Human-readable detail for the counterexample report.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "{:?} at op {}: {}", self.kind, i, self.detail),
            None => write!(f, "{:?}: {}", self.kind, self.detail),
        }
    }
}

/// Whether `diag` was produced at op `index` of a difftest program.
fn at_op(diag: &Diag, index: usize) -> bool {
    diag.loc.file() == LOC_FILE && diag.loc.line() as usize == index
}

fn fails_at(diags: &[Diag], kind: DiagKind, index: usize) -> bool {
    diags.iter().any(|d| d.kind == kind && at_op(d, index))
}

/// Result of the exhaustive B-without-A scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WitnessScan {
    /// A reachable state at this crash point shows B data with A incomplete.
    Found(usize),
    /// No witness; every point was fully enumerated.
    NoneConclusive,
    /// No witness found, but at least one point exceeded the state cap.
    NoneCapped,
}

/// Scans every crash point `q ≤ p` for a reachable image where some byte of
/// `b` holds its point-`p` (latest-write) value while `a` is incomplete.
///
/// The engine's `isOrderedBefore` reasons per byte about the *most recent*
/// update — the paper's documented semantics — so a crash exposing data
/// from an earlier, overwritten store to `b` is not a counterexample to an
/// engine PASS, but a single byte whose latest data lands early is. Write
/// fill values are unique and nonzero over an all-zeros base, so byte
/// comparison is exact attribution. `final_p` must be the final image of
/// the first `p` valued ops; bytes of `b` that are zero in it (never
/// written) are vacuous and cannot witness.
fn order_witness(
    sim: &CrashSim,
    final_p: &[u8],
    a: ByteRange,
    b: ByteRange,
    p: usize,
) -> WitnessScan {
    let (a0, a1) = (a.start() as usize, a.end() as usize);
    let (b0, b1) = (b.start() as usize, b.end() as usize);
    if final_p[b0..b1].iter().all(|&x| x == 0) {
        return WitnessScan::NoneConclusive;
    }
    let mut capped = false;
    for q in (0..=p).rev() {
        let analysis = sim.analyze(q);
        if analysis.state_count() > MAX_STATES_PER_POINT {
            capped = true;
            continue;
        }
        for image in analysis.states() {
            let b_landed = (b0..b1).any(|x| final_p[x] != 0 && image[x] == final_p[x]);
            let a_incomplete = image[a0..a1] != final_p[a0..a1];
            if b_landed && a_incomplete {
                return WitnessScan::Found(q);
            }
        }
    }
    if capped {
        WitnessScan::NoneCapped
    } else {
        WitnessScan::NoneConclusive
    }
}

/// Whether two ranges touch a common cache line (after `clwb` widening).
/// Same-line prefix atomicity couples their persist order in ways interval
/// inference cannot see, so a conservative engine FAIL is expected.
fn shares_line(a: ByteRange, b: ByteRange) -> bool {
    let (la, lb) = (align_to_lines(a), align_to_lines(b));
    !la.is_empty() && !lb.is_empty() && la.overlaps(&lb)
}

/// Cross-validates one program across the engine matrix, the crash oracle,
/// pmemcheck, and Yat. Returns every divergence found (empty = all oracles
/// agree, up to the documented over-approximations).
///
/// # Errors
///
/// Returns [`SubmitError`] if an engine run stopped accepting traces.
pub fn check_program(program: &Program) -> Result<Vec<Divergence>, SubmitError> {
    let mut divergences = Vec::new();

    // (a) Engine matrix: byte-identical reports across workers × batching.
    let matrix = exec::run_matrix(program, DEFAULT_MATRIX)?;
    if let Some(detail) = matrix.mismatch() {
        divergences.push(Divergence {
            kind: DivergenceKind::MatrixMismatch,
            op_index: None,
            detail,
        });
    }
    let canonical = matrix.canonical();
    let diags: Vec<Diag> = canonical
        .traces()
        .iter()
        .find(|t| t.trace_id == 0)
        .map(|t| t.diags.clone())
        .unwrap_or_default();

    // (b) Crash-state oracle, checker by checker. The flush-widened re-run
    // is computed at most once, on demand.
    let valued = program.valued_ops();
    let sim = CrashSim::new(vec![0u8; POOL_BYTES as usize], valued.clone());
    let mut widened: Option<Vec<Diag>> = None;
    let mut widened_fails_at = |kind: DiagKind, index: usize| -> Result<bool, SubmitError> {
        if widened.is_none() {
            let report = exec::run_with_model(
                &program.line_expanded(),
                exec::model_for(program.dialect),
                &EngineRun::new(1, 1),
                1,
            )?;
            widened = Some(
                report
                    .traces()
                    .iter()
                    .find(|t| t.trace_id == 0)
                    .map(|t| t.diags.clone())
                    .unwrap_or_default(),
            );
        }
        Ok(fails_at(widened.as_ref().unwrap(), kind, index))
    };
    let mut yat_checks = 0usize;

    for (i, op) in program.ops.iter().enumerate() {
        match *op {
            Op::CheckPersist { addr, len } => {
                let range = ByteRange::with_len(addr, len);
                let p = program.point_before(i);
                let engine_fail = fails_at(&diags, DiagKind::NotPersisted, i);
                let durable = sim.analyze(p).is_guaranteed_durable(range);
                match (engine_fail, durable) {
                    (false, false) => divergences.push(Divergence {
                        kind: DivergenceKind::MissedPersistBug,
                        op_index: Some(i),
                        detail: format!(
                            "engine passed isPersist({range}) but a crash at point {p} can lose it"
                        ),
                    }),
                    (true, true) if widened_fails_at(DiagKind::NotPersisted, i)? => {
                        divergences.push(Divergence {
                            kind: DivergenceKind::SpuriousPersistFail,
                            op_index: Some(i),
                            detail: format!(
                                "engine failed isPersist({range}) but every crash at point {p} \
                                 keeps it; not explained by cache-line widening"
                            ),
                        });
                    }
                    (true, false) if yat_checks < 2 => {
                        // Confirmed bug: the Yat baseline must reach a
                        // violating state for the equivalent predicate.
                        yat_checks += 1;
                        let trunc =
                            CrashSim::new(vec![0u8; POOL_BYTES as usize], valued[..p].to_vec());
                        let final_img = trunc.final_image();
                        let (s, e) = (range.start() as usize, range.end() as usize);
                        let expect = final_img[s..e].to_vec();
                        let check = move |image: &[u8]| -> Result<(), String> {
                            if image[s..e] == expect[..] {
                                Ok(())
                            } else {
                                Err(format!("bytes {s}..{e} not at their final value"))
                            }
                        };
                        let result = yat::run(
                            &trunc,
                            &check,
                            yat::YatConfig { max_states: Some(YAT_BUDGET) },
                        );
                        if result.violation.is_none() && result.exhausted_space {
                            divergences.push(Divergence {
                                kind: DivergenceKind::YatMissedViolation,
                                op_index: Some(i),
                                detail: format!(
                                    "oracle and engine agree {range} is not durable at point {p}, \
                                     but Yat exhausted {} states without a violation",
                                    result.states_tested
                                ),
                            });
                        }
                    }
                    _ => {}
                }
            }
            Op::CheckOrdered { first, second } => {
                let a = ByteRange::with_len(first.0, first.1);
                let b = ByteRange::with_len(second.0, second.1);
                let p = program.point_before(i);
                let engine_fail = fails_at(&diags, DiagKind::NotOrderedBefore, i);
                let final_p = CrashSim::new(vec![0u8; POOL_BYTES as usize], valued[..p].to_vec())
                    .final_image();
                if engine_fail {
                    if shares_line(a, b) {
                        continue; // same-line coupling: conservatism expected
                    }
                    match order_witness(&sim, &final_p, a, b, p) {
                        WitnessScan::Found(_) | WitnessScan::NoneCapped => {}
                        WitnessScan::NoneConclusive => {
                            if widened_fails_at(DiagKind::NotOrderedBefore, i)? {
                                divergences.push(Divergence {
                                    kind: DivergenceKind::SpuriousOrderFail,
                                    op_index: Some(i),
                                    detail: format!(
                                        "engine failed isOrderedBefore({a}, {b}) but no reachable \
                                         crash state shows {b} without {a}"
                                    ),
                                });
                            }
                        }
                    }
                } else if !program.has_ofence() {
                    if let WitnessScan::Found(q) = order_witness(&sim, &final_p, a, b, p) {
                        divergences.push(Divergence {
                            kind: DivergenceKind::MissedOrderBug,
                            op_index: Some(i),
                            detail: format!(
                                "engine passed isOrderedBefore({a}, {b}) but a crash at point {q} \
                                 shows {b} data while {a} is incomplete"
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    // (c) Pmemcheck, where the transaction shape is comparable.
    if program.pmemcheck_comparable() {
        let pc = run_pmemcheck(&program.trace(0));
        let engine_missing = diags.iter().any(|d| d.kind == DiagKind::MissingLog);
        let pc_missing = pc.has(DiagKind::MissingLog);
        if engine_missing != pc_missing {
            divergences.push(Divergence {
                kind: DivergenceKind::PmemcheckMissingLog,
                op_index: None,
                detail: format!(
                    "missing-log presence: engine={engine_missing}, pmemcheck={pc_missing}"
                ),
            });
        }
        let txend_ops: Vec<usize> = program
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::TxCheckerEnd))
            .map(|(i, _)| i)
            .collect();
        let engine_txend = diags
            .iter()
            .any(|d| d.kind == DiagKind::NotPersisted && txend_ops.iter().any(|&i| at_op(d, i)));
        let pc_txend =
            pc.iter().any(|d| d.kind == DiagKind::NotPersisted && d.message.contains("TX_END"));
        if engine_txend != pc_txend {
            divergences.push(Divergence {
                kind: DivergenceKind::PmemcheckTxEnd,
                op_index: None,
                detail: format!(
                    "unpersisted-at-TX-end presence: engine={engine_txend}, pmemcheck={pc_txend}"
                ),
            });
        }
    }

    Ok(divergences)
}
