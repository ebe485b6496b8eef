//! Exploration cross-validation: runs the crash-point exploration engine
//! over a generated program with a *derived* recovery procedure and checks
//! its verdicts against the existing oracles.
//!
//! The derived procedure turns every check the engine **passed** into a
//! recovery invariant:
//!
//! * a passed `isPersist(range)` at crash point `p` asserts that at every
//!   explored point `q ≥ p`, each byte of `range` not rewritten in `[p, q)`
//!   still holds its point-`p` value (the *rewrite mask* — later stores
//!   legitimately change the bytes without unpersisting anything);
//! * a passed `isOrderedBefore(a, b)` at point `p` asserts that no explored
//!   point `q ≤ p` reaches an image where a byte of `b` holds its
//!   latest-write value while `a` is incomplete — the same per-byte
//!   most-recent-update semantics as the comparator's witness scan.
//!
//! **`ofence` allowance.** The crash oracle conservatively ignores `ofence`
//! (see `crates/pmem/tests/hops_oracle.rs`): it over-approximates
//! reachability, so an ordering "witness" in an `ofence` program may be
//! unreachable on real HOPS hardware. [`crate::compare`] suppresses its
//! missed-order scan for such programs; the exploration comparator asserts
//! the *same* allowance by deriving **no** order invariants when the
//! program contains an `ofence`. Without this, every model-mode HOPS run
//! over an `ofence`-ordered pair would report a false divergence.
//!
//! Three divergence classes come out of a run:
//!
//! * [`ExploreDivergenceKind::ReplayMismatch`] — the prefix-shared sweep
//!   and a fresh-replay-per-point reference disagree (same program, same
//!   config): the incremental cursor is wrong.
//! * [`ExploreDivergenceKind::VerdictMismatch`] — exploration violated an
//!   invariant the engine passed, and the oracle corroborates the lossy
//!   state: the engine missed a bug.
//! * [`ExploreDivergenceKind::OracleDisagreement`] — exploration and the
//!   per-check oracle verdict contradict each other in either direction
//!   (a "violating" image the oracle proves unreachable, or a provably
//!   lossy range the sweep never flagged despite full enumeration).

use pmtest_core::explore::{explore, ExploreConfig, ExploreReport, RecoveryProc};
use pmtest_core::{Diag, DiagKind, SubmitError};
use pmtest_interval::ByteRange;
use pmtest_pmem::crash::{CrashSim, ValuedOp};

use crate::compare::MAX_STATES_PER_POINT;
use crate::exec::{self, EngineRun};
use crate::program::{Op, Program, LOC_FILE};

/// The class of an exploration divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExploreDivergenceKind {
    /// Prefix-shared and fresh-replay sweeps produced different verdicts.
    ReplayMismatch,
    /// Exploration violated an engine-passed invariant; the oracle agrees
    /// the lossy state is reachable.
    VerdictMismatch,
    /// Exploration and the crash oracle contradict each other on a check.
    OracleDisagreement,
}

/// One divergence between the exploration engine and the reference oracles.
#[derive(Clone, Debug)]
pub struct ExploreDivergence {
    /// The class.
    pub kind: ExploreDivergenceKind,
    /// The checker op the divergence anchors to, if any.
    pub op_index: Option<usize>,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for ExploreDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "{:?} at op {}: {}", self.kind, i, self.detail),
            None => write!(f, "{:?}: {}", self.kind, self.detail),
        }
    }
}

/// A persist invariant derived from a passed `isPersist`.
struct PersistInv {
    /// Program op index of the check.
    op: usize,
    /// Crash point the check was evaluated at.
    point: usize,
    range: ByteRange,
    /// The range's bytes in the final image of the first `point` ops.
    expect: Vec<u8>,
}

/// An order invariant derived from a passed `isOrderedBefore`.
struct OrderInv {
    op: usize,
    point: usize,
    a: ByteRange,
    b: ByteRange,
    /// Full final image of the first `point` ops (byte attribution).
    final_p: Vec<u8>,
}

/// Recovery procedure derived from the checks a program's engine run
/// passed. `recover` is a no-op — generated programs have no recovery code;
/// the invariants are pure image predicates.
pub struct DerivedRecovery {
    ops: Vec<ValuedOp>,
    persists: Vec<PersistInv>,
    orders: Vec<OrderInv>,
}

impl DerivedRecovery {
    /// Derives the invariant set for `program` from `diags`, the engine
    /// diagnostics of trace 0 (an empty slice means every check passed).
    #[must_use]
    pub fn derive(program: &Program, diags: &[Diag]) -> Self {
        let fails_at = |kind: DiagKind, index: usize| {
            diags.iter().any(|d| {
                d.kind == kind && d.loc.file() == LOC_FILE && d.loc.line() as usize == index
            })
        };
        let ops = program.valued_ops();
        let mut persists = Vec::new();
        let mut orders = Vec::new();
        for (i, op) in program.ops.iter().enumerate() {
            match *op {
                Op::CheckPersist { addr, len } => {
                    if fails_at(DiagKind::NotPersisted, i) {
                        continue;
                    }
                    let range = ByteRange::with_len(addr, len);
                    let point = program.point_before(i);
                    let final_p = CrashSim::new(
                        vec![0u8; crate::program::POOL_BYTES as usize],
                        ops[..point].to_vec(),
                    )
                    .final_image();
                    let expect = final_p[addr as usize..(addr + len) as usize].to_vec();
                    persists.push(PersistInv { op: i, point, range, expect });
                }
                Op::CheckOrdered { first, second } => {
                    // The ofence allowance: the oracle ignores `ofence`, so
                    // ordering witnesses in such programs may be unreachable
                    // — derive no order invariant at all (mirrors
                    // `compare::check_program`'s suppression).
                    if program.has_ofence() || fails_at(DiagKind::NotOrderedBefore, i) {
                        continue;
                    }
                    let point = program.point_before(i);
                    let final_p = CrashSim::new(
                        vec![0u8; crate::program::POOL_BYTES as usize],
                        ops[..point].to_vec(),
                    )
                    .final_image();
                    orders.push(OrderInv {
                        op: i,
                        point,
                        a: ByteRange::with_len(first.0, first.1),
                        b: ByteRange::with_len(second.0, second.1),
                        final_p,
                    });
                }
                _ => {}
            }
        }
        Self { ops, persists, orders }
    }

    /// Whether `byte` is rewritten by a store in valued-op window
    /// `[from, to)`.
    fn rewritten(&self, from: usize, to: usize, byte: u64) -> bool {
        self.ops[from..to].iter().any(|op| match op {
            ValuedOp::Write { range: w, .. } => w.start() <= byte && byte < w.end(),
            _ => false,
        })
    }
}

impl RecoveryProc for DerivedRecovery {
    fn name(&self) -> &str {
        "difftest-derived"
    }

    fn check(&self, point: usize, image: &[u8]) -> Result<(), String> {
        for inv in &self.persists {
            if point < inv.point {
                continue;
            }
            for (k, &want) in inv.expect.iter().enumerate() {
                let byte = inv.range.start() + k as u64;
                if self.rewritten(inv.point, point, byte) {
                    continue; // legitimately overwritten after the check
                }
                let got = image[byte as usize];
                if got != want {
                    return Err(format!(
                        "persist@{}: byte {byte} of {} lost ({got:#04x} != {want:#04x})",
                        inv.op, inv.range
                    ));
                }
            }
        }
        for inv in &self.orders {
            if point > inv.point {
                continue;
            }
            let (b0, b1) = (inv.b.start() as usize, inv.b.end() as usize);
            let (a0, a1) = (inv.a.start() as usize, inv.a.end() as usize);
            let b_landed = (b0..b1).any(|x| inv.final_p[x] != 0 && image[x] == inv.final_p[x]);
            let a_incomplete = image[a0..a1] != inv.final_p[a0..a1];
            if b_landed && a_incomplete {
                return Err(format!(
                    "order@{}: {} data landed while {} is incomplete",
                    inv.op, inv.b, inv.a
                ));
            }
        }
        Ok(())
    }
}

/// The outcome of exploring one program.
#[derive(Debug)]
pub struct ExploreOutcome {
    /// The prefix-shared model-mode sweep.
    pub shared: ExploreReport,
    /// The fresh-replay-per-point reference sweep.
    pub fresh: ExploreReport,
    /// Divergences between the sweeps and the oracles.
    pub divergences: Vec<ExploreDivergence>,
}

/// A report's verdict body: everything except the summary line, whose
/// prefix-share figures legitimately differ between the shared and fresh
/// sweeps. Point outcomes, violations, diagnostics, and attributions must
/// be byte-identical.
#[must_use]
pub fn verdict_body(report: &ExploreReport) -> String {
    report.render().lines().filter(|l| !l.starts_with("summary:")).collect::<Vec<_>>().join("\n")
}

/// The exploration config difftest uses: model mode, the comparator's
/// per-point state cap, and no violation truncation (the two sweeps must be
/// comparable in full).
#[must_use]
pub fn explore_config() -> ExploreConfig {
    ExploreConfig {
        max_states_per_point: MAX_STATES_PER_POINT as usize,
        max_violations: usize::MAX,
        ..ExploreConfig::default()
    }
}

/// Runs the exploration cross-validation on one program in model mode
/// (every fence boundary): engine run → derived invariants → prefix-shared
/// sweep vs fresh-replay reference vs per-check oracle verdicts.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine stopped accepting traces.
pub fn explore_program(program: &Program) -> Result<ExploreOutcome, SubmitError> {
    explore_program_with(program, None)
}

/// Like [`explore_program`], but `random: Some((seed, points))` switches
/// both sweeps to seeded random-mode crash-point sampling — the CI sweep
/// configuration. The shared-vs-fresh and "violation corroborated by the
/// oracle" comparisons still apply; the reverse direction ("oracle finds a
/// lossy state, the sweep must flag it") only holds when every boundary is
/// visited, so it is skipped in random mode.
///
/// # Errors
///
/// Returns [`SubmitError`] if the engine stopped accepting traces.
pub fn explore_program_with(
    program: &Program,
    random: Option<(u64, usize)>,
) -> Result<ExploreOutcome, SubmitError> {
    let report = exec::run_engine(program, &EngineRun::new(1, 1), 1)?;
    let diags: Vec<Diag> = report
        .traces()
        .iter()
        .find(|t| t.trace_id == 0)
        .map(|t| t.diags.clone())
        .unwrap_or_default();
    let proc = DerivedRecovery::derive(program, &diags);
    let sim = exec::crash_sim(program);

    let mut cfg = explore_config();
    if let Some((seed, points)) = random {
        cfg.mode = pmtest_core::explore::ExploreMode::Random { seed, points, samples_per_point: 4 };
    }
    let shared = explore(&sim, &proc, &cfg);
    let fresh = explore(&sim, &proc, &ExploreConfig { fresh_replay: true, ..cfg.clone() });

    let mut divergences = Vec::new();

    // (1) Prefix sharing must be observationally invisible.
    let (sb, fb) = (verdict_body(&shared), verdict_body(&fresh));
    if sb != fb {
        let diff = sb
            .lines()
            .zip(fb.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("shared {a:?} vs fresh {b:?}"))
            .unwrap_or_else(|| "reports differ in length".to_owned());
        divergences.push(ExploreDivergence {
            kind: ExploreDivergenceKind::ReplayMismatch,
            op_index: None,
            detail: format!("prefix-shared sweep diverges from fresh replay: {diff}"),
        });
    }

    // (2)/(3) Per-check cross-validation against the oracle. A violation's
    // reason names its source invariant ("persist@op" / "order@op").
    let any_capped = shared.points.iter().any(|p| p.capped);
    for inv in &proc.persists {
        let violated =
            shared.violations.iter().any(|v| v.reason.starts_with(&format!("persist@{}:", inv.op)));
        let durable = sim.analyze(inv.point).is_guaranteed_durable(inv.range);
        if violated && durable {
            divergences.push(ExploreDivergence {
                kind: ExploreDivergenceKind::OracleDisagreement,
                op_index: Some(inv.op),
                detail: format!(
                    "exploration reached an image losing {} but the oracle guarantees it \
                     durable at point {}",
                    inv.range, inv.point
                ),
            });
        } else if violated {
            divergences.push(ExploreDivergence {
                kind: ExploreDivergenceKind::VerdictMismatch,
                op_index: Some(inv.op),
                detail: format!(
                    "engine passed isPersist({}) but exploration reached a lossy image at \
                     point {} (oracle corroborates)",
                    inv.range, inv.point
                ),
            });
        } else if !durable
            && !any_capped
            && random.is_none()
            && !masked_by_rewrite(&proc, &sim, inv)
        {
            divergences.push(ExploreDivergence {
                kind: ExploreDivergenceKind::OracleDisagreement,
                op_index: Some(inv.op),
                detail: format!(
                    "oracle reaches an image losing {} at point {} but the fully-enumerated \
                     sweep never flagged it",
                    inv.range, inv.point
                ),
            });
        }
    }
    for inv in &proc.orders {
        if shared.violations.iter().any(|v| v.reason.starts_with(&format!("order@{}:", inv.op))) {
            // The exploration enumerates exactly the oracle's reachable
            // states, so an order witness is oracle-corroborated by
            // construction (order invariants are never derived for ofence
            // programs — see the module docs).
            divergences.push(ExploreDivergence {
                kind: ExploreDivergenceKind::VerdictMismatch,
                op_index: Some(inv.op),
                detail: format!(
                    "engine passed isOrderedBefore({}, {}) but exploration reached {} data \
                     without {}",
                    inv.a, inv.b, inv.b, inv.a
                ),
            });
        }
    }

    Ok(ExploreOutcome { shared, fresh, divergences })
}

/// Whether a lossy state for `inv` could be hidden from the sweep by a
/// rewrite: exploration only visits fence boundaries, and a store to the
/// checked range between the check's point and its covering boundary masks
/// the corresponding bytes (they were legitimately overwritten).
fn masked_by_rewrite(proc: &DerivedRecovery, sim: &CrashSim, inv: &PersistInv) -> bool {
    let boundary =
        sim.boundary_points().into_iter().find(|&b| b >= inv.point).unwrap_or(proc.ops.len());
    (inv.range.start()..inv.range.end()).any(|byte| proc.rewritten(inv.point, boundary, byte))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Dialect;

    fn x86(ops: Vec<Op>) -> Program {
        Program { dialect: Dialect::X86, ops }
    }

    #[test]
    fn clean_program_explores_without_divergence() {
        let p = x86(vec![
            Op::Write { addr: 0, len: 8 },
            Op::Flush { addr: 0, len: 8 },
            Op::Fence,
            Op::CheckPersist { addr: 0, len: 8 },
            Op::Write { addr: 64, len: 8 },
            Op::Flush { addr: 64, len: 8 },
            Op::Fence,
            Op::CheckOrdered { first: (0, 8), second: (64, 8) },
        ]);
        let outcome = explore_program(&p).unwrap();
        assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        assert!(outcome.shared.is_clean(), "{}", outcome.shared.render());
        assert!((outcome.shared.stats.prefix_share_hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(outcome.fresh.stats.prefix_share_hits, 0);
    }

    #[test]
    fn failed_checks_derive_no_invariants() {
        // The engine fails this isPersist (no fence), so no invariant is
        // derived and exploration stays clean — a failed check is the
        // engine doing its job, not an exploration divergence.
        let p = x86(vec![
            Op::Write { addr: 0, len: 8 },
            Op::Flush { addr: 0, len: 8 },
            Op::CheckPersist { addr: 0, len: 8 },
        ]);
        let outcome = explore_program(&p).unwrap();
        assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        assert!(outcome.shared.is_clean());
    }

    #[test]
    fn rewrites_after_a_passed_check_are_masked() {
        // The checked range is overwritten (and left unflushed) after the
        // check: the new bytes are legitimately volatile, and the rewrite
        // mask must keep the persist invariant from firing on them.
        let p = x86(vec![
            Op::Write { addr: 0, len: 8 },
            Op::Flush { addr: 0, len: 8 },
            Op::Fence,
            Op::CheckPersist { addr: 0, len: 8 },
            Op::Write { addr: 0, len: 8 },
            Op::Write { addr: 64, len: 8 },
            Op::Flush { addr: 64, len: 8 },
            Op::Fence,
        ]);
        let outcome = explore_program(&p).unwrap();
        assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        assert!(outcome.shared.is_clean(), "{}", outcome.shared.render());
    }

    #[test]
    fn hops_ofence_orderings_are_allowed_not_diverging() {
        // Regression for the ofence allowance: the oracle ignores `ofence`,
        // so this ordering — real on HOPS hardware — has an oracle
        // "witness". The comparator must not derive an order invariant.
        let p = Program {
            dialect: Dialect::Hops,
            ops: vec![
                Op::Write { addr: 0, len: 8 },
                Op::OFence,
                Op::Write { addr: 64, len: 8 },
                Op::DFence,
                Op::CheckOrdered { first: (0, 8), second: (64, 8) },
            ],
        };
        let outcome = explore_program(&p).unwrap();
        assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        assert!(outcome.shared.is_clean(), "{}", outcome.shared.render());
    }

    #[test]
    fn verdict_bodies_of_shared_and_fresh_sweeps_match() {
        let p = x86(vec![
            Op::Write { addr: 0, len: 16 },
            Op::Flush { addr: 0, len: 16 },
            Op::Fence,
            Op::Write { addr: 128, len: 8 },
            Op::Fence,
            Op::CheckPersist { addr: 0, len: 16 },
        ]);
        let outcome = explore_program(&p).unwrap();
        assert_eq!(verdict_body(&outcome.shared), verdict_body(&outcome.fresh));
    }
}
