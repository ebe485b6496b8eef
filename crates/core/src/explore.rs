//! Systematic crash-point exploration with prefix-shared replay.
//!
//! PMTest (§3.1) infers durability guarantees but never *executes* a
//! recovery path. This module closes that gap: it enumerates crash points of
//! a recorded program, materializes each point's reachable post-crash
//! images through the ground-truth oracle ([`pmtest_pmem::crash`]), and runs
//! a workload-supplied [`RecoveryProc`] — recover, then check invariants —
//! against every image.
//!
//! # Crash-point selection
//!
//! *Model mode* visits the ordering boundaries: one crash point immediately
//! before each `sfence`/`dfence`, plus the end of the trace
//! ([`CrashSim::boundary_points`]). Within an epoch no write becomes forced
//! and pieces only accumulate, so every image reachable at an interior point
//! is also reachable at the epoch's terminating fence point — boundary
//! points are a covering set, and the sweep is exhaustive up to the
//! per-point state cap. *Random mode* samples crash points (and images per
//! point) with a seeded RNG for cheap wide sweeps over long traces.
//!
//! # Prefix sharing
//!
//! Visiting crash points in ascending order drives one
//! [`CrashCursor`](pmtest_pmem::crash::CrashCursor) forward, folding in only
//! the ops between adjacent points, so a whole sweep replays each operation
//! exactly once instead of rescanning the prefix per point (the
//! [`CrashSim::analyze`] cost profile, quadratic over a sweep). The
//! [`ExploreStats`] hit/miss counters make the sharing observable: a point
//! served off the live cursor is a `prefix_share_hit`; a point that forced a
//! rebuild from operation 0 (backward seek, or a fresh-replay reference run)
//! is a miss.
//!
//! # Images
//!
//! Every image of the sweep is built in the cursor's one working image: the
//! durable image (the base plus every forced write) with, per dirty cache
//! line, a chosen prefix of that line's pending writes. The cursor keeps it
//! in step with the durable image as it advances, and readying a point
//! moves back only the lines the previous point left above their forced
//! prefix, so a point starts at its minimal image without a copy or an
//! allocation. Model mode steps the image through the odometer
//! ([`CrashChoices::step`]), random mode redraws it
//! ([`CrashSampler::sample`]), and either rewrites only the lines whose
//! choice changed. Each image is copied into one recovery buffer reused
//! across the whole sweep, since [`RecoveryProc::recover`] may change any
//! byte and reports no write set, and the raw image is copied out only for
//! a violation, so checking an image allocates nothing.

use std::fmt;

use pmtest_pmem::crash::{CrashChoices, CrashSampler, CrashSim};
use pmtest_trace::SourceLoc;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A workload's recovery procedure plus post-recovery invariants.
///
/// Exploration hands each reachable crash image first to
/// [`recover`](Self::recover) (which may mutate it, e.g. replaying or
/// rolling back a journal, and may *refuse* images it can prove lost
/// acknowledged data), then to [`check`](Self::check) for the workload's
/// consistency invariants. Both phases report violations as human-readable
/// strings; exploration attaches the crash point and culprit attribution.
pub trait RecoveryProc {
    /// Short name for reports (e.g. `"queue"`).
    fn name(&self) -> &str;

    /// Runs recovery on a raw post-crash image, mutating it in place.
    ///
    /// The default is a no-op for workloads whose recovery is read-only.
    ///
    /// # Errors
    ///
    /// Returns a description of why recovery rejected the image (an
    /// unrecoverable or impossible state).
    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let _ = image;
        Ok(())
    }

    /// Checks the workload's invariants on a recovered image.
    ///
    /// `point` is the crash point that produced the image (number of
    /// operations executed before the crash), for point-dependent
    /// invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    fn check(&self, point: usize, image: &[u8]) -> Result<(), String>;
}

/// Crash-point selection strategy.
#[derive(Clone, Debug)]
pub enum ExploreMode {
    /// Enumerate every ordering boundary (`sfence`/`dfence`/epoch end) and
    /// all reachable images per point, up to the state cap.
    Model,
    /// Sample `points` crash points and `samples_per_point` images each with
    /// a deterministic RNG. Sampled points are visited in ascending order so
    /// the sweep still prefix-shares.
    Random {
        /// RNG seed (same seed, same sweep).
        seed: u64,
        /// Crash points to draw from `0..=op_count`.
        points: usize,
        /// Images sampled per visited point.
        samples_per_point: usize,
    },
}

/// Configuration of one exploration sweep.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Crash-point selection strategy.
    pub mode: ExploreMode,
    /// Model mode: most images enumerated per crash point. Points with more
    /// reachable states are truncated and marked `capped` in the report.
    pub max_states_per_point: usize,
    /// Stop the sweep after this many violations.
    pub max_violations: usize,
    /// Rebuild the analysis from scratch at every crash point instead of
    /// prefix-sharing — the reference the proptests compare against. Same
    /// verdicts, quadratic cost, zero prefix-share hits.
    pub fresh_replay: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            mode: ExploreMode::Model,
            max_states_per_point: 512,
            max_violations: 16,
            fresh_replay: false,
        }
    }
}

/// Which phase of the recovery procedure rejected the image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExplorePhase {
    /// [`RecoveryProc::recover`] refused or failed on the raw image.
    Recover,
    /// [`RecoveryProc::check`] found an invariant violation after recovery.
    Invariant,
}

impl fmt::Display for ExplorePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Recover => write!(f, "recover"),
            Self::Invariant => write!(f, "invariant"),
        }
    }
}

/// One violated crash image.
#[derive(Clone, Debug)]
pub struct ExploreViolation {
    /// Crash point (operations executed before the crash).
    pub point: usize,
    /// Phase that rejected the image.
    pub phase: ExplorePhase,
    /// The violation, as reported by the recovery procedure.
    pub reason: String,
    /// Index of the earliest recorded operation whose loss distinguishes
    /// this image from the fully-persisted state — the write the program
    /// failed to make durable in time.
    pub culprit_op: Option<usize>,
    /// Source site of the culprit op, when the recording captured one.
    pub culprit_site: Option<SourceLoc>,
    /// The offending raw (pre-recovery) memory image.
    pub image: Vec<u8>,
}

/// Per-crash-point summary row.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// The crash point.
    pub point: usize,
    /// Cache lines with pending writes at this point.
    pub dirty_lines: usize,
    /// Reachable crash states at this point (saturating).
    pub state_count: u128,
    /// Images actually validated at this point.
    pub images_checked: u64,
    /// Whether enumeration was truncated by `max_states_per_point`.
    pub capped: bool,
    /// Violations found at this point.
    pub violations: usize,
}

/// Exploration counters of one sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Crash points visited.
    pub crash_points_enumerated: u64,
    /// Images materialized and run through the recovery procedure.
    pub images_checked: u64,
    /// Crash points served by advancing the live cursor (shared prefix
    /// state reused).
    pub prefix_share_hits: u64,
    /// Crash points that paid a from-scratch rescan of the op prefix
    /// (backward seeks; every point of a fresh-replay run).
    pub prefix_share_misses: u64,
}

impl ExploreStats {
    /// Fraction of crash points served off shared prefix state.
    #[must_use]
    pub fn prefix_share_hit_rate(&self) -> f64 {
        let total = self.prefix_share_hits + self.prefix_share_misses;
        if total == 0 {
            0.0
        } else {
            self.prefix_share_hits as f64 / total as f64
        }
    }

    /// Accumulates another sweep's counters into this one.
    pub fn merge(&mut self, other: &ExploreStats) {
        self.crash_points_enumerated += other.crash_points_enumerated;
        self.images_checked += other.images_checked;
        self.prefix_share_hits += other.prefix_share_hits;
        self.prefix_share_misses += other.prefix_share_misses;
    }
}

/// The result of one exploration sweep.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// [`RecoveryProc::name`] of the validated workload.
    pub proc_name: String,
    /// Total recorded operations (crash points range over `0..=op_count`).
    pub op_count: usize,
    /// One row per visited crash point, in visit order.
    pub points: Vec<PointOutcome>,
    /// Violations, in discovery order (bounded by `max_violations`).
    pub violations: Vec<ExploreViolation>,
    /// Sweep counters.
    pub stats: ExploreStats,
}

impl ExploreReport {
    /// Whether every checked image recovered cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic text rendering (no image bytes), used by the golden
    /// corpus tests: any drift in exploration verdicts is byte-visible.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "explore {}: {} ops", self.proc_name, self.op_count);
        for p in &self.points {
            let capped = if p.capped { " (capped)" } else { "" };
            let _ = write!(
                out,
                "point {:>3}: {} dirty lines, {} states, {} checked{}",
                p.point, p.dirty_lines, p.state_count, p.images_checked, capped
            );
            let _ = if p.violations > 0 {
                writeln!(out, " <- {} violation(s)", p.violations)
            } else {
                writeln!(out)
            };
        }
        for v in &self.violations {
            let _ = write!(out, "FAIL @point {} [{}]: {}", v.point, v.phase, v.reason);
            match (v.culprit_op, v.culprit_site) {
                (Some(op), Some(site)) => {
                    let _ = writeln!(out, " (culprit op {op} @{site})");
                }
                (Some(op), None) => {
                    let _ = writeln!(out, " (culprit op {op})");
                }
                _ => {
                    let _ = writeln!(out);
                }
            }
        }
        let s = &self.stats;
        let _ = writeln!(
            out,
            "summary: {} points, {} images checked, {} violation(s), prefix-share {}/{}",
            s.crash_points_enumerated,
            s.images_checked,
            self.violations.len(),
            s.prefix_share_hits,
            s.prefix_share_hits + s.prefix_share_misses,
        );
        out
    }
}

/// Runs one exploration sweep of `sim` against `proc`. Exploration needs no
/// engine: the sweep's counters come back in [`ExploreReport::stats`].
#[must_use]
pub fn explore(sim: &CrashSim, proc: &dyn RecoveryProc, cfg: &ExploreConfig) -> ExploreReport {
    let (points, samples_per_point): (Vec<usize>, Option<usize>) = match cfg.mode {
        ExploreMode::Model => (sim.boundary_points(), None),
        ExploreMode::Random { seed, points, samples_per_point } => {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut pts: Vec<usize> =
                (0..points).map(|_| rng.gen_range(0..=sim.op_count())).collect();
            pts.sort_unstable();
            pts.dedup();
            (pts, Some(samples_per_point))
        }
    };
    let mut sample_rng = match cfg.mode {
        ExploreMode::Random { seed, .. } => SmallRng::seed_from_u64(seed ^ 0x9e37_79b9),
        ExploreMode::Model => SmallRng::seed_from_u64(0),
    };

    let mut report = ExploreReport {
        proc_name: proc.name().to_owned(),
        op_count: sim.op_count(),
        points: Vec::with_capacity(points.len()),
        violations: Vec::new(),
        stats: ExploreStats::default(),
    };
    let mut cursor = sim.cursor();
    // The one buffer every image of the sweep is recovered in.
    let mut recovered: Vec<u8> = Vec::new();
    'sweep: for point in points {
        let rebuilt = if cfg.fresh_replay {
            // Reference mode: throw the shared state away so every point
            // pays the full rescan, like per-point `analyze()`.
            cursor = sim.cursor();
            cursor.seek(point);
            true
        } else {
            cursor.seek(point)
        };
        report.stats.crash_points_enumerated += 1;
        if rebuilt {
            report.stats.prefix_share_misses += 1;
        } else {
            report.stats.prefix_share_hits += 1;
        }
        // The point's states are stepped in the cursor's working image.
        let analysis = cursor.analysis();
        let state_count = analysis.state_count();
        let mut outcome = PointOutcome {
            point,
            dirty_lines: analysis.dirty_lines(),
            state_count,
            images_checked: 0,
            capped: false,
            violations: 0,
        };
        let mut states = match samples_per_point {
            None => {
                outcome.capped = state_count > cfg.max_states_per_point as u128;
                PointStates::All(analysis.enumerate(), cfg.max_states_per_point)
            }
            Some(n) => PointStates::Sampled(analysis.sampler(), n),
        };
        while let Some((image, prefixes)) = states.next(&mut sample_rng) {
            outcome.images_checked += 1;
            report.stats.images_checked += 1;
            recovered.clear();
            recovered.extend_from_slice(image);
            let failed = match proc.recover(&mut recovered) {
                Err(reason) => Some((ExplorePhase::Recover, reason)),
                Ok(()) => match proc.check(point, &recovered) {
                    Err(reason) => Some((ExplorePhase::Invariant, reason)),
                    Ok(()) => None,
                },
            };
            if let Some((phase, reason)) = failed {
                outcome.violations += 1;
                let culprit_op = analysis.culprit_op(prefixes);
                let culprit_site = culprit_op.and_then(|op| sim.site(op));
                report.violations.push(ExploreViolation {
                    point,
                    phase,
                    reason,
                    culprit_op,
                    culprit_site,
                    image: image.to_vec(),
                });
                if report.violations.len() >= cfg.max_violations {
                    report.points.push(outcome);
                    break 'sweep;
                }
            }
        }
        report.points.push(outcome);
    }
    report
}

/// The images one crash point visits, with how many are left: the
/// odometer's states up to the cap (model mode), or seeded draws (random
/// mode).
enum PointStates<'a> {
    All(CrashChoices<'a>, usize),
    Sampled(CrashSampler<'a>, usize),
}

impl PointStates<'_> {
    /// The next image and its per-line prefix choice, borrowed from the
    /// point's working image.
    fn next(&mut self, rng: &mut SmallRng) -> Option<(&[u8], &[usize])> {
        match self {
            Self::All(choices, left) => {
                *left = left.checked_sub(1)?;
                choices.step()
            }
            Self::Sampled(sampler, left) => {
                *left = left.checked_sub(1)?;
                Some(sampler.sample(rng))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_interval::ByteRange;
    use pmtest_pmem::crash::ValuedOp;

    fn w(addr: u64, data: &[u8]) -> ValuedOp {
        ValuedOp::Write { range: ByteRange::with_len(addr, data.len() as u64), data: data.to_vec() }
    }

    fn fl(addr: u64, len: u64) -> ValuedOp {
        ValuedOp::Flush(ByteRange::with_len(addr, len))
    }

    /// Fig. 1a shape: valid flag may persist before the data it guards.
    fn buggy_sim() -> CrashSim {
        CrashSim::new(
            vec![0; 128],
            vec![w(0, &[0xAA]), w(64, &[1]), fl(0, 1), fl(64, 1), ValuedOp::Fence],
        )
    }

    fn fixed_sim() -> CrashSim {
        CrashSim::new(
            vec![0; 128],
            vec![w(0, &[0xAA]), fl(0, 1), ValuedOp::Fence, w(64, &[1]), fl(64, 1), ValuedOp::Fence],
        )
    }

    struct FlagProc;

    impl RecoveryProc for FlagProc {
        fn name(&self) -> &str {
            "flag"
        }

        fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
            if image[64] == 1 && image[0] != 0xAA {
                Err("valid flag set but data stale".to_owned())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn model_mode_finds_the_missing_barrier() {
        let report = explore(&buggy_sim(), &FlagProc, &ExploreConfig::default());
        assert!(!report.is_clean());
        let v = &report.violations[0];
        assert_eq!(v.phase, ExplorePhase::Invariant);
        assert_eq!(v.culprit_op, Some(0), "stale data write is the culprit");
        assert!(v.reason.contains("stale"));
    }

    #[test]
    fn model_mode_clean_on_fixed_program() {
        let report = explore(&fixed_sim(), &FlagProc, &ExploreConfig::default());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.stats.prefix_share_misses, 0);
        assert_eq!(
            report.stats.crash_points_enumerated,
            3,
            "two fences plus trace end: {}",
            report.render()
        );
    }

    #[test]
    fn random_mode_is_deterministic_and_shares_prefixes() {
        let cfg = ExploreConfig {
            mode: ExploreMode::Random { seed: 7, points: 16, samples_per_point: 8 },
            ..ExploreConfig::default()
        };
        let a = explore(&buggy_sim(), &FlagProc, &cfg);
        let b = explore(&buggy_sim(), &FlagProc, &cfg);
        assert_eq!(a.render(), b.render(), "same seed, same sweep");
        assert_eq!(a.stats.prefix_share_misses, 0, "sorted points never rebuild");
        assert!(!a.is_clean(), "sampling finds the reachable bug");
    }

    #[test]
    fn fresh_replay_matches_shared_verdicts_with_zero_hits() {
        let shared = explore(&buggy_sim(), &FlagProc, &ExploreConfig::default());
        let fresh = explore(
            &buggy_sim(),
            &FlagProc,
            &ExploreConfig { fresh_replay: true, ..ExploreConfig::default() },
        );
        assert_eq!(shared.stats.prefix_share_misses, 0);
        assert_eq!(fresh.stats.prefix_share_hits, 0);
        // Everything except the share counters must agree byte-for-byte.
        let strip = |r: &ExploreReport| {
            r.render().lines().filter(|l| !l.starts_with("summary:")).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(strip(&shared), strip(&fresh));
        assert_eq!(shared.stats.images_checked, fresh.stats.images_checked);
    }

    #[test]
    fn max_violations_bounds_the_sweep() {
        let cfg = ExploreConfig { max_violations: 1, ..ExploreConfig::default() };
        let report = explore(&buggy_sim(), &FlagProc, &cfg);
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn recover_phase_failures_are_attributed() {
        struct Refusing;
        impl RecoveryProc for Refusing {
            fn name(&self) -> &str {
                "refusing"
            }
            fn recover(&self, image: &mut [u8]) -> Result<(), String> {
                if image[0] == 0xAA {
                    Err("cannot mount".to_owned())
                } else {
                    Ok(())
                }
            }
            fn check(&self, _point: usize, _image: &[u8]) -> Result<(), String> {
                Ok(())
            }
        }
        let report = explore(&buggy_sim(), &Refusing, &ExploreConfig::default());
        assert!(report.violations.iter().all(|v| v.phase == ExplorePhase::Recover));
        assert!(!report.is_clean());
    }
}
