//! Property tests for crash-point exploration: over generated programs in
//! both dialects, the prefix-shared incremental sweep must be
//! observationally equivalent to a fresh-replay reference that rebuilds the
//! crash cursor from scratch at every point. "Observationally equivalent"
//! means the rendered verdict bodies (per-point state/violation rows, minus
//! the hit-rate summary line, which differs by construction) are
//! byte-identical, and the two sweeps visit the same points and check the
//! same number of images. Under small per-point state caps and in random
//! mode the two must also hand recovery the same images in the same order,
//! though the shared sweep starts each point from the working image the
//! point before left.

use std::cell::RefCell;
use std::hash::{DefaultHasher, Hash, Hasher};

use pmtest_core::explore::{explore, ExploreConfig, ExploreMode, RecoveryProc};
use pmtest_difftest::exec::crash_sim;
use pmtest_difftest::explore::{explore_program, explore_program_with, verdict_body};
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_difftest::program::Dialect;
use pmtest_pmem::crash::CrashSim;
use proptest::prelude::*;

/// Generates a program pinned to one dialect.
fn program_for(seed: u64, hops: bool, max_ops: usize) -> pmtest_difftest::program::Program {
    let cfg = GenConfig { max_ops, hops_probability: if hops { 1.0 } else { 0.0 } };
    let program = generate(seed, &cfg);
    assert_eq!(program.dialect, if hops { Dialect::Hops } else { Dialect::X86 });
    program
}

/// Accepts every image, logging each one's crash point and hash.
#[derive(Default)]
struct ImageLog(RefCell<Vec<(usize, u64)>>);

impl RecoveryProc for ImageLog {
    fn name(&self) -> &str {
        "image-log"
    }

    fn check(&self, point: usize, image: &[u8]) -> Result<(), String> {
        let mut hasher = DefaultHasher::new();
        image.hash(&mut hasher);
        self.0.borrow_mut().push((point, hasher.finish()));
        Ok(())
    }
}

/// The points and image hashes a sweep of `sim` under `cfg` hands to
/// recovery, in order.
fn images_handed_over(sim: &CrashSim, cfg: &ExploreConfig) -> Vec<(usize, u64)> {
    let log = ImageLog::default();
    let _ = explore(sim, &log, cfg);
    log.0.into_inner()
}

proptest! {
    /// Model-mode sweeps: shared and fresh replay agree byte-for-byte on
    /// every generated program, x86 and HOPS alike, and the shared sweep
    /// never pays a rescan (ascending fence boundaries are always cursor
    /// advances).
    #[test]
    fn prefix_shared_matches_fresh_replay_model_mode(
        seed in any::<u64>(),
        hops in any::<bool>(),
        max_ops in 8..40usize,
    ) {
        let program = program_for(seed, hops, max_ops);
        let outcome = explore_program(&program).expect("generated program must submit");
        prop_assert_eq!(verdict_body(&outcome.shared), verdict_body(&outcome.fresh));
        prop_assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        prop_assert_eq!(
            outcome.shared.stats.crash_points_enumerated,
            outcome.fresh.stats.crash_points_enumerated
        );
        prop_assert_eq!(outcome.shared.stats.images_checked, outcome.fresh.stats.images_checked);
        prop_assert_eq!(outcome.shared.stats.prefix_share_misses, 0);
        prop_assert_eq!(outcome.fresh.stats.prefix_share_hits, 0);
        if outcome.shared.stats.crash_points_enumerated > 0 {
            prop_assert!(outcome.shared.stats.prefix_share_hit_rate() >= 0.9);
        }
    }

    /// Random-mode sweeps (seeded sampling, including backward seeks that
    /// force rescans): shared and fresh still agree on every verdict.
    #[test]
    fn prefix_shared_matches_fresh_replay_random_mode(
        seed in any::<u64>(),
        sample_seed in any::<u64>(),
        hops in any::<bool>(),
        points in 1..12usize,
    ) {
        let program = program_for(seed, hops, 32);
        let outcome = explore_program_with(&program, Some((sample_seed, points)))
            .expect("generated program must submit");
        prop_assert_eq!(verdict_body(&outcome.shared), verdict_body(&outcome.fresh));
        prop_assert!(outcome.divergences.is_empty(), "{:?}", outcome.divergences);
        prop_assert_eq!(outcome.shared.stats.images_checked, outcome.fresh.stats.images_checked);
    }

    /// Capped model sweeps and random sweeps hand recovery the same images
    /// shared as fresh: a point whose states were cut off at the cap, or
    /// drawn at random, leaves lines above their forced prefix in the
    /// shared working image, and the next point must not see them.
    #[test]
    fn prefix_shared_sweeps_hand_recovery_fresh_replay_images(
        seed in any::<u64>(),
        sample_seed in any::<u64>(),
        hops in any::<bool>(),
        cap in 1..5usize,
        points in 1..12usize,
    ) {
        let sim = crash_sim(&program_for(seed, hops, 32));
        let random = ExploreMode::Random { seed: sample_seed, points, samples_per_point: 3 };
        for mode in [ExploreMode::Model, random] {
            let cfg = ExploreConfig { mode, max_states_per_point: cap, ..ExploreConfig::default() };
            let shared = images_handed_over(&sim, &cfg);
            let fresh = images_handed_over(&sim, &ExploreConfig { fresh_replay: true, ..cfg });
            prop_assert_eq!(shared, fresh);
        }
    }
}
