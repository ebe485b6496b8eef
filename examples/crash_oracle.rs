//! Why PMTest's diagnostics matter: the ground-truth crash oracle.
//!
//! PMTest reasons about traces; this repository also simulates the
//! hardware, enumerating every memory image a power failure could leave
//! behind (`pmtest::pmem::crash`). This example shows the two agreeing on
//! the paper's B-Tree Bug 2: when the split node is modified without a
//! `TX_ADD`, (1) PMTest reports a missing backup, and (2) the crash-point
//! exploration engine (`pmtest::core::explore`, DESIGN.md §15) sweeps
//! every fence boundary of the recorded transaction, runs recovery against
//! each reachable image, and pins the violation to a crash point and a
//! culprit store.
//!
//! Run with: `cargo run --release --example crash_oracle`

use std::sync::Arc;

use pmtest::core::explore::{explore, ExploreConfig, RecoveryProc};
use pmtest::prelude::*;
use pmtest::txlib::ObjPool;
use pmtest::workloads::{gen, BTree, CheckMode, Fault, FaultSet, KvMap};

fn build_tree(
    pm: Arc<PmPool>,
    faults: FaultSet,
    check: CheckMode,
) -> Result<BTree, Box<dyn std::error::Error>> {
    let pool = Arc::new(ObjPool::create(pm, 4096, PersistMode::X86)?);
    Ok(BTree::create(pool, check, faults)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. PMTest's view: the missing TX_ADD is reported from the trace.
    // ------------------------------------------------------------------
    let session = PmTestSession::builder().build();
    session.start();
    let pm = Arc::new(PmPool::new(1 << 21, session.sink()));
    let tree = build_tree(pm, FaultSet::one(Fault::BtreeSkipLogSplitNode), CheckMode::Checkers)?;
    for k in 0..8u64 {
        // enough inserts to force a split
        tree.insert(k, &gen::value_for(k, 16))?;
        session.send_trace();
    }
    let report = session.finish();
    println!("PMTest: {} FAIL, {} WARN", report.fail_count(), report.warn_count());
    assert!(report.has(DiagKind::MissingLog), "Bug 2 detected from the trace");

    // ------------------------------------------------------------------
    // 2. The oracle's view: replay the same workload on an untracked pool,
    //    record a crash log, crash everywhere, and run recovery.
    // ------------------------------------------------------------------
    let pm = Arc::new(PmPool::untracked(1 << 17));
    let tree =
        build_tree(pm.clone(), FaultSet::one(Fault::BtreeSkipLogSplitNode), CheckMode::None)?;
    for k in 0..3u64 {
        tree.insert(k, &gen::value_for(k, 16))?;
    }
    // Record the transaction containing the split (4th insert fills the
    // root and forces it).
    pm.begin_crash_recording();
    tree.insert(3, &gen::value_for(3, 16))?;
    let sim = pmtest::pmem::crash::CrashSim::from_pool(&pm).expect("recording active");

    // Recovery procedure: after rollback, every previously inserted key
    // must still be found with its value (the transaction never committed
    // ⇒ old state), or all four keys if it did commit.
    struct TreeRecovery;

    impl RecoveryProc for TreeRecovery {
        fn name(&self) -> &str {
            "btree-split"
        }

        fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
            let pool = Arc::new(
                ObjPool::recover_image(image, 4096, PersistMode::X86).map_err(|e| e.to_string())?,
            );
            let tree = BTree::open(pool, CheckMode::None, FaultSet::none());
            for k in 0..3u64 {
                match tree.get(k) {
                    Ok(Some(v)) if v == gen::value_for(k, 16) => {}
                    Ok(other) => return Err(format!("key {k}: lost or corrupted ({other:?})")),
                    Err(e) => return Err(format!("key {k}: tree unreadable: {e}")),
                }
            }
            Ok(())
        }
    }

    // The full Yat-style state space explodes (that is the point of §2.2);
    // report its size, then sweep the fence boundaries instead: model-mode
    // exploration visits every boundary crash point, prefix-sharing shadow
    // state between adjacent points, and bounds the per-point image count.
    let total = pmtest::baseline::yat::estimate_states(&sim);
    println!("oracle: {total} reachable crash states across all crash points");
    let config = ExploreConfig { max_states_per_point: 256, ..ExploreConfig::default() };
    let report = explore(&sim, &TreeRecovery, &config);
    println!("{}", report.render());
    let v = report.violations.first().expect("the sweep reaches the split's inconsistent image");
    println!(
        "  reachable inconsistency at crash point {} (culprit op {:?}): {}",
        v.point, v.culprit_op, v.reason
    );
    let site = v.culprit_site.expect("the culprit store has a recorded site");
    assert!(site.file().ends_with("btree.rs"), "culprit {site} is not a B-Tree store");
    Ok(())
}
