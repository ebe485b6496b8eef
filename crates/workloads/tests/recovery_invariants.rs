//! Recovery-invariant suite for crash-point exploration.
//!
//! For every workload with a [`RecoveryProc`][pmtest_core::explore::RecoveryProc]
//! (queue, low-level hashmap, PMFS journal replay), model-mode exploration
//! over the *correct* program must find zero violations, and each relevant
//! [`Fault`] catalog entry (or PMFS fault option) must produce at least one
//! violated crash image with the culprit write site located.
//!
//! Layout note: the queue/hashmap values are sized so every heap node fills
//! exactly one cache line (queue: 16-byte header + 48-byte value; hashmap:
//! 24-byte header + 40-byte value). The heap is a header-free first-fit
//! allocator starting right after the root area, so consecutive nodes land
//! on distinct lines — if a node shared its line with the *next* insert's
//! link slot, same-line prefix atomicity would mask the torn-node states
//! these tests must reach. Hashmap keys are likewise chosen (splitmix64,
//! 16 buckets) so their bucket slots avoid the count's cache line: key 4 →
//! byte 88, key 3 → 112, key 13 → 128, while count lives at byte 0.
//!
//! The queue and hashmap procs read and repair each image in place. The
//! `Mounted*` procs below recover the same way through a mount instead — a
//! fresh `PmPool` and `PmHeap`, `open`, the structure's walk, and a
//! snapshot copied back — and every sweep here must render, and keep
//! violation images, byte for byte alike under both.

use std::sync::Arc;

use pmtest_core::explore::{explore, ExploreConfig, ExploreReport, RecoveryProc};
use pmtest_interval::ByteRange;
use pmtest_pmem::crash::{CrashSim, ValuedOp};
use pmtest_pmem::{PmHeap, PmPool};
use pmtest_pmfs::{Pmfs, PmfsOptions};
use pmtest_workloads::{
    CheckMode, Fault, FaultSet, HashMapLl, HashMapRecovery, KvMap, PmQueue, PmfsRecovery,
    QueueRecovery,
};

const ROOT: u64 = 4096;
const QUEUE_VAL: usize = 48; // 16-byte node header + 48 = one full cache line
const HASH_VAL: usize = 40; // 24-byte node header + 40 = one full cache line

fn qval(tag: u8) -> Vec<u8> {
    vec![tag; QUEUE_VAL]
}

fn hval(tag: u8) -> Vec<u8> {
    vec![tag; HASH_VAL]
}

/// Asserts every violation in `report` carries a located culprit: an op
/// index plus a source site inside `file`.
fn assert_located(report: &ExploreReport, file: &str) {
    assert!(
        !report.is_clean(),
        "expected at least one violated crash image, got a clean sweep:\n{}",
        report.render()
    );
    for v in &report.violations {
        assert!(v.culprit_op.is_some(), "violation without culprit op:\n{}", report.render());
        let site = v
            .culprit_site
            .unwrap_or_else(|| panic!("violation without culprit site:\n{}", report.render()));
        assert!(
            site.file().ends_with(file),
            "culprit site {site} not in {file}:\n{}",
            report.render()
        );
    }
}

fn assert_clean(report: &ExploreReport) {
    assert!(report.is_clean(), "expected a clean sweep:\n{}", report.render());
}

// ---------------------------------------------------------------- queue --

/// Enqueue one value before recording, two during; explore every fence
/// boundary of the recorded window in model mode.
fn queue_report(faults: FaultSet) -> ExploreReport {
    let pool = Arc::new(PmPool::untracked(1 << 16));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let q = PmQueue::create(heap, CheckMode::None, faults).expect("create queue");
    q.enqueue(&qval(1)).expect("prior enqueue");
    pool.begin_crash_recording();
    q.enqueue(&qval(2)).expect("enqueue two");
    q.enqueue(&qval(3)).expect("enqueue three");
    let sim = CrashSim::from_pool(&pool).expect("recording active");
    let expected = vec![qval(1), qval(2), qval(3)];
    let mounted = MountedQueueRecovery { root_size: ROOT, expected: expected.clone(), prior: 1 };
    same_sweeps(&sim, &QueueRecovery::new(ROOT, expected, 1), &mounted, &ExploreConfig::default())
}

#[test]
fn queue_correct_program_recovers_at_every_crash_point() {
    let report = queue_report(FaultSet::none());
    assert_clean(&report);
    assert!(report.points.len() >= 3, "expected several fence boundaries");
    assert!(report.stats.images_checked > 0);
    // A model-mode ascending sweep prefix-shares every point.
    assert!((report.stats.prefix_share_hit_rate() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn queue_faults_produce_located_violations() {
    // Each fault breaks the durability ordering somewhere the recovery
    // invariants can observe: a torn node behind a durable link, or a
    // durable count acknowledging an enqueue whose link never persisted.
    for fault in [
        Fault::QueueSkipFlushNode,
        Fault::QueueSkipFenceNode,
        Fault::QueueSkipFlushLink,
        Fault::QueueLinkBeforeNodePersist,
    ] {
        let report = queue_report(FaultSet::one(fault));
        assert_located(&report, "queue.rs");
    }
}

#[test]
fn queue_recoverable_faults_stay_clean() {
    // Skipping the tail/count flush only delays derived fields the walk
    // repairs; a double flush is a pure performance bug.
    for fault in [Fault::QueueSkipFlushTail, Fault::QueueDoubleFlushTail] {
        let report = queue_report(FaultSet::one(fault));
        assert_clean(&report);
    }
}

// -------------------------------------------------------------- hashmap --

/// Insert key 4 before recording, keys 3 and 13 during (bucket slots on
/// lines 1 and 2, away from count's line 0).
fn hashmap_report(faults: FaultSet) -> ExploreReport {
    let pool = Arc::new(PmPool::untracked(1 << 16));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let m = HashMapLl::create(heap, 16, CheckMode::None, faults).expect("create map");
    m.insert(4, &hval(4)).expect("prior insert");
    pool.begin_crash_recording();
    m.insert(3, &hval(3)).expect("insert 3");
    m.insert(13, &hval(13)).expect("insert 13");
    let sim = CrashSim::from_pool(&pool).expect("recording active");
    let expected = vec![(4, hval(4)), (3, hval(3)), (13, hval(13))];
    let mounted = MountedHashMapRecovery {
        root_size: ROOT,
        nbuckets: 16,
        expected: expected.clone(),
        prior_keys: vec![4],
    };
    let proc = HashMapRecovery::new(ROOT, 16, expected, vec![4]);
    same_sweeps(&sim, &proc, &mounted, &ExploreConfig::default())
}

#[test]
fn hashmap_correct_program_recovers_at_every_crash_point() {
    let report = hashmap_report(FaultSet::none());
    assert_clean(&report);
    assert!(report.points.len() >= 3, "expected several fence boundaries");
    assert!((report.stats.prefix_share_hit_rate() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn hashmap_faults_produce_located_violations() {
    for fault in [
        Fault::HmLlSkipFlushNode,
        Fault::HmLlSkipFenceAfterNode,
        Fault::HmLlSkipFlushHead,
        Fault::HmLlSkipFenceAfterHead,
        Fault::HmLlLinkBeforeNodePersist,
    ] {
        let report = hashmap_report(FaultSet::one(fault));
        assert_located(&report, "hashmap_ll.rs");
    }
}

#[test]
fn hashmap_recoverable_faults_stay_clean() {
    // The count lags behind the walkable entries and is repaired by
    // recovery; double flushes change nothing semantically.
    for fault in [Fault::HmLlSkipFlushCount, Fault::HmLlDoubleFlushNode, Fault::HmLlDoubleFlushHead]
    {
        let report = hashmap_report(FaultSet::one(fault));
        assert_clean(&report);
    }
}

// ------------------------------------------------- mounted vs. in place --

/// Sweeps `sim` with the shipped proc and with its mounted twin, asserts
/// the two reports render alike and keep the same violation images, and
/// returns the shipped proc's report.
fn same_sweeps(
    sim: &CrashSim,
    shipped: &dyn RecoveryProc,
    mounted: &dyn RecoveryProc,
    cfg: &ExploreConfig,
) -> ExploreReport {
    let report = explore(sim, shipped, cfg);
    let reference = explore(sim, mounted, cfg);
    assert_eq!(report.render(), reference.render(), "in-place and mounted recovery disagree");
    assert_eq!(report.violations.len(), reference.violations.len());
    for (got, want) in report.violations.iter().zip(&reference.violations) {
        assert!(got.image == want.image, "violation image at point {} differs", got.point);
    }
    report
}

fn mount(image: &[u8], root_size: u64) -> (Arc<PmPool>, Arc<PmHeap>) {
    let pool = Arc::new(PmPool::untracked(image.len()));
    pool.restore(image);
    let heap = Arc::new(PmHeap::new(pool.clone(), root_size));
    (pool, heap)
}

/// [`QueueRecovery`] through a mount: the same verdicts by way of `open`
/// and [`PmQueue::items`] on a restored pool.
struct MountedQueueRecovery {
    root_size: u64,
    expected: Vec<Vec<u8>>,
    prior: usize,
}

impl MountedQueueRecovery {
    fn open(&self, image: &[u8]) -> Result<(PmQueue, Arc<PmPool>, u64), String> {
        let (pool, heap) = mount(image, self.root_size);
        let base = heap.root().start();
        let q = PmQueue::open(heap, CheckMode::None, FaultSet::none())
            .map_err(|e| format!("open queue: {e}"))?;
        Ok((q, pool, base))
    }

    fn chain(pool: &PmPool, base: u64) -> Result<Vec<u64>, String> {
        let mut nodes = Vec::new();
        let mut cur = pool.read_u64(base).map_err(|e| format!("read head: {e}"))?;
        while cur != 0 {
            // A chain longer than the pool has bytes revisits an address.
            if nodes.len() as u64 >= pool.size() {
                return Err("queue chain cycles (torn next pointer)".to_owned());
            }
            nodes.push(cur);
            cur = pool.read_u64(cur).map_err(|e| format!("torn next pointer: {e}"))?;
        }
        Ok(nodes)
    }
}

impl RecoveryProc for MountedQueueRecovery {
    fn name(&self) -> &str {
        "queue"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let (q, pool, base) = self.open(image)?;
        let items = q.items().map_err(|e| format!("unwalkable chain: {e}"))?;
        let count = pool.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize > items.len() {
            return Err(format!(
                "acknowledged enqueue lost: durable count {count} exceeds {} reachable item(s)",
                items.len()
            ));
        }
        let last = Self::chain(&pool, base)?.last().copied().unwrap_or(0);
        pool.write_u64(base + 8, last).map_err(|e| format!("repair tail: {e}"))?;
        pool.write_u64(base + 16, items.len() as u64).map_err(|e| format!("repair count: {e}"))?;
        image.copy_from_slice(&pool.snapshot());
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let (q, pool, base) = self.open(image)?;
        let items = q.items().map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        if items.len() < self.prior {
            return Err(format!(
                "previously durable item lost: {} reachable, {} were durable at start",
                items.len(),
                self.prior
            ));
        }
        if items.len() > self.expected.len() {
            return Err(format!(
                "{} reachable items but only {} were enqueued",
                items.len(),
                self.expected.len()
            ));
        }
        for (i, (got, want)) in items.iter().zip(&self.expected).enumerate() {
            if got != want {
                return Err(format!("item {i} torn: got {got:?}, want {want:?}"));
            }
        }
        let count = pool.read_u64(base + 16).map_err(|e| format!("read count: {e}"))?;
        if count as usize != items.len() {
            return Err(format!("count {count} disagrees with {} reachable items", items.len()));
        }
        let nodes = Self::chain(&pool, base)?;
        let tail = pool.read_u64(base + 8).map_err(|e| format!("read tail: {e}"))?;
        if tail != nodes.last().copied().unwrap_or(0) {
            return Err(format!("tail {tail:#x} is not the last reachable node"));
        }
        Ok(())
    }
}

/// [`HashMapRecovery`] through a mount: the same verdicts by way of `open`
/// and [`HashMapLl::entries`] on a restored pool.
struct MountedHashMapRecovery {
    root_size: u64,
    nbuckets: u64,
    expected: Vec<(u64, Vec<u8>)>,
    prior_keys: Vec<u64>,
}

impl MountedHashMapRecovery {
    fn open(&self, image: &[u8]) -> Result<(HashMapLl, Arc<PmPool>, u64), String> {
        let (pool, heap) = mount(image, self.root_size);
        let base = heap.root().start();
        let m = HashMapLl::open(heap, self.nbuckets, CheckMode::None, FaultSet::none())
            .map_err(|e| format!("open hashmap: {e}"))?;
        Ok((m, pool, base))
    }
}

impl RecoveryProc for MountedHashMapRecovery {
    fn name(&self) -> &str {
        "hashmap_ll"
    }

    fn recover(&self, image: &mut [u8]) -> Result<(), String> {
        let (m, pool, base) = self.open(image)?;
        let entries = m.entries().map_err(|e| format!("unwalkable bucket chain: {e}"))?;
        let count = pool.read_u64(base).map_err(|e| format!("read count: {e}"))?;
        if count as usize > entries.len() {
            return Err(format!(
                "acknowledged insert lost: durable count {count} exceeds {} reachable entries",
                entries.len()
            ));
        }
        pool.write_u64(base, entries.len() as u64).map_err(|e| format!("repair count: {e}"))?;
        image.copy_from_slice(&pool.snapshot());
        Ok(())
    }

    fn check(&self, _point: usize, image: &[u8]) -> Result<(), String> {
        let (m, _pool, _base) = self.open(image)?;
        let entries = m.entries().map_err(|e| format!("unwalkable chain after recovery: {e}"))?;
        let mut seen = Vec::new();
        for (key, value) in &entries {
            if seen.contains(key) {
                return Err(format!("key {key} reachable twice"));
            }
            seen.push(*key);
            match self.expected.iter().find(|(k, _)| k == key) {
                None => return Err(format!("reachable key {key} was never inserted (torn node)")),
                Some((_, want)) if want != value => {
                    return Err(format!("key {key} torn: got {value:?}, want {want:?}"));
                }
                Some(_) => {}
            }
        }
        for key in &self.prior_keys {
            if !seen.contains(key) {
                return Err(format!("previously durable key {key} lost"));
            }
        }
        if m.len().map_err(|e| format!("read count: {e}"))? as usize != entries.len() {
            return Err("count disagrees with reachable entries after recovery".to_owned());
        }
        Ok(())
    }
}

/// A durable two-item queue on a `len`-byte pool, as a raw image to
/// corrupt by hand. Its nodes sit at `ROOT` and `ROOT + 64`.
fn queue_image(len: usize) -> Vec<u8> {
    let pool = Arc::new(PmPool::untracked(len));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let q = PmQueue::create(heap, CheckMode::None, FaultSet::none()).expect("create queue");
    q.enqueue(&qval(1)).expect("enqueue one");
    q.enqueue(&qval(2)).expect("enqueue two");
    pool.snapshot()
}

/// Sweeps `base` with the in-place and the mounted queue procs (root area
/// `root_size`) and returns the in-place report. The recording holds one
/// write far from the queue, so each point has two images.
fn queue_sweep_of(base: Vec<u8>, root_size: u64) -> ExploreReport {
    let ops = vec![ValuedOp::Write { range: ByteRange::with_len(8000, 1), data: vec![9] }];
    let sim = CrashSim::new(base, ops);
    let expected = vec![qval(1), qval(2)];
    let mounted = MountedQueueRecovery { root_size, expected: expected.clone(), prior: 0 };
    let proc = QueueRecovery::new(root_size, expected, 0);
    same_sweeps(&sim, &proc, &mounted, &ExploreConfig::default())
}

fn set_u64(image: &mut [u8], addr: u64, value: u64) {
    image[addr as usize..addr as usize + 8].copy_from_slice(&value.to_le_bytes());
}

#[test]
fn pointers_past_the_pool_end_fail_alike_in_place_and_mounted() {
    // The head past the end; then the first node's next pointer ending
    // inside the pool, so only the next node's header read runs past it.
    // The item walk meets either pointer before the raw chain walk does.
    for (slot, target) in [(0, 8192 + 64), (ROOT, 8192 - 8)] {
        let mut image = queue_image(8192);
        set_u64(&mut image, slot, target);
        let report = queue_sweep_of(image, ROOT);
        assert_eq!(report.violations.len(), 2, "{}", report.render());
        for v in &report.violations {
            assert!(v.reason.starts_with("unwalkable chain: "), "{}", report.render());
            assert!(v.reason.contains("outside pool of 8192 bytes"), "{}", report.render());
        }
    }
}

#[test]
fn a_cyclic_chain_fails_alike_in_place_and_mounted() {
    let mut image = queue_image(8192);
    set_u64(&mut image, ROOT + 64, ROOT);
    let report = queue_sweep_of(image, ROOT);
    assert_eq!(report.violations.len(), 2, "{}", report.render());
    for v in &report.violations {
        assert_eq!(v.reason, "queue chain cycles (torn next pointer)");
    }
}

#[test]
fn a_root_area_too_small_fails_alike_in_place_and_mounted() {
    let report = queue_sweep_of(queue_image(8192), 16);
    assert_eq!(report.violations.len(), 2, "{}", report.render());
    for v in &report.violations {
        assert!(v.reason.starts_with("open queue: "), "{}", report.render());
    }
    // Sixteen buckets and the count need 136 root bytes.
    let sim = CrashSim::new(vec![0; 4096], vec![]);
    let mounted = MountedHashMapRecovery {
        root_size: 128,
        nbuckets: 16,
        expected: Vec::new(),
        prior_keys: Vec::new(),
    };
    let proc = HashMapRecovery::new(128, 16, Vec::new(), Vec::new());
    let report = same_sweeps(&sim, &proc, &mounted, &ExploreConfig::default());
    assert!(report.violations[0].reason.starts_with("open hashmap: "), "{}", report.render());
}

#[test]
fn a_bucket_past_the_pool_end_fails_alike_in_place_and_mounted() {
    let pool = Arc::new(PmPool::untracked(8192));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let m = HashMapLl::create(heap, 16, CheckMode::None, FaultSet::none()).expect("create map");
    m.insert(4, &hval(4)).expect("insert 4");
    let mut image = pool.snapshot();
    set_u64(&mut image, 112, 9000); // key 3's bucket slot
    let sim = CrashSim::new(image, vec![]);
    let expected = vec![(4, hval(4))];
    let mounted = MountedHashMapRecovery {
        root_size: ROOT,
        nbuckets: 16,
        expected: expected.clone(),
        prior_keys: vec![4],
    };
    let proc = HashMapRecovery::new(ROOT, 16, expected, vec![4]);
    let report = same_sweeps(&sim, &proc, &mounted, &ExploreConfig::default());
    let reason = &report.violations[0].reason;
    assert!(reason.starts_with("unwalkable bucket chain: "), "{}", report.render());
    assert!(reason.contains("outside pool of 8192 bytes"), "{}", report.render());
}

// ----------------------------------------------------------------- pmfs --

/// Format, create a file holding all-'A' content, then record an
/// overwriting 128-byte (two cache line) journaled write of all-'B'.
/// Write atomicity is the invariant: after recovery the file must hold
/// entirely-old or entirely-new bytes.
fn pmfs_report(faulty: PmfsOptions) -> ExploreReport {
    let pm = Arc::new(PmPool::untracked(1 << 18));
    let fs = Pmfs::format(pm.clone(), faulty).expect("format");
    let ino = fs.create("f").expect("create");
    fs.write(ino, 0, &[b'A'; 128]).expect("baseline write");
    pm.begin_crash_recording();
    fs.write(ino, 0, &[b'B'; 128]).expect("recorded write");
    let sim = CrashSim::from_pool(&pm).expect("recording active");
    // Recovery itself must not inject faults: replay with clean options.
    let proc = PmfsRecovery::new(PmfsOptions::default(), |fs| {
        let ino = fs.lookup("f").ok_or_else(|| "file lost".to_owned())?;
        let data = fs.read(ino, 0, 128).map_err(|e| e.to_string())?;
        if data == [b'A'; 128] || data == [b'B'; 128] {
            Ok(())
        } else {
            Err("torn file: neither all-old nor all-new content".to_owned())
        }
    });
    let cfg = ExploreConfig { max_states_per_point: 4096, ..ExploreConfig::default() };
    explore(&sim, &proc, &cfg)
}

#[test]
fn pmfs_journaled_write_is_atomic_at_every_crash_point() {
    let report = pmfs_report(PmfsOptions::default());
    assert_clean(&report);
    assert!(report.points.len() >= 2, "expected journal + commit fences");
}

#[test]
fn pmfs_journal_faults_produce_located_violations() {
    // Dropping the journal-entry persist lets in-place bytes persist with
    // no durable undo record; dropping the commit writeback (or its fence)
    // lets the commit marker persist ahead of the data it acknowledges.
    // All three reach a torn file.
    for opts in [
        PmfsOptions { skip_journal_persist: true, ..PmfsOptions::default() },
        PmfsOptions { skip_commit_writeback: true, ..PmfsOptions::default() },
        PmfsOptions { skip_commit_fence: true, ..PmfsOptions::default() },
    ] {
        let report = pmfs_report(opts);
        assert!(
            !report.is_clean(),
            "expected a violated crash image for {opts:?}:\n{}",
            report.render()
        );
        for v in &report.violations {
            assert!(v.culprit_op.is_some(), "violation without culprit op:\n{}", report.render());
            assert!(
                v.culprit_site.is_some(),
                "violation without culprit site:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn pmfs_legacy_flush_faults_stay_clean() {
    // Double flushes and flushes of unmapped ranges are performance bugs
    // (the paper's Table 5 "unnecessary writeback" class): ordering is
    // unchanged, so every crash image still recovers.
    for opts in [
        PmfsOptions { legacy_double_flush: true, ..PmfsOptions::default() },
        PmfsOptions { legacy_flush_unmapped: true, ..PmfsOptions::default() },
    ] {
        let report = pmfs_report(opts);
        assert_clean(&report);
    }
}

#[test]
fn pmfs_skip_journal_fence_is_a_protocol_bug_not_a_crash_bug() {
    // `skip_journal_fence` drops the fence between the commit-marker
    // writeback and the journal truncation. PMTest's `IsOrderedBefore`
    // protocol assertion flags that ordering, but no reachable crash state
    // is actually inconsistent: the in-place data was already fenced
    // durable in commit step 1, so even a truncation that persists ahead
    // of the marker leaves a fully committed image, and a lost truncation
    // rolls back to entirely-old content. The exploration engine — which
    // judges reachable states, not protocol shape — must therefore stay
    // clean, demonstrating the over-approximation gap between the two.
    let report = pmfs_report(PmfsOptions { skip_journal_fence: true, ..PmfsOptions::default() });
    assert_clean(&report);
}
