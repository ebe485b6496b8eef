//! Crash-point exploration throughput: crash points per second for the
//! prefix-shared model-mode sweep vs the quadratic fresh-replay reference,
//! on synthetic persist-block programs and on a recorded queue workload
//! with its real recovery procedure.
//!
//! The numbers this bench guards are the prefix-share win: an ascending
//! model-mode sweep must serve (nearly) every crash point off the live
//! cursor — the committed results assert a prefix-share hit rate of at
//! least 0.9 — and, on the queue rows, a lower per-point floor (the best
//! sample batch) shared than fresh. Both assertions are skipped under
//! `PMTEST_BENCH_NO_ASSERT=1` for noisy CI runners, like the engine
//! bench's budget assertion.
//!
//! Results are written to `bench_results/BENCH_explore.json`.
//!
//! Run with: `cargo bench -p pmtest-bench --bench explore_throughput`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmtest_core::explore::{explore, ExploreConfig, ExploreReport, RecoveryProc};
use pmtest_interval::ByteRange;
use pmtest_pmem::crash::{CrashSim, ValuedOp};
use pmtest_pmem::{PmHeap, PmPool};
use pmtest_workloads::{CheckMode, FaultSet, PmQueue, QueueRecovery};

/// Recorded ops per synthetic program: write+flush+fence blocks striding
/// disjoint cache lines, so every block adds one fence boundary.
const SYNTH_OPS: [usize; 3] = [24, 96, 384];

/// Queue enqueues recorded per workload sweep; 96 on the 16 KiB pool is
/// `perfbench`'s explore-queue shape.
const QUEUE_ENQUEUES: [usize; 3] = [4, 16, 96];

const ROOT: u64 = 4096;
const QUEUE_VAL: usize = 48; // 16-byte node header + 48 = one cache line

/// Recovery procedure for the synthetic programs: accept every image. The
/// sweep cost is then pure enumeration + materialization, the floor the
/// workload rows sit on top of.
struct AcceptAll;

impl RecoveryProc for AcceptAll {
    fn name(&self) -> &str {
        "accept-all"
    }

    fn check(&self, _point: usize, _image: &[u8]) -> Result<(), String> {
        Ok(())
    }
}

/// `ops / 3` write+flush+fence blocks over disjoint 64B-strided lines.
fn synth_sim(ops: usize) -> CrashSim {
    let blocks = ops / 3;
    let mut vops = Vec::with_capacity(blocks * 3);
    for b in 0..blocks {
        let r = ByteRange::with_len((b as u64 % 64) * 64, 8);
        vops.push(ValuedOp::Write { range: r, data: vec![b as u8; 8] });
        vops.push(ValuedOp::Flush(r));
        vops.push(ValuedOp::Fence);
    }
    CrashSim::new(vec![0; 64 * 64], vops)
}

/// Records `n` enqueues on a correct queue and pairs the sim with the
/// workload's real recovery procedure (walk the list, verify payloads).
fn queue_sim(n: usize) -> (CrashSim, QueueRecovery) {
    let pool = Arc::new(PmPool::untracked(1 << 14));
    let heap = Arc::new(PmHeap::new(pool.clone(), ROOT));
    let q = PmQueue::create(heap, CheckMode::None, FaultSet::default()).expect("create queue");
    pool.begin_crash_recording();
    let mut expected = Vec::with_capacity(n);
    for i in 0..n {
        let val = vec![i as u8 + 1; QUEUE_VAL];
        q.enqueue(&val).expect("enqueue");
        expected.push(val);
    }
    let sim = CrashSim::from_pool(&pool).expect("recording active");
    (sim, QueueRecovery::new(ROOT, expected, 0))
}

struct Sample {
    workload: String,
    ops: usize,
    mode: &'static str,
    crash_points: u64,
    images: u64,
    hit_rate: f64,
    ns_per_point: f64,
    floor_ns_per_point: f64,
}

fn config(fresh: bool) -> ExploreConfig {
    ExploreConfig { max_states_per_point: 4096, fresh_replay: fresh, ..ExploreConfig::default() }
}

fn run_sweep(sim: &CrashSim, proc: &dyn RecoveryProc, fresh: bool) -> ExploreReport {
    explore(sim, proc, &config(fresh))
}

fn bench_case(
    group: &mut criterion::BenchmarkGroup<'_>,
    samples: &mut Vec<Sample>,
    workload: &str,
    ops: usize,
    sim: &CrashSim,
    proc: &dyn RecoveryProc,
) {
    let assert_budget = std::env::var("PMTEST_BENCH_NO_ASSERT").is_err();
    for (mode, fresh) in [("shared", false), ("fresh", true)] {
        let report = run_sweep(sim, proc, fresh);
        assert!(report.is_clean(), "bench sweeps must be violation-free:\n{}", report.render());
        if assert_budget && !fresh {
            assert!(
                report.stats.prefix_share_hit_rate() >= 0.9,
                "{workload}/{ops}: prefix-share hit rate {:.3} below the 0.9 floor",
                report.stats.prefix_share_hit_rate()
            );
        }
        group.throughput(Throughput::Elements(report.stats.crash_points_enumerated));
        let id = format!("{workload}_{ops}ops");
        group.bench_with_input(BenchmarkId::new(mode, &id), sim, |b, sim| {
            b.iter(|| run_sweep(sim, proc, fresh))
        });
        let ns = group.last_estimate_ns().expect("benchmark just ran");
        let floor = group.last_best_ns().expect("benchmark just ran");
        samples.push(Sample {
            workload: workload.to_owned(),
            ops,
            mode,
            crash_points: report.stats.crash_points_enumerated,
            images: report.stats.images_checked,
            hit_rate: report.stats.prefix_share_hit_rate(),
            ns_per_point: ns / report.stats.crash_points_enumerated as f64,
            floor_ns_per_point: floor / report.stats.crash_points_enumerated as f64,
        });
    }
}

fn write_json(samples: &[Sample]) {
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            rows,
            "    {{\"workload\": \"{}\", \"ops\": {}, \"mode\": \"{}\", \
             \"crash_points\": {}, \"images_checked\": {}, \
             \"prefix_share_hit_rate\": {:.3}, \"ns_per_point\": {:.1}, \
             \"floor_ns_per_point\": {:.1}, \"points_per_sec\": {:.0}, \
             \"host_parallelism\": {}}}{}",
            s.workload,
            s.ops,
            s.mode,
            s.crash_points,
            s.images,
            s.hit_rate,
            s.ns_per_point,
            s.floor_ns_per_point,
            1e9 / s.ns_per_point,
            parallelism,
            if i + 1 == samples.len() { "" } else { "," },
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"explore_throughput\",\n",
            "  \"host_parallelism\": {},\n",
            "  \"workload\": \"model-mode crash-point sweeps on one thread: synthetic \
             write+flush+fence blocks over 64B-strided lines (accept-all recovery) and \
             recorded PmQueue enqueues of one cache line each on a 16 KiB pool (real \
             list-walk recovery; 96 enqueues is perfbench's explore-queue shape)\",\n",
            "  \"modes\": \"shared = incremental cursor prefix-shares shadow state across \
             adjacent crash points; fresh = from-scratch rescan at every point (the \
             quadratic reference)\",\n",
            "  \"columns\": \"ns_per_point = median sample batch, floor_ns_per_point = best \
             sample batch, points_per_sec = 1e9 / ns_per_point\",\n",
            "  \"results\": [\n{}  ]\n",
            "}}\n"
        ),
        parallelism, rows,
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let path = format!("{dir}/BENCH_explore.json");
    std::fs::write(&path, &json).expect("write BENCH_explore.json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn explore_throughput(c: &mut Criterion) {
    let mut samples = Vec::new();
    let mut group = c.benchmark_group("explore_throughput");
    for &ops in &SYNTH_OPS {
        let sim = synth_sim(ops);
        bench_case(&mut group, &mut samples, "synthetic", ops, &sim, &AcceptAll);
    }
    for &n in &QUEUE_ENQUEUES {
        let (sim, proc) = queue_sim(n);
        bench_case(&mut group, &mut samples, "queue", sim.op_count(), &sim, &proc);
        let [shared, fresh] = &samples[samples.len() - 2..] else { unreachable!("two modes") };
        if std::env::var("PMTEST_BENCH_NO_ASSERT").is_err() {
            assert!(
                shared.floor_ns_per_point < fresh.floor_ns_per_point,
                "queue/{}: shared floor {:.1} ns/point does not beat fresh floor {:.1}",
                shared.ops,
                shared.floor_ns_per_point,
                fresh.floor_ns_per_point
            );
        }
    }
    group.finish();
    for s in &samples {
        println!(
            "{:<10} ops={:>4} {:>7}: {:>8.1} ns/point (floor {:>8.1}, {:>10.0} points/s), \
             hit rate {:.3}",
            s.workload,
            s.ops,
            s.mode,
            s.ns_per_point,
            s.floor_ns_per_point,
            1e9 / s.ns_per_point,
            s.hit_rate
        );
    }
    write_json(&samples);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    targets = explore_throughput
}
criterion_main!(benches);
