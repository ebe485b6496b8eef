//! **Fig. 12** — scalability of the Memcached-like store under PMTest:
//! (a) more application threads against one checking worker raises the
//! slowdown (the worker saturates and its bounded queue backpressures the
//! clients); (b) more checking workers (at 4 app threads) lowers it;
//! (c) scaling both together stays roughly level.
//!
//! Only the client-operation loops are timed; store construction and the
//! final `PMTest_GET_RESULT` drain sit outside. Every table cell is also
//! written as one row of `bench_results/BENCH_fig12.json`, with the engine
//! counters of its best run and the host's parallelism: on a host with
//! fewer cores than app threads plus workers, a row measures time-sharing,
//! not scaling, and says so (`oversubscribed`). No trend is asserted.
//!
//! Run with: `cargo bench -p pmtest-bench --bench fig12_scalability`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pmtest_bench::{bench_ops, bench_reps, build_kvstore, print_table, slowdown};
use pmtest_core::{EngineStats, PmTestSession};
use pmtest_trace::NullSink;
use pmtest_workloads::{gen, CheckMode};

/// Runs `threads` YCSB clients against one shared store; `workers` is the
/// PMTest pool size (`None` = native, untracked) and `batch` the session
/// batch capacity (1 = submit every trace immediately, the paper's
/// semantics). Returns the time of the client phase only.
fn run(
    threads: usize,
    workers: Option<usize>,
    batch: usize,
    ops_per_thread: usize,
) -> (Duration, Option<EngineStats>) {
    let (sink, session): (pmtest_trace::SharedSink, Option<PmTestSession>) = match workers {
        None => (Arc::new(NullSink), None),
        Some(w) => {
            // A small queue makes checking-pipeline saturation visible at
            // bench scale, as the kernel FIFO does in the paper (§4.5).
            let s = PmTestSession::builder()
                .workers(w)
                .queue_capacity(16)
                .batch_capacity(batch)
                .build();
            s.start();
            (s.sink(), Some(s))
        }
    };
    let check = if workers.is_some() { CheckMode::Checkers } else { CheckMode::None };
    let store = Arc::new(build_kvstore(sink, check, 64 << 20, threads * 8));
    let plans: Vec<Vec<gen::Op>> =
        (0..threads).map(|t| gen::ycsb_update_heavy(ops_per_thread, 1000, t as u64)).collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for (t, plan) in plans.iter().enumerate() {
            let store = store.clone();
            let session = session.clone();
            scope.spawn(move || {
                if let Some(s) = &session {
                    s.thread_init();
                }
                for op in plan {
                    match op {
                        gen::Op::Set(k) => {
                            store
                                .set((t as u64) * 100_000 + k, &gen::value_for(*k, 64))
                                .expect("set");
                            if let Some(s) = &session {
                                s.send_trace();
                            }
                        }
                        gen::Op::Get(k) => {
                            let _ = store.get((t as u64) * 100_000 + k).expect("get");
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = session.map(|s| {
        let report = s.finish();
        assert!(report.is_clean(), "{report}");
        s.stats()
    });
    (elapsed, stats)
}

/// The fastest of `reps` runs (at least two), with its engine counters.
fn best_of(
    reps: usize,
    mut f: impl FnMut() -> (Duration, Option<EngineStats>),
) -> (Duration, Option<EngineStats>) {
    (0..reps.max(2)).map(|_| f()).min_by_key(|(elapsed, _)| *elapsed).expect("at least one run")
}

/// One table cell: a PMTest run against the native run of the same shape.
struct Cell {
    table: &'static str,
    threads: usize,
    workers: usize,
    batch: usize,
    native: Duration,
    pmtest: Duration,
    stats: EngineStats,
}

impl Cell {
    /// Times the best native and the best PMTest run of one shape.
    fn measure(
        table: &'static str,
        threads: usize,
        workers: usize,
        batch: usize,
        native: Duration,
        ops: usize,
        reps: usize,
    ) -> Self {
        let (pmtest, stats) = best_of(reps, || run(threads, Some(workers), batch, ops));
        let stats = stats.expect("a PMTest run returns its engine stats");
        Self { table, threads, workers, batch, native, pmtest, stats }
    }

    fn slowdown(&self) -> f64 {
        slowdown(self.pmtest, self.native)
    }
}

/// Prints the cells of one table, keyed by `axis`.
fn print_cells(title: &str, axis: &str, cells: &[&Cell], key: impl Fn(&Cell) -> usize) {
    let rows: Vec<Vec<String>> =
        cells.iter().map(|c| vec![key(c).to_string(), format!("{:.2}x", c.slowdown())]).collect();
    print_table(title, &[axis, "slowdown"], &rows);
}

fn write_json(cells: &[Cell], ops: usize, reps: usize, parallelism: usize) {
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(
            rows,
            "    {{\"table\": \"{}\", \"app_threads\": {}, \"workers\": {}, \"batch\": {}, \
             \"native_ms\": {:.3}, \"pmtest_ms\": {:.3}, \"slowdown\": {:.3}, \
             \"traces_submitted\": {}, \"backpressure_stalls\": {}, \"queue_highwater\": {}, \
             \"host_parallelism\": {}, \"oversubscribed\": {}}}{}",
            c.table,
            c.threads,
            c.workers,
            c.batch,
            c.native.as_secs_f64() * 1e3,
            c.pmtest.as_secs_f64() * 1e3,
            c.slowdown(),
            c.stats.traces_submitted,
            c.stats.backpressure_stalls,
            c.stats.queue_highwater,
            parallelism,
            c.threads + c.workers > parallelism,
            if i + 1 == cells.len() { "" } else { "," },
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fig12_scalability\",\n",
            "  \"host_parallelism\": {},\n",
            "  \"ops_per_thread\": {},\n",
            "  \"reps\": {},\n",
            "  \"workload\": \"YCSB update-heavy clients on one shared Mnemosyne KvStore, one \
             trace per set; sessions use queue_capacity 16; 12a: 1 worker, 1/2/4 app threads; \
             12b: 4 app threads, 1/2/4 workers; 12c: threads = workers = 1/2/4; 12d: 4 threads, \
             4 workers, batch 1/32\",\n",
            "  \"columns\": \"native_ms / pmtest_ms = best client phase of reps runs (at least \
             two), slowdown = pmtest_ms / native_ms; engine counters from the best PMTest run; \
             oversubscribed = app_threads + workers > host_parallelism\",\n",
            "  \"results\": [\n{}  ]\n",
            "}}\n"
        ),
        parallelism, ops, reps, rows,
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let path = format!("{dir}/BENCH_fig12.json");
    std::fs::write(&path, &json).expect("write BENCH_fig12.json");
    println!("\nwrote {path}");
}

fn main() {
    let ops = bench_ops().max(5_000);
    let reps = bench_reps();
    println!("Fig. 12 reproduction — {ops} YCSB ops per client, best of {reps} runs");
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!("available CPU cores: {cores}");
    if cores < 8 {
        println!(
            "WARNING: Fig. 12's trends need real parallelism (the paper uses 8 cores / 16 \
             threads). With {cores} core(s), app threads and checking workers time-share a \
             CPU, so expect flat curves; run on a multi-core machine for the paper's shapes."
        );
    }

    let axis = [1usize, 2, 4];
    let native = |threads: usize| best_of(reps, || run(threads, None, 1, ops)).0;
    let mut cells = Vec::new();
    // (a) one worker, varying app threads.
    for &threads in &axis {
        cells.push(Cell::measure("12a", threads, 1, 1, native(threads), ops, reps));
    }
    // (b) four app threads, varying workers.
    let native4 = native(4);
    for &workers in &axis {
        cells.push(Cell::measure("12b", 4, workers, 1, native4, ops, reps));
    }
    // (c) scale both together.
    for &n in &axis {
        cells.push(Cell::measure("12c", n, n, 1, native(n), ops, reps));
    }
    // (d) batched submission: same 4-thread/4-worker setup, session batch
    // capacity 1 (paper semantics) vs 32. Shows how much of the slowdown is
    // per-trace handoff that batching amortizes away.
    for &batch in &[1usize, 32] {
        cells.push(Cell::measure("12d", 4, 4, batch, native4, ops, reps));
    }

    let table = |name: &str| cells.iter().filter(|c| c.table == name).collect::<Vec<_>>();
    print_cells(
        "Fig. 12a — slowdown vs #Memcached threads (1 PMTest worker)",
        "app threads",
        &table("12a"),
        |c| c.threads,
    );
    print_cells(
        "Fig. 12b — slowdown vs #PMTest workers (4 Memcached threads)",
        "PMTest workers",
        &table("12b"),
        |c| c.workers,
    );
    print_cells(
        "Fig. 12c — slowdown with #threads == #workers",
        "threads = workers",
        &table("12c"),
        |c| c.workers,
    );
    print_cells(
        "Fig. 12 extension — slowdown vs session batch capacity (4 threads, 4 workers)",
        "batch capacity",
        &table("12d"),
        |c| c.batch,
    );
    if let Some(c) = cells.last() {
        let stats = &c.stats;
        println!(
            "\nengine stats (4 threads, 4 workers, batch 32): {} traces in {} batches \
             (mean {:.1}/batch), queue high-water {}, backpressure stalls {}",
            stats.traces_submitted,
            stats.batches_submitted,
            stats.mean_batch_size(),
            stats.queue_highwater,
            stats.backpressure_stalls,
        );
    }
    write_json(&cells, ops, reps, cores);
    println!("\npaper shapes: (a) rises with threads, (b) falls with workers, (c) roughly level");
}
