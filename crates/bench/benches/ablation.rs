//! Ablation of PMTest's design choices (DESIGN.md §7): what each mechanism
//! buys, measured on the transactional hashmap.
//!
//! * **Trace granularity** — the paper sends one trace per transaction
//!   (§4.2, "divide a program into independent sections ... for better
//!   testing speed"). Sweeping the batch size shows the trade-off between
//!   submission overhead (tiny traces) and shadow-memory growth + lost
//!   pipelining (one giant trace).
//! * **Performance checkers** — the §5.1.2 WARN rules are almost free.
//!
//! Run with: `cargo bench -p pmtest-bench --bench ablation`

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmtest_bench::{bench_ops, bench_reps, print_table};
use pmtest_core::{PmTestSession, X86Model};
use pmtest_pmem::{PersistMode, PmPool};
use pmtest_txlib::ObjPool;
use pmtest_workloads::{gen, CheckMode, FaultSet, HashMapTx, KvMap};

fn run(ops: usize, batch: usize, perf_checks: bool) -> Duration {
    let model = if perf_checks { X86Model::new() } else { X86Model::without_performance_checks() };
    let session = PmTestSession::builder().model(model).build();
    session.start();
    let pm = Arc::new(PmPool::new(16 << 20, session.sink()));
    let pool = Arc::new(ObjPool::create(pm, 8192, PersistMode::X86).expect("pool"));
    let map = HashMapTx::create(pool, 256, CheckMode::Checkers, FaultSet::none()).expect("map");
    let start = Instant::now();
    for k in 0..ops as u64 {
        map.insert(k, &gen::value_for(k, 64)).expect("insert");
        if (k + 1) % batch as u64 == 0 {
            session.send_trace();
        }
    }
    session.send_trace();
    let elapsed = start.elapsed();
    let report = session.finish();
    assert!(report.is_clean(), "{report}");
    elapsed
}

fn best_of(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    (0..reps.max(2)).map(|_| f()).min().expect("samples")
}

fn main() {
    let ops = bench_ops().max(2000);
    let reps = bench_reps();
    println!("Design-choice ablation — {ops} insertions, best of {reps} runs");

    // (1) Trace granularity: transactions per trace.
    let baseline = best_of(reps, || run(ops, 1, true));
    let mut rows = vec![vec![
        "1 (per transaction, paper)".to_owned(),
        format!("{baseline:.2?}"),
        "1.00x".to_owned(),
    ]];
    for batch in [8usize, 64, ops] {
        let t = best_of(reps, || run(ops, batch, true));
        let label =
            if batch == ops { "entire run as one trace".to_owned() } else { batch.to_string() };
        rows.push(vec![
            label,
            format!("{t:.2?}"),
            format!("{:.2}x", t.as_secs_f64() / baseline.as_secs_f64()),
        ]);
    }
    print_table(
        "Ablation 1 — transactions per trace (vs paper's per-transaction)",
        &["batch", "time", "relative"],
        &rows,
    );

    // (2) Performance (WARN) checkers on/off.
    let without = best_of(reps, || run(ops, 1, false));
    print_table(
        "Ablation 2 — §5.1.2 performance checkers",
        &["configuration", "time", "relative"],
        &[
            vec![
                "with WARN checkers (default)".to_owned(),
                format!("{baseline:.2?}"),
                "1.00x".to_owned(),
            ],
            vec![
                "without".to_owned(),
                format!("{without:.2?}"),
                format!("{:.2}x", without.as_secs_f64() / baseline.as_secs_f64()),
            ],
        ],
    );
}
