//! Testing a Memcached-like store under a YCSB client mix (the Fig. 11 /
//! Fig. 12 configuration): four client threads drive the Mnemosyne-backed
//! store while PMTest checks every transaction on two worker threads.
//!
//! Run with: `cargo run --release --example kvstore_ycsb`

use std::sync::Arc;
use std::time::Instant;

use pmtest::mnemosyne::MnPool;
use pmtest::prelude::*;
use pmtest::workloads::{gen, CheckMode, FaultSet, KvStore};

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 2_000;
const KEY_SPACE: u64 = 1_000;
const VALUE_SIZE: usize = 64;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two PMTest workers, as in the Fig. 12b sweet spot; the Full telemetry
    // level, so the run ends with check-latency quantiles.
    let session = PmTestSession::builder()
        .workers(2)
        .telemetry(TelemetryConfig::at(TelemetryLevel::Full))
        .build();
    session.start();

    let pm = Arc::new(PmPool::new(1 << 24, session.sink()));
    let pool = Arc::new(MnPool::create(pm, 4096, PersistMode::X86)?);
    let store =
        Arc::new(KvStore::create(pool, 256, CLIENTS * 4, CheckMode::Checkers, FaultSet::none())?);

    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let store = store.clone();
            let session = session.clone();
            s.spawn(move || {
                session.thread_init(); // PMTest_THREAD_INIT
                let ops = gen::ycsb_update_heavy(OPS_PER_CLIENT, KEY_SPACE, client as u64);
                for op in ops {
                    match op {
                        gen::Op::Set(k) => {
                            store.set(k, &gen::value_for(k, VALUE_SIZE)).expect("set");
                            // One independent trace per transaction (§4.2).
                            session.send_trace();
                        }
                        gen::Op::Get(k) => {
                            let _ = store.get(k).expect("get");
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let report = session.finish();
    println!(
        "{} clients x {} YCSB ops (50% update, zipfian) in {:.2?}",
        CLIENTS, OPS_PER_CLIENT, elapsed
    );
    println!("keys resident: {}", store.count()?);
    println!("traces checked: {}", report.traces().len());
    println!("{report}");
    assert!(report.is_clean(), "the store's redo-log protocol is correct");
    println!("{}", session.telemetry_summary());
    Ok(())
}
