//! Per-entry cost of the fused trace replay, without the engine around it:
//! ns/entry as a function of trace length and live-segment count, for both
//! built-in models, on recycled vs fresh checker state — plus the real
//! traces the end-to-end benchmark checks: the kv store's YCSB set traces
//! and the PMFS Filebench client traces.
//!
//! This isolates the per-trace checking floor the engine benchmark can only
//! see through the dispatch pipeline. The `recycled` rows replay the packed
//! records through [`check_packed_with`] on one persistent
//! [`CheckerScratch`] and one kept [`LocResolver`] — the engine worker's
//! path and steady state, where the shadow memory, the transaction scope
//! and the segment maps retain their allocations across traces. The
//! `fresh` rows pay the construction cost every trace ([`check_trace`]).
//!
//! The live-segment sweep spans both sides of the segment map's flat→BTree
//! crossover (DESIGN.md §12): the rows at and below it replay on the flat
//! vector, the rows above it on the BTree, and the trace lengths reach long
//! enough (16k entries) that inserting every segment once is a small part
//! of the replay. The crossover was chosen by re-running this bench with
//! the constant set to each candidate; DESIGN.md §12 has that sweep.
//!
//! Results are written to `bench_results/BENCH_checker.json`.
//!
//! Run with: `cargo bench -p pmtest-bench --bench checker_replay`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pmtest_core::{
    check_packed_with, check_trace, CheckerScratch, HopsModel, PersistencyModel, X86Model,
};
use pmtest_interval::ByteRange;
use pmtest_mnemosyne::MnPool;
use pmtest_pmem::{PersistMode, PmPool};
use pmtest_pmfs::{Pmfs, PmfsOptions};
use pmtest_trace::{Event, LocResolver, MemorySink, Trace};
use pmtest_workloads::fsbench::{filebench, FilebenchConfig};
use pmtest_workloads::{gen, CheckMode, FaultSet, KvStore};

/// Entries per trace: spans the engine bench's 4-entry short traces up to
/// replays long enough for per-trace setup, and the one-time insertion of
/// every segment, to amortize away.
const TRACE_LENGTHS: [usize; 5] = [4, 64, 512, 4096, 16384];

/// Distinct segments the writes cycle over. 1 keeps the shadow memory at a
/// single segment; the larger counts straddle the flat→BTree crossover.
/// A trace with fewer blocks than segments never reaches its count, so such
/// rows are skipped.
const LIVE_SEGMENTS: [usize; 8] = [1, 8, 64, 256, 512, 1024, 2048, 4096];

/// One persist block per segment touch: write, make-durable, check. The
/// block shape is the model's clean idiom (x86: clwb+sfence; HOPS:
/// ofence+dfence), so every trace replays diagnostic-free.
const ENTRIES_PER_BLOCK: usize = 4;

/// Odd multiplier that scatters the segment visit order: block `b` touches
/// segment `b * SCATTER mod live`, a permutation of each window of `live`
/// blocks when `live` is a power of two. Real traces do not write in address
/// order, so the first touch of a segment inserts it mid-map, not at the end.
const SCATTER: usize = 0x9E37;

/// Filebench clients and ops per client of the PMFS rows: the shape of the
/// end-to-end benchmark's `pmfs-filebench` workload (8 clients, 10k ops).
const PMFS_CLIENTS: usize = 8;
const PMFS_OPS_PER_CLIENT: usize = 1250;

/// The end-to-end benchmark's `kv-ycsb` shape: YCSB update-heavy ops (50%
/// set, zipfian) over 1000 keys with 64-B values, on a `KvStore` over the
/// Mnemosyne redo-log pool with its transaction checkers, seed 1 — here
/// 8000 ops, so about 4000 set traces.
const KV_OPS: usize = 8000;
const KV_KEYS: u64 = 1000;
const KV_VALUE_BYTES: usize = 64;

fn build_trace(model: &str, entries: usize, live: usize) -> Trace {
    let mut trace = Trace::new(0);
    let blocks = entries / ENTRIES_PER_BLOCK;
    for b in 0..blocks {
        // Stride 64 keeps segments disjoint and un-mergeable, so `live`
        // really is the number of live segments in the shadow memory.
        let r = ByteRange::with_len(((b * SCATTER % live) as u64) * 64, 8);
        trace.push(Event::Write(r).here());
        match model {
            "x86" => {
                trace.push(Event::Flush(r).here());
                trace.push(Event::Fence.here());
            }
            _ => {
                trace.push(Event::OFence.here());
                trace.push(Event::DFence.here());
            }
        }
        trace.push(Event::IsPersist(r).here());
    }
    trace
}

/// One trace per Filebench client on a PMFS with journal checkers.
fn pmfs_traces() -> Vec<Trace> {
    let sink = Arc::new(MemorySink::new());
    let opts = PmfsOptions { checkers: true, inodes: 128, ..PmfsOptions::default() };
    let fs = Pmfs::format(Arc::new(PmPool::new(4 << 20, sink.clone())), opts).expect("format");
    let _ = sink.take_trace(0); // formatting is set-up, not client work
    (0..PMFS_CLIENTS)
        .map(|client| {
            let cfg = FilebenchConfig { ops: PMFS_OPS_PER_CLIENT, seed: 1, ..Default::default() };
            filebench(&fs, client, cfg).expect("filebench client");
            sink.take_trace(client as u64)
        })
        .collect()
}

/// One trace per set of the YCSB stream, captured from the store's sink.
fn kv_traces() -> Vec<Trace> {
    let sink = Arc::new(MemorySink::new());
    let pm = Arc::new(PmPool::new(4 << 20, sink.clone()));
    let pool = Arc::new(MnPool::create(pm, 16 << 10, PersistMode::X86).expect("mn pool"));
    let store =
        KvStore::create(pool, 1024, 8, CheckMode::Checkers, FaultSet::none()).expect("kv store");
    let _ = sink.take_trace(0); // store creation is set-up, not a set
    let mut traces = Vec::new();
    for op in gen::ycsb_update_heavy(KV_OPS, KV_KEYS, 1) {
        match op {
            gen::Op::Get(k) => {
                let _ = store.get(k).expect("get");
            }
            gen::Op::Set(k) => {
                store.set(k, &gen::value_for(k, KV_VALUE_BYTES)).expect("set");
                traces.push(sink.take_trace(traces.len() as u64));
            }
        }
    }
    traces
}

/// Segments in the shadow memory `scratch` was left with.
fn live_segments(scratch: &CheckerScratch) -> usize {
    scratch.shadow().states_in(ByteRange::new(0, u64::MAX)).count()
}

/// The segment-map representation a replay on fresh `scratch` ended in.
fn repr(scratch: &CheckerScratch) -> &'static str {
    if scratch.repr_switches() > 0 {
        "btree"
    } else {
        "flat"
    }
}

struct Sample {
    trace: &'static str,
    model: &'static str,
    entries: usize,
    live: usize,
    repr: &'static str,
    mode: &'static str,
    ns_per_entry: f64,
    floor_ns_per_entry: f64,
}

/// Benchmarks replaying `traces` (one iteration checks them all) in both
/// modes and records a sample per mode.
#[allow(clippy::too_many_arguments)]
fn bench_traces(
    group: &mut criterion::BenchmarkGroup<'_>,
    samples: &mut Vec<Sample>,
    trace: &'static str,
    name: &'static str,
    model: &dyn PersistencyModel,
    id: &str,
    traces: &[Trace],
    live: usize,
    repr: &'static str,
) {
    let entries: usize = traces.iter().map(Trace::len).sum();
    group.throughput(Throughput::Elements(entries as u64));
    let mut scratch = CheckerScratch::new();
    let mut resolver = LocResolver::new();
    group.bench_with_input(BenchmarkId::new("recycled", id), &traces, |b, traces| {
        b.iter(|| {
            for t in *traces {
                criterion::black_box(check_packed_with(
                    t.packed(),
                    model,
                    &mut scratch,
                    &mut resolver,
                ));
            }
        })
    });
    let mut push = |mode, median: Option<f64>, best: Option<f64>| {
        samples.push(Sample {
            trace,
            model: name,
            entries: entries / traces.len(),
            live,
            repr,
            mode,
            ns_per_entry: median.expect("benchmark just ran") / entries as f64,
            floor_ns_per_entry: best.expect("benchmark just ran") / entries as f64,
        });
    };
    push("recycled", group.last_estimate_ns(), group.last_best_ns());
    group.bench_with_input(BenchmarkId::new("fresh", id), &traces, |b, traces| {
        b.iter(|| {
            for t in *traces {
                criterion::black_box(check_trace(t, model));
            }
        })
    });
    push("fresh", group.last_estimate_ns(), group.last_best_ns());
}

fn bench_model(
    c: &mut Criterion,
    samples: &mut Vec<Sample>,
    name: &'static str,
    model: &dyn PersistencyModel,
) {
    let mut group = c.benchmark_group(&format!("checker_replay_{name}"));
    for &entries in &TRACE_LENGTHS {
        for &live in LIVE_SEGMENTS.iter().filter(|&&live| live <= entries / ENTRIES_PER_BLOCK) {
            let trace = build_trace(name, entries, live);
            let mut scratch = CheckerScratch::new();
            assert!(
                check_packed_with(trace.packed(), model, &mut scratch, &mut LocResolver::new())
                    .is_empty(),
                "{name} bench trace (len {entries}, live {live}) must check clean"
            );
            assert_eq!(live_segments(&scratch), live, "{name} trace must reach {live} segments");
            let id = format!("len{entries}_live{live}");
            let repr = repr(&scratch);
            bench_traces(&mut group, samples, "blocks", name, model, &id, &[trace], live, repr);
        }
    }
    group.finish();
}

/// Benchmarks one set of captured workload traces under x86, which must
/// check clean.
fn bench_workload(
    c: &mut Criterion,
    samples: &mut Vec<Sample>,
    trace: &'static str,
    id: &str,
    traces: &[Trace],
) {
    let model = X86Model::new();
    let mut scratch = CheckerScratch::new();
    let mut resolver = LocResolver::new();
    let mut live = 0;
    for t in traces {
        let diags = check_packed_with(t.packed(), &model, &mut scratch, &mut resolver);
        assert!(diags.is_empty(), "{trace} traces check clean: {diags:?}");
        live = live.max(live_segments(&scratch));
    }
    let repr = repr(&scratch);
    let mut group = c.benchmark_group(&format!("checker_replay_{trace}"));
    bench_traces(&mut group, samples, trace, "x86", &model, id, traces, live, repr);
    group.finish();
}

fn write_json(samples: &[Sample]) {
    let mut rows = String::new();
    for (i, s) in samples.iter().enumerate() {
        let _ = writeln!(
            rows,
            "    {{\"trace\": \"{}\", \"model\": \"{}\", \"entries\": {}, \"live_segments\": {}, \
             \"repr\": \"{}\", \"mode\": \"{}\", \"ns_per_entry\": {:.1}, \
             \"ns_per_entry_floor\": {:.1}, \"ns_per_trace\": {:.1}}}{}",
            s.trace,
            s.model,
            s.entries,
            s.live,
            s.repr,
            s.mode,
            s.ns_per_entry,
            s.floor_ns_per_entry,
            s.ns_per_entry * s.entries as f64,
            if i + 1 == samples.len() { "" } else { "," },
        );
    }
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"checker_replay\",\n",
            "  \"host_parallelism\": {},\n",
            "  \"workload\": \"blocks = write + make-durable + isPersist blocks cycling over N \
             disjoint 64B-strided segments in scattered order, clean traces; kv-ycsb = one \
             trace per set of 8000 YCSB update-heavy ops (50% set, zipfian, 1000 keys, 64-B \
             values, seed 1) on the KvStore over the Mnemosyne redo log with its checkers; \
             pmfs-filebench = one trace per Filebench client (8 x 1250 ops) on PMFS with \
             journal checkers; entries and live_segments per trace (live_segments = the \
             largest); single thread, no engine\",\n",
            "  \"modes\": \"recycled = check_packed_with on one persistent CheckerScratch and \
             one kept LocResolver (the engine worker's path and steady state); fresh = \
             check_trace, checker state and resolver constructed per trace\",\n",
            "  \"statistics\": \"ns_per_entry = median of 10 batches; ns_per_entry_floor = \
             fastest batch\",\n",
            "  \"repr\": \"segment-map representation the replay ends in: flat vector, or BTree \
             past the crossover (DESIGN.md section 12 compares both at each live count)\",\n",
            "  \"results\": [\n{}  ]\n",
            "}}\n"
        ),
        parallelism, rows,
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let path = format!("{dir}/BENCH_checker.json");
    std::fs::write(&path, &json).expect("write BENCH_checker.json");
    println!("\nwrote {path}");
    print!("{json}");
}

fn checker_replay(c: &mut Criterion) {
    let mut samples = Vec::new();
    bench_model(c, &mut samples, "x86", &X86Model::new());
    bench_model(c, &mut samples, "hops", &HopsModel::new());
    bench_workload(c, &mut samples, "kv-ycsb", "sets", &kv_traces());
    bench_workload(c, &mut samples, "pmfs-filebench", "8clients", &pmfs_traces());
    for s in &samples {
        println!(
            "{:<14} {:<4} len={:>5} live={:>4} {:<5} {:>8}: {:>6.1} ns/entry (floor {:>6.1})",
            s.trace,
            s.model,
            s.entries,
            s.live,
            s.repr,
            s.mode,
            s.ns_per_entry,
            s.floor_ns_per_entry
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
    targets = checker_replay
}
criterion_main!(benches);
