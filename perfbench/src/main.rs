//! End-to-end PMTest benchmark: how long a developer waits for the verdict,
//! and how much slower the program runs than native, on four workloads —
//! with every layer measured from outside, through its public functions and
//! counters.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! A run repeats rounds of the workload for `--seconds` after one warm-up
//! round. `--trace 0` prints the end-to-end metrics, timings from the best
//! round and set-up time as the median over rounds (see
//! [`report::end_to_end`]); `--trace 1` runs untraced and traced rounds in
//! turn and prints the per-layer metrics, each the median over traced
//! rounds, writing the last traced round's spans
//! to `<out>/spans-<workload>-seed<n>.jsonl`. Every metric is printed by
//! name with its unit; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A correctness-gate violation makes
//! the run exit with code 1.

mod explore;
mod fs;
mod kv;
mod report;
mod spans;
mod verdict;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{end_to_end, medians, peak_rss_mib, ratio, result_json, Round, END_TO_END, PER_LAYER};
use spans::Tracer;

/// The workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["kv-ycsb", "pmfs-filebench", "kv-bug-cache", "explore-queue"];

/// Fewest measured rounds a run reports on.
const MIN_ROUNDS: usize = 3;

enum Workload {
    Kv(kv::Kv),
    Fs(fs::Filebench),
    Explore(explore::ExploreQueue),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "kv-ycsb" => Self::Kv(kv::Kv::new(seed, false)),
            "kv-bug-cache" => Self::Kv(kv::Kv::new(seed, true)),
            "pmfs-filebench" => Self::Fs(fs::Filebench::new(seed)),
            "explore-queue" => Self::Explore(explore::ExploreQueue::new(seed)),
            _ => return None,
        })
    }

    fn round(&self, tr: &mut Tracer) -> Round {
        match self {
            Self::Kv(w) => w.round(tr),
            Self::Fs(w) => w.round(tr),
            Self::Explore(w) => w.round(tr),
        }
    }

    /// Checker-only figures over traces captured from the same op stream.
    fn offline_check(&self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        match self {
            Self::Kv(w) => w.offline_check(tr),
            Self::Fs(w) => w.offline_check(tr),
            Self::Explore(_) => BTreeMap::new(),
        }
    }

    /// Checking workers, and the rest of the run's configuration.
    fn config(&self) -> (usize, String) {
        match self {
            Self::Kv(w) => (
                1,
                format!(
                    "verdict_cache={} pm_pool_bytes={} key_space={} value_bytes={} \
                     ops_per_round={}",
                    if w.bug() { "on" } else { "off" },
                    kv::POOL_BYTES,
                    kv::KEY_SPACE,
                    kv::VALUE_BYTES,
                    kv::OPS
                ),
            ),
            Self::Fs(_) => (
                1,
                format!(
                    "verdict_cache=off pm_pool_bytes={} clients={} inodes={} ops_per_round={}",
                    fs::POOL_BYTES,
                    fs::CLIENTS,
                    fs::INODES,
                    fs::OPS
                ),
            ),
            Self::Explore(_) => (
                0,
                format!(
                    "verdict_cache=off pm_image_bytes={} enqueues_per_sweep={}",
                    explore::IMAGE_BYTES,
                    explore::ENQUEUES
                ),
            ),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out: "perfbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--out" => args.out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Per-layer figures one traced round adds from its spans: self time per
/// span name, the share of the blocking window the root spans cover, and
/// the tracing overhead against the untraced round just before it.
fn span_figures(tr: &Tracer, traced: &Round, untraced: &Round) -> BTreeMap<&'static str, f64> {
    let self_ns = tr.self_ns();
    let self_ms = |name| self_ns.get(name).map_or(0.0, |&ns| ns as f64 / 1e6);
    let wall = traced.wall().as_nanos() as f64;
    let covered = tr.root_ns_within(traced.window.0, traced.window.1) as f64 / wall;
    let overhead = wall - untraced.wall().as_nanos() as f64;
    BTreeMap::from([
        ("span.op.self_ms", self_ms("op")),
        ("span.send_trace.self_ms", self_ms("send_trace")),
        ("span.finish.self_ms", self_ms("finish")),
        ("span.check_trace.self_ms", self_ms("check_trace")),
        ("span.sweep.self_ms", self_ms("sweep")),
        ("span.recover.self_ms", self_ms("recover")),
        ("span.check.self_ms", self_ms("check")),
        ("tracing.wall_ms", wall / 1e6),
        ("tracing.covered_share", covered),
        ("tracing.unattributed_share", 1.0 - covered),
        ("tracing.overhead_ms", overhead / 1e6),
        ("tracing.overhead_share", ratio(overhead, untraced.wall().as_nanos() as f64)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}; one of {WORKLOADS:?}", args.workload);
        return ExitCode::from(2);
    };

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (workers, config) = workload.config();
    println!(
        "config: workload={} seed={} seconds={} trace={} nproc={nproc} producer_threads=1 \
         checking_workers={workers} telemetry=off {config}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    if 1 + workers > nproc {
        println!("warning: 1 producer + {workers} worker(s) oversubscribe nproc={nproc}");
    }

    // Warm-up: lazy set-up and allocator caches, not counted.
    let _ = workload.round(&mut Tracer::new(false));
    let mut tracer = Tracer::new(args.trace);
    let (mut untraced, mut layers, mut last_spans) = (Vec::new(), Vec::new(), BTreeMap::new());
    let (mut attempted, mut failed, mut violations) = (0u64, 0u64, Vec::new());
    let mut peak_rss = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while untraced.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = workload.round(&mut Tracer::new(false));
        let mut counted = vec![&round];
        let traced;
        if args.trace {
            tracer.clear();
            traced = workload.round(&mut tracer);
            let mut layer = traced.layer.clone();
            layer.extend(workload.offline_check(&mut tracer));
            last_spans = span_figures(&tracer, &traced, &round);
            layer.extend(last_spans.clone());
            layers.push(layer);
            counted.push(&traced);
        }
        for r in counted {
            attempted += r.ops;
            failed += r.failed;
            violations.extend(r.violations.iter().cloned());
        }
        untraced.push(round);
        // Every round allocates alike, so the high-water mark after the
        // first measured one is the workload's.
        peak_rss.get_or_insert_with(peak_rss_mib);
    }
    let rounds = untraced.len();

    let (names, figures) = if args.trace {
        let path = format!("{}/spans-{}-seed{}.jsonl", args.out, args.workload, args.seed);
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, tracer.to_json_lines()));
        match written {
            Ok(()) => println!("spans: last traced round written to {path}"),
            Err(e) => println!("spans: could not write {path}: {e}"),
        }
        (PER_LAYER, medians(&layers))
    } else {
        let mut m = end_to_end(&untraced, workers > 0);
        m.insert("peak_rss_mib", peak_rss.unwrap_or(0.0));
        (END_TO_END, m)
    };

    println!(
        "rounds: {rounds} measured (+1 warm-up), {} op latencies, {attempted} ops attempted, \
         {failed} failed",
        untraced.iter().map(|r| r.op_ns.len()).sum::<usize>()
    );
    println!("error_rate: {}", ratio(failed as f64, attempted as f64));
    if args.trace {
        // From one round, so that the shares add up to the covered share.
        let get = |n: &str| last_spans.get(n).copied().unwrap_or(0.0);
        let wall = get("tracing.wall_ms");
        let path: Vec<String> = ["op", "send_trace", "finish", "sweep", "recover", "check"]
            .iter()
            .map(|s| format!("{s} {:.4}", ratio(get(&format!("span.{s}.self_ms")), wall)))
            .collect();
        println!(
            "wall accounting of the last traced round (shares of its {wall:.3} ms blocking \
             window): {}; spans cover {:.4}, unattributed {:.4}",
            path.join(", "),
            get("tracing.covered_share"),
            get("tracing.unattributed_share")
        );
    }
    let metrics: Vec<(&str, &str, f64)> = names
        .iter()
        .map(|(name, unit)| (*name, *unit, figures.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, value) in &metrics {
        println!("metric {name:<40} {value:>16.4} {unit}");
    }
    violations.sort();
    violations.dedup();
    for v in &violations {
        println!("gate FAIL: {v}");
    }
    let correct = failed == 0 && violations.is_empty();
    if correct {
        println!("gate ok: every round passed the {} correctness gate", args.workload);
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
