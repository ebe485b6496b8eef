//! Offline shim for [`criterion`](https://crates.io/crates/criterion).
//!
//! This build environment has no access to the crates.io registry, so the
//! workspace vendors the API subset its benches use: `criterion_group!`/
//! `criterion_main!`, [`Criterion::bench_function`], benchmark groups with
//! throughput annotation, and [`Bencher::iter`].
//!
//! The measurer is deliberately simple: per benchmark it warms up for
//! `warm_up_time`, sizes an iteration batch to roughly fill
//! `measurement_time / sample_size`, then reports the **median** and **best**
//! per-iteration time over `sample_size` batches. No statistical regression,
//! HTML reports, or outlier analysis — numbers print to stdout and are
//! queryable by the caller via [`Criterion::last_estimate_ns`] /
//! [`Criterion::last_best_ns`] / [`Criterion::last_quartiles_ns`] (used by
//! this repository's JSON-emitting benches: medians for reporting, floors
//! for regression guards, quartiles for the spread).

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    last: Option<Summary>,
}

/// Per-iteration times of one benchmark's sample batches, in ns.
#[derive(Clone, Copy, Debug)]
struct Summary {
    median: f64,
    best: f64,
    q1: f64,
    q3: f64,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            sample_size: 20,
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(300),
            last: None,
        }
    }
}

impl Criterion {
    /// Number of measured batches per benchmark (min 2).
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Total time budget for the measured batches.
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up duration before measuring.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        self.last = Some(run_bench(
            name,
            None,
            self.sample_size,
            self.measurement_time,
            self.warm_up_time,
            &mut f,
        ));
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.to_owned(), throughput: None }
    }

    /// Median ns/iter of the most recently run benchmark in this `Criterion`
    /// (shim extension; the real crate exposes this via its report files).
    #[must_use]
    pub fn last_estimate_ns(&self) -> Option<f64> {
        self.last.map(|s| s.median)
    }

    /// Best (minimum) ns/iter over the most recent benchmark's sample
    /// batches — the cost floor. Scheduler noise on a shared host only ever
    /// *adds* time, so regression guards compare floors: a real code-cost
    /// increase raises the floor, a noisy-neighbor episode does not lower
    /// it. (Shim extension.)
    #[must_use]
    pub fn last_best_ns(&self) -> Option<f64> {
        self.last.map(|s| s.best)
    }

    /// First and third quartiles of ns/iter over the most recent
    /// benchmark's sample batches — its spread. (Shim extension.)
    #[must_use]
    pub fn last_quartiles_ns(&self) -> Option<(f64, f64)> {
        self.last.map(|s| (s.q1, s.q3))
    }
}

/// A group of related benchmarks sharing a throughput annotation.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates per-iteration element/byte counts for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        self.parent.last = Some(run_bench(
            &name,
            self.throughput,
            self.parent.sample_size,
            self.parent.measurement_time,
            self.parent.warm_up_time,
            &mut f,
        ));
        self
    }

    /// Runs one parameterized benchmark within the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id);
        self.parent.last = Some(run_bench(
            &name,
            self.throughput,
            self.parent.sample_size,
            self.parent.measurement_time,
            self.parent.warm_up_time,
            &mut |b| f(b, input),
        ));
        self
    }

    /// Median ns/iter of the most recently run benchmark (shim extension,
    /// mirrors [`Criterion::last_estimate_ns`] while the group borrows it).
    #[must_use]
    pub fn last_estimate_ns(&self) -> Option<f64> {
        self.parent.last_estimate_ns()
    }

    /// Best (minimum) ns/iter of the most recently run benchmark (shim
    /// extension, mirrors [`Criterion::last_best_ns`]).
    #[must_use]
    pub fn last_best_ns(&self) -> Option<f64> {
        self.parent.last_best_ns()
    }

    /// Quartiles of ns/iter of the most recently run benchmark (shim
    /// extension, mirrors [`Criterion::last_quartiles_ns`]).
    #[must_use]
    pub fn last_quartiles_ns(&self) -> Option<(f64, f64)> {
        self.parent.last_quartiles_ns()
    }

    /// Ends the group (no-op beyond matching the real API).
    pub fn finish(&mut self) {}
}

/// Identifier of a parameterized benchmark.
pub struct BenchmarkId {
    repr: String,
}

impl BenchmarkId {
    /// `<function>/<parameter>` form.
    pub fn new(function: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self { repr: format!("{function}/{parameter}") }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self { repr: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

/// Units processed per iteration, for rate reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Logical elements per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Handed to the benchmark closure; times the routine under test.
pub struct Bencher {
    /// Iterations the routine should run this batch.
    iters: u64,
    /// Measured duration of the batch, set by [`iter`](Self::iter).
    elapsed: Duration,
}

impl Bencher {
    /// Runs the routine `iters` times, timing the whole batch.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    name: &str,
    throughput: Option<Throughput>,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    f: &mut F,
) -> Summary {
    // Warm-up: also sizes the batch so one batch ≈ measurement_time/samples.
    let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    while warm_start.elapsed() < warm_up_time || warm_iters == 0 {
        f(&mut b);
        warm_iters += b.iters;
        if b.elapsed < Duration::from_millis(1) {
            b.iters = (b.iters * 2).min(1 << 30);
        }
    }
    let per_iter_ns = (b.elapsed.as_nanos() as f64 / b.iters as f64).max(1.0);
    let batch_budget_ns = measurement_time.as_nanos() as f64 / sample_size as f64;
    let batch_iters = ((batch_budget_ns / per_iter_ns) as u64).max(1);

    let mut samples_ns: Vec<f64> = Vec::with_capacity(sample_size);
    for _ in 0..sample_size {
        let mut b = Bencher { iters: batch_iters, elapsed: Duration::ZERO };
        f(&mut b);
        samples_ns.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
    }
    samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = samples_ns.len();
    let median = samples_ns[n / 2];
    let best = samples_ns[0];

    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!(" ({:.3} Melem/s)", n as f64 * 1e3 / median),
        Throughput::Bytes(n) => {
            format!(" ({:.1} MiB/s)", n as f64 * 1e9 / median / (1 << 20) as f64)
        }
    });
    println!(
        "{name:<48} median {median:>12.1} ns/iter  best {best:>12.1} ns/iter{}",
        rate.unwrap_or_default()
    );
    Summary { median, best, q1: samples_ns[n / 4], q3: samples_ns[3 * n / 4] }
}

/// Declares a group of benchmark functions, optionally with a config.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the `main` running one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_criterion() -> Criterion {
        Criterion::default()
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5))
    }

    #[test]
    fn bench_function_produces_estimate() {
        let mut c = fast_criterion();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let est = c.last_estimate_ns().expect("estimate recorded");
        assert!(est > 0.0);
        let best = c.last_best_ns().expect("best sample recorded");
        assert!(best > 0.0 && best <= est, "floor {best} must not exceed median {est}");
        let (q1, q3) = c.last_quartiles_ns().expect("quartiles recorded");
        assert!(best <= q1 && q1 <= est && est <= q3, "{best} <= {q1} <= {est} <= {q3}");
    }

    #[test]
    fn groups_and_ids_run() {
        let mut c = fast_criterion();
        let mut group = c.benchmark_group("g");
        group.throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::from_parameter(4), &4u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.bench_function("plain", |b| b.iter(|| black_box(2 * 2)));
        group.finish();
        assert!(c.last_estimate_ns().is_some());
    }

    #[test]
    fn estimate_orders_cheap_vs_expensive() {
        let mut c = fast_criterion();
        c.bench_function("cheap", |b| b.iter(|| black_box(1u64)));
        let cheap = c.last_estimate_ns().unwrap();
        c.bench_function("pricey", |b| b.iter(|| (0..2000u64).map(black_box).sum::<u64>()));
        let pricey = c.last_estimate_ns().unwrap();
        assert!(pricey > cheap, "pricey {pricey} <= cheap {cheap}");
    }

    mod as_macro {
        use super::super::*;

        fn target(c: &mut Criterion) {
            c.bench_function("macro_target", |b| b.iter(|| black_box(0)));
        }

        criterion_group! {
            name = benches;
            config = Criterion::default()
                .sample_size(2)
                .measurement_time(std::time::Duration::from_millis(10))
                .warm_up_time(std::time::Duration::from_millis(2));
            targets = target
        }

        #[test]
        fn group_macro_compiles_and_runs() {
            benches();
        }
    }
}
