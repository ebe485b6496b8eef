//! Differential fuzzing driver.
//!
//! Generates seeded random PM programs, cross-validates engine / crash
//! oracle / baselines on each, and on any divergence delta-debugs the
//! program to a minimal reproducer and writes it to the output directory.
//!
//! ```text
//! difftest-fuzz [--seeds N] [--start-seed S] [--seconds T] [--max-ops M] [--out DIR] [--minimize]
//!               [--explore] [--explore-points P]
//! ```
//!
//! `--seconds` time-boxes the run (seeds keep incrementing from
//! `--start-seed` until the budget is spent); otherwise exactly `--seeds`
//! seeds run. With `--minimize`, every minimized counterexample also gets a
//! diagnosis bundle (`div_<seed>.bundle.jsonl`, built by re-checking its
//! trace) written next to it, ready for `pmtest-explain`.
//!
//! With `--explore`, each program additionally runs through the crash-point
//! exploration engine (prefix-shared model-mode sweep, cross-validated
//! against a fresh-replay reference and the per-check oracle verdicts); an
//! exploration divergence is shrunk to a minimal program plus crash offset
//! like any other. `--explore-points P` (implies `--explore`) switches the
//! sweeps to seeded random-mode crash-point sampling and stops the run once
//! `P` crash points have been explored — the CI sweep configuration.
//! Exit status is 1 if any divergence was found.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmtest_difftest::compare::check_program;
use pmtest_difftest::corpus::write_counterexample;
use pmtest_difftest::exec::capture_diagnosis_bundle;
use pmtest_difftest::explore::explore_program_with;
use pmtest_difftest::gen::{generate, GenConfig};
use pmtest_difftest::program::Program;
use pmtest_difftest::shrink::shrink;

/// Crash points sampled per program in `--explore-points` random mode.
const EXPLORE_RANDOM_POINTS: usize = 8;

struct Args {
    seeds: u64,
    start_seed: u64,
    seconds: Option<u64>,
    max_ops: usize,
    out: PathBuf,
    minimize: bool,
    explore: bool,
    explore_points: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 500,
        start_seed: 0,
        seconds: None,
        max_ops: GenConfig::default().max_ops,
        out: PathBuf::from("fuzz_out"),
        minimize: false,
        explore: false,
        explore_points: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                args.start_seed = value("--start-seed")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seconds" => {
                args.seconds = Some(value("--seconds")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--max-ops" => {
                args.max_ops = value("--max-ops")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--minimize" => args.minimize = true,
            "--explore" => args.explore = true,
            "--explore-points" => {
                args.explore_points =
                    Some(value("--explore-points")?.parse().map_err(|e| format!("{e}"))?);
                args.explore = true;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Writes the minimized program's diagnosis bundle next to its
/// counterexample. A failed write is reported but never aborts the fuzz run
/// — the counterexample itself is already on disk.
fn write_bundle(out: &std::path::Path, seed: u64, min: &Program) {
    let path = out.join(format!("div_{seed}.bundle.jsonl"));
    match std::fs::write(&path, capture_diagnosis_bundle(min)) {
        Ok(()) => eprintln!("seed {seed}: diagnosis bundle -> {}", path.display()),
        Err(e) => eprintln!("seed {seed}: failed to write bundle: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("difftest-fuzz: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = GenConfig { max_ops: args.max_ops, ..GenConfig::default() };
    let deadline = args.seconds.map(|s| Instant::now() + Duration::from_secs(s));
    let started = Instant::now();
    let mut checked: u64 = 0;
    let mut divergences: u64 = 0;
    let mut points_explored: u64 = 0;
    let mut seed = args.start_seed;

    loop {
        if let Some(budget) = args.explore_points {
            if points_explored >= budget {
                break;
            }
        }
        match deadline {
            Some(d) => {
                if Instant::now() >= d {
                    break;
                }
            }
            None => {
                // A crash-point budget replaces the seed count as the
                // stopping rule (seeds keep incrementing until it's spent).
                if args.explore_points.is_none() && seed >= args.start_seed + args.seeds {
                    break;
                }
            }
        }
        let program = generate(seed, &cfg);
        match check_program(&program) {
            Ok(divs) if divs.is_empty() => {}
            Ok(divs) => {
                divergences += 1;
                let detail: Vec<String> = divs.iter().map(|d| d.to_string()).collect();
                eprintln!("seed {seed}: DIVERGENCE\n  {}", detail.join("\n  "));
                eprintln!("seed {seed}: shrinking {} ops...", program.ops.len());
                let min =
                    shrink(&program, |p| matches!(check_program(p), Ok(ds) if !ds.is_empty()));
                let min_detail = match check_program(&min) {
                    Ok(ds) => ds.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n"),
                    Err(e) => format!("submit error on minimized replay: {e}"),
                };
                match write_counterexample(&args.out, seed, &min, &min_detail) {
                    Ok(path) => eprintln!(
                        "seed {seed}: minimized to {} ops -> {}",
                        min.ops.len(),
                        path.display()
                    ),
                    Err(e) => eprintln!("seed {seed}: failed to write counterexample: {e}"),
                }
                if args.minimize {
                    write_bundle(&args.out, seed, &min);
                }
            }
            Err(e) => {
                // A generated program must never kill the engine; treat as a
                // divergence in its own right.
                divergences += 1;
                eprintln!("seed {seed}: engine rejected submission: {e}");
                let detail = format!("engine submit error: {e}");
                if let Err(werr) = write_counterexample(&args.out, seed, &program, &detail) {
                    eprintln!("seed {seed}: failed to write counterexample: {werr}");
                }
            }
        }
        if args.explore {
            let random = args.explore_points.map(|_| (seed, EXPLORE_RANDOM_POINTS));
            match explore_program_with(&program, random) {
                Ok(outcome) => {
                    points_explored += outcome.shared.stats.crash_points_enumerated;
                    if !outcome.divergences.is_empty() {
                        divergences += 1;
                        let detail: Vec<String> =
                            outcome.divergences.iter().map(|d| d.to_string()).collect();
                        eprintln!("seed {seed}: EXPLORATION DIVERGENCE\n  {}", detail.join("\n  "));
                        eprintln!("seed {seed}: shrinking {} ops...", program.ops.len());
                        let min = shrink(&program, |p| {
                            matches!(explore_program_with(p, random),
                                     Ok(o) if !o.divergences.is_empty())
                        });
                        let min_detail =
                            match explore_program_with(&min, random) {
                                Ok(o) => {
                                    let offset =
                                        o.shared.violations.first().map(|v| v.point).or_else(
                                            || o.fresh.violations.first().map(|v| v.point),
                                        );
                                    let mut text = o
                                        .divergences
                                        .iter()
                                        .map(|d| d.to_string())
                                        .collect::<Vec<_>>()
                                        .join("\n");
                                    if let Some(p) = offset {
                                        text.push_str(&format!("\ncrash offset: point {p}"));
                                    }
                                    text
                                }
                                Err(e) => format!("submit error on minimized replay: {e}"),
                            };
                        match write_counterexample(&args.out, seed, &min, &min_detail) {
                            Ok(path) => eprintln!(
                                "seed {seed}: minimized to {} ops -> {}",
                                min.ops.len(),
                                path.display()
                            ),
                            Err(e) => {
                                eprintln!("seed {seed}: failed to write counterexample: {e}");
                            }
                        }
                        if args.minimize {
                            write_bundle(&args.out, seed, &min);
                        }
                    }
                }
                Err(e) => {
                    divergences += 1;
                    eprintln!("seed {seed}: engine rejected exploration submission: {e}");
                    let detail = format!("engine submit error during exploration: {e}");
                    if let Err(werr) = write_counterexample(&args.out, seed, &program, &detail) {
                        eprintln!("seed {seed}: failed to write counterexample: {werr}");
                    }
                }
            }
        }
        checked += 1;
        seed += 1;
        if checked.is_multiple_of(200) {
            eprintln!(
                "progress: {checked} programs, {divergences} divergences, {points_explored} crash \
                 points, {:.1}s",
                started.elapsed().as_secs_f64()
            );
        }
    }

    println!(
        "difftest-fuzz: {checked} programs checked (seeds {}..{seed}), {divergences} divergences, \
         {points_explored} crash points explored, {:.1}s",
        args.start_seed,
        started.elapsed().as_secs_f64()
    );
    if divergences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
