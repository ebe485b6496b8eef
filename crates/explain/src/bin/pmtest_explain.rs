//! `pmtest-explain`: render diagnosis bundles, difftest programs, or
//! advisor reports as annotated timelines and suggestion tables.
//!
//! ```text
//! pmtest-explain [--bundle-out DIR] [--crash-point N]
//!                [--advise] [--advise-diff OLD.json] [--top K] <file>...
//! ```
//!
//! Each input is content-detected: a JSON-lines file whose first line is a
//! `pmtest-diagnosis` header loads as a bundle; a JSON document carrying
//! the `pmtest-advisor/v1` schema renders as the advisor's top-K
//! suggestion table with per-site drill-down; anything else parses as a
//! difftest program (`dialect x86` / `dialect hops` text). With
//! `--bundle-out DIR`, every *program* input's trace is additionally
//! re-checked into a diagnosis bundle written to `DIR/<stem>.bundle.jsonl`
//! (ERROR capture if a checker fails, manual capture otherwise), the same
//! bundle an engine with the recorder on captures — CI validates these with
//! `obs-check`.
//!
//! With `--advise`, program inputs are checked on a profiling-enabled
//! engine and rendered as advisor reports instead of timelines (advisor
//! JSON inputs render the same either way); `--top K` bounds the table
//! (default 10). With `--advise-diff OLD.json`, every input is compared
//! against the stored baseline report and the `(kind, site)` deltas are
//! printed regressions-first — persistency-efficiency review, the way
//! `BENCH_engine.json` comparisons review throughput.
//!
//! With `--crash-point N` (program inputs only), the timeline gains a crash
//! divider after the `N`-th persistent-memory op — the coordinate
//! `difftest-fuzz --explore` reports — plus the crash oracle's state
//! summary at that point: dirty lines, pending vs forced stores, reachable
//! states, and the worst-case culprit store.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pmtest_difftest::exec::capture_diagnosis_bundle;
use pmtest_difftest::program::Program;
use pmtest_explain::{
    explain_bundle, explain_crash_point, explain_program, profile_program, render_advisor,
    render_advisor_diff,
};
use pmtest_obs::advisor::{is_advisor_doc, AdvisorReport};
use pmtest_obs::bundle::is_bundle;

struct Args {
    bundle_out: Option<PathBuf>,
    crash_point: Option<usize>,
    advise: bool,
    advise_diff: Option<PathBuf>,
    top: usize,
    inputs: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bundle_out: None,
        crash_point: None,
        advise: false,
        advise_diff: None,
        top: 10,
        inputs: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bundle-out" => {
                let dir = it.next().ok_or("--bundle-out needs a directory")?;
                args.bundle_out = Some(PathBuf::from(dir));
            }
            "--crash-point" => {
                let n = it.next().ok_or("--crash-point needs a point index")?;
                args.crash_point = Some(n.parse().map_err(|e| format!("--crash-point {n}: {e}"))?);
            }
            "--advise" => args.advise = true,
            "--advise-diff" => {
                let old = it.next().ok_or("--advise-diff needs a baseline ADVISOR json")?;
                args.advise_diff = Some(PathBuf::from(old));
            }
            "--top" => {
                let k = it.next().ok_or("--top needs a count")?;
                args.top = k.parse().map_err(|e| format!("--top {k}: {e}"))?;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => args.inputs.push(PathBuf::from(path)),
        }
    }
    if args.inputs.is_empty() {
        return Err("usage: pmtest-explain [--bundle-out DIR] [--crash-point N] \
                    [--advise] [--advise-diff OLD.json] [--top K] <file>..."
            .to_owned());
    }
    Ok(args)
}

fn stem(path: &Path) -> String {
    path.file_stem().map_or_else(|| "input".to_owned(), |s| s.to_string_lossy().into_owned())
}

/// Loads a stored advisor baseline (`--advise-diff OLD.json`).
fn load_baseline(path: &Path) -> Result<AdvisorReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    AdvisorReport::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<(), String> {
    let baseline = args.advise_diff.as_deref().map(load_baseline).transpose()?;
    for path in &args.inputs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = stem(path);
        // Advisor documents render as suggestion tables; with --advise (or
        // --advise-diff), program inputs are profiled and rendered the same
        // way instead of as timelines.
        let advisor_input = is_advisor_doc(&text);
        if advisor_input || ((args.advise || baseline.is_some()) && !is_bundle(&text)) {
            let report = if advisor_input {
                AdvisorReport::from_json(&text).map_err(|e| format!("{name}: {e}"))?
            } else {
                let program = Program::from_text(&text).map_err(|e| format!("{name}: {e}"))?;
                profile_program(&program)
            };
            match &baseline {
                Some(old) => print!("{}", render_advisor_diff(old, &report, &name)),
                None => print!("{}", render_advisor(&report, &name, args.top)),
            }
            println!();
            continue;
        }
        if is_bundle(&text) {
            if args.crash_point.is_some() {
                return Err(format!(
                    "{name}: --crash-point applies to program inputs, not bundles"
                ));
            }
            let render = explain_bundle(&text, &name).map_err(|e| format!("{name}: {e}"))?;
            print!("{render}");
        } else {
            let program = Program::from_text(&text).map_err(|e| format!("{name}: {e}"))?;
            match args.crash_point {
                Some(point) => print!(
                    "{}",
                    explain_crash_point(&program, &name, point)
                        .map_err(|e| format!("{name}: {e}"))?
                ),
                None => print!("{}", explain_program(&program, &name)),
            }
            if let Some(dir) = &args.bundle_out {
                let contents = capture_diagnosis_bundle(&program);
                let written =
                    pmtest_obs::writer::write_lines(dir, &format!("{name}.bundle"), &contents)
                        .map_err(|e| format!("{name}: {e}"))?;
                eprintln!("bundle written: {}", written.display());
            }
        }
        println!();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pmtest-explain: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pmtest-explain: {e}");
            ExitCode::FAILURE
        }
    }
}
