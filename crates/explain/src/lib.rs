//! `pmtest-explain`: the interval-timeline debugger.
//!
//! PMTest's reports *locate* a crash-consistency bug (`FAIL @ file:line`,
//! culprit write attached), but the why — the fence-delimited epochs and
//! per-address persist intervals the inference engine computed — is
//! discarded after checking. This crate re-runs that interval inference
//! deterministically and renders it as an annotated ASCII timeline: one row
//! per operation, epochs as columns, persist intervals as `[===]` bars
//! (`>` while still open), fences as horizontal epoch dividers, checkers
//! annotated pass/FAIL, and the culprit write highlighted.
//!
//! Input is either a difftest corpus program (`dialect x86` text, see
//! `pmtest-difftest`) or a diagnosis bundle captured by the engine at its
//! `Bundles` telemetry level (JSON-lines, see the core crate's
//! `DiagnosisBundle` and DESIGN.md §11); both x86 and HOPS models are
//! supported.
//!
//! ```
//! use pmtest_difftest::program::Program;
//!
//! let program = Program::from_text(
//!     "dialect x86\nwrite 0 8\nflush 0 8\ncheck_persist 0 8\n",
//! )
//! .unwrap();
//! let render = pmtest_explain::explain_program(&program, "demo");
//! assert!(render.contains("FAIL not_persisted"));
//! assert!(render.contains("culprit"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advise;
mod load;
mod render;

pub use advise::{profile_program, render_advisor, render_advisor_diff};
pub use load::{load_bundle, model_from_name, parse_loc, parse_op, LoadedBundle};
pub use render::render_trace;

use pmtest_difftest::exec::model_for;
use pmtest_difftest::program::Program;

/// Renders the timeline of a difftest program under its dialect's model.
/// `source` names the input in the output header (e.g. the file stem).
#[must_use]
pub fn explain_program(program: &Program, source: &str) -> String {
    let model = model_for(program.dialect);
    render_trace(&program.trace(0), model.as_ref(), source)
}

/// Renders the timeline of a difftest program with a crash point spliced
/// in: a divider marks where execution stopped (stores above it may have
/// persisted, ops below it never ran), and a crash-state section summarizes
/// what the crash oracle knows at that point — dirty cache lines, pending
/// vs forced stores per line, the reachable-state count, and the
/// worst-case culprit (the earliest store a crash there can lose).
///
/// `point` counts persistent-memory ops (stores, flushes, fences), the
/// same coordinate `difftest-fuzz --explore` and the exploration engine
/// report; fence boundaries are the points model-mode exploration visits.
///
/// # Errors
///
/// Returns a message if `point` exceeds the program's persistent-memory op
/// count.
pub fn explain_crash_point(
    program: &Program,
    source: &str,
    point: usize,
) -> Result<String, String> {
    use std::fmt::Write as _;

    let sim = pmtest_difftest::exec::crash_sim(program);
    let total = sim.op_count();
    if point > total {
        return Err(format!(
            "crash point {point} out of range: program has {total} persistent-memory ops"
        ));
    }

    let base = explain_program(program, source);
    let mut lines: Vec<String> = base.lines().map(str::to_owned).collect();

    // Splice the crash divider after the last included valued op's row
    // (after the epoch-grid header for point 0).
    let cut = program
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_valued())
        .nth(point.wrapping_sub(1))
        .map(|(i, _)| format!("[{i}]"));
    let insert_at = match &cut {
        Some(marker) => lines.iter().position(|l| l.contains(marker.as_str())).map(|i| i + 1),
        None => lines.iter().position(|l| l.trim_start().starts_with('|')).map(|i| i + 1),
    };
    if let Some(at) = insert_at {
        let width = lines[at - 1].chars().count();
        let label = format!(" ~~ CRASH point {point}/{total}: stores above may have persisted ");
        lines.insert(at, format!("{label:~<width$}"));
    }
    let mut out = lines.join("\n");
    out.push('\n');

    // Crash-state summary from the oracle.
    let analysis = sim.analyze(point);
    let boundary = sim.boundary_points().contains(&point);
    let _ = writeln!(
        out,
        "\ncrash state at point {point} ({}):",
        if boundary {
            "fence boundary — visited by model-mode exploration"
        } else {
            "interior — its states are covered by the next fence boundary"
        }
    );
    let summaries = analysis.line_summaries();
    let _ = writeln!(
        out,
        "  dirty lines: {}, reachable states: {}",
        analysis.dirty_lines(),
        analysis.state_count()
    );
    let describe = |op: usize| match sim.site(op) {
        Some(site) => format!("op {op} @ {site}"),
        None => format!("op {op}"),
    };
    for (line, ops, forced) in &summaries {
        let pieces = ops.iter().map(|&o| describe(o)).collect::<Vec<_>>().join(", ");
        let _ = writeln!(
            out,
            "  line {line:#06x}: {} pending store(s) [{pieces}], {forced} forced durable",
            ops.len()
        );
    }
    let prefixes: Vec<usize> = summaries.iter().map(|(_, _, forced)| *forced).collect();
    match analysis.culprit_op(&prefixes) {
        Some(op) => {
            let _ = writeln!(
                out,
                "  worst-case culprit: {} — the earliest store a crash here can lose",
                describe(op)
            );
        }
        None => {
            let _ = writeln!(out, "  every store is guaranteed durable at this point");
        }
    }
    Ok(out)
}

/// Loads a diagnosis bundle from its JSON-lines text, re-runs interval
/// inference over the recorded window, and renders the timeline.
///
/// A window that starts mid-trace takes its checker annotations and culprit
/// from the diagnostics the bundle recorded, and its timeline opens on the
/// recorded start state: the epoch before the window's first step and the
/// persist intervals still open there. The header names the steps the
/// window holds.
///
/// # Errors
///
/// Returns a description of the first schema or parse problem (unknown
/// model, malformed op token, missing field, …).
pub fn explain_bundle(text: &str, source: &str) -> Result<String, String> {
    let bundle = load_bundle(text)?;
    let model = model_from_name(&bundle.model)?;
    let header = format!("{source} (bundle: reason {}, trace {})", bundle.reason, bundle.trace_id);
    let window = (bundle.first_step > 0).then(|| render::Window {
        first: bundle.first_step,
        diags: &bundle.diags,
        start: bundle.start.as_ref(),
    });
    Ok(render::render_window(&bundle.trace, model.as_ref(), &header, window))
}
