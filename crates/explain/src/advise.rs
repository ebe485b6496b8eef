//! Advisor-report renderers: the human-readable face of the optimization
//! advisor's `ADVISOR_*.json` documents (see DESIGN.md §16).
//!
//! [`render_advisor`] prints the top-K suggestion table followed by a
//! per-site drill-down (each profiled site's operation mix, WARN
//! diagnostics, and the suggestions anchored there);
//! [`render_advisor_diff`] prints the run-over-run `(kind, site)` deltas —
//! regressions first — so persistency-efficiency changes review like bench
//! deltas. [`profile_program`] runs a difftest program through a
//! profiling-enabled engine so corpus seeds can be advised directly.

use std::fmt::Write as _;

use pmtest_core::{Engine, EngineConfig, TelemetryConfig, TelemetryLevel};
use pmtest_difftest::exec::model_for;
use pmtest_difftest::program::Program;
use pmtest_obs::advisor::{diff, AdvisorReport};

/// Checks a difftest program on a single-worker engine at the `Profile`
/// telemetry level and
/// returns the advisor's report for it.
#[must_use]
pub fn profile_program(program: &Program) -> AdvisorReport {
    let engine = Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 1,
        telemetry: TelemetryConfig::at(TelemetryLevel::Profile),
        ..EngineConfig::default()
    });
    engine.submit(program.trace(0)).expect("engine accepts one trace");
    engine.wait_idle();
    engine.advisor_report()
}

/// Renders an advisor report: header, top-`top` suggestion table, per-site
/// drill-down. `source` names the input in the first output line.
#[must_use]
pub fn render_advisor(report: &AdvisorReport, source: &str, top: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pmtest-advise: {source}");
    let _ = writeln!(
        out,
        "profile: {} trace(s), {} site(s), {} suggestion(s)",
        report.traces,
        report.sites.len(),
        report.suggestions.len()
    );
    if report.suggestions.is_empty() {
        out.push_str("no wasteful persistency patterns detected\n");
        return out;
    }

    let shown = report.top(top);
    let site_w = shown.iter().map(|s| s.site.len()).max().unwrap_or(4).max(4);
    let _ = writeln!(out, "\ntop {} of {}:", shown.len(), report.suggestions.len());
    let _ = writeln!(
        out,
        "{:>4}  {:>8}  {:<17} {:<site_w$}  {:>6}  {:>8}",
        "rank", "score", "kind", "site", "count", "wasted B"
    );
    for s in shown {
        let _ = writeln!(
            out,
            "{:>4}  {:>8}  {:<17} {:<site_w$}  {:>6}  {:>8}",
            s.rank,
            s.score,
            s.kind.code(),
            s.site,
            s.count,
            s.wasted_bytes
        );
    }

    out.push_str("\nper-site drill-down:\n");
    for site in &report.sites {
        let key = site.site();
        let d = &site.ops;
        let _ = writeln!(
            out,
            "{key} — {} write(s), {} flush(es), {} fence(s), {} log(s)",
            d.writes, d.flushes, d.fences, d.logs
        );
        for (code, n) in &site.warns {
            let _ = writeln!(out, "  warn {code} x{n}");
        }
        for s in report.at_site(&key) {
            let _ = writeln!(out, "  #{} {}: {}", s.rank, s.kind.code(), s.detail);
        }
    }
    out
}

/// Renders the `(kind, site)` deltas between two advisor reports —
/// regressions (score up or newly appeared) first, improvements last,
/// unchanged pairs omitted. `source` names the new input.
#[must_use]
pub fn render_advisor_diff(old: &AdvisorReport, new: &AdvisorReport, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "pmtest-advise diff: {source}");
    let _ = writeln!(
        out,
        "old: {} trace(s), {} suggestion(s); new: {} trace(s), {} suggestion(s)",
        old.traces,
        old.suggestions.len(),
        new.traces,
        new.suggestions.len()
    );
    let entries = diff(old, new);
    if entries.is_empty() {
        out.push_str("no change in wasteful persistency patterns\n");
        return out;
    }
    let side = |v: &Option<(u64, u64, u64)>| match v {
        Some((count, wasted, score)) => format!("{count} x / {wasted} B / score {score}"),
        None => "absent".to_owned(),
    };
    for e in &entries {
        let verdict = match (e.old.is_none(), e.new.is_none()) {
            (true, _) => "NEW",
            (_, true) => "fixed",
            _ if e.score_delta() > 0 => "worse",
            _ => "better",
        };
        let _ = writeln!(
            out,
            "{:>+6}  {:<6} {:<17} {}: {} -> {}",
            e.score_delta(),
            verdict,
            e.kind.code(),
            e.site,
            side(&e.old),
            side(&e.new)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wasteful_program() -> Program {
        Program::from_text(
            "dialect x86\n\
             write 0 64\n\
             flush 0 64\n\
             flush 0 64\n\
             fence\n\
             fence\n",
        )
        .expect("valid program")
    }

    #[test]
    fn profile_program_finds_planted_waste() {
        let report = profile_program(&wasteful_program());
        assert_eq!(report.traces, 1);
        let kinds: Vec<_> = report.suggestions.iter().map(|s| s.kind.code()).collect();
        assert!(kinds.contains(&"flush_coalescing"), "{kinds:?}");
        assert!(kinds.contains(&"redundant_fence"), "{kinds:?}");
    }

    #[test]
    fn render_has_table_and_drilldown() {
        let report = profile_program(&wasteful_program());
        let render = render_advisor(&report, "demo", 10);
        assert!(render.starts_with("pmtest-advise: demo\n"), "{render}");
        assert!(render.contains("rank"), "{render}");
        assert!(render.contains("per-site drill-down"), "{render}");
        assert!(render.contains("flush_coalescing"), "{render}");
    }

    #[test]
    fn diff_render_marks_fixed_and_new() {
        let old = profile_program(&wasteful_program());
        let fixed = Program::from_text("dialect x86\nwrite 0 64\nflush 0 64\nfence\n")
            .expect("valid program");
        let new = profile_program(&fixed);
        let render = render_advisor_diff(&old, &new, "demo");
        assert!(render.contains("fixed"), "{render}");
        assert!(!render.contains("NEW"), "{render}");
    }
}
