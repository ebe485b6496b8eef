//! Pre-optimization report pinning: the checker's full diagnostic output
//! (codes, messages, locations, culprits) over a fixed seed corpus is
//! committed to `tests/golden/reports.jsonl`. Any hot-path rework must
//! reproduce it *byte-identically* — the acceptance gate for replacing the
//! shadow-memory data structures under the checker.
//!
//! Regenerate (only when diagnostics are *intentionally* changed) with:
//! `PMTEST_BLESS=1 cargo test -p pmtest-difftest --test golden_reports`

use std::fmt::Write as _;

use pmtest_difftest::exec::{run_engine, EngineRun, REPLICAS};
use pmtest_difftest::gen::{generate, GenConfig};

const GOLDEN_SEEDS: u64 = 300;
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/reports.jsonl");

/// One canonical single-worker, unbatched run per seed — the matrix's other
/// cells are pinned to this one by the determinism tests.
fn render_corpus() -> String {
    let cfg = GenConfig::default();
    let mut out = String::new();
    for seed in 0..GOLDEN_SEEDS {
        let program = generate(seed, &cfg);
        let report = run_engine(&program, &EngineRun::new(1, 1), REPLICAS).expect("golden run");
        let _ = writeln!(out, "# seed {seed} dialect {:?}", program.dialect);
        out.push_str(&report.to_json_lines());
    }
    out
}

#[test]
fn reports_match_the_committed_golden_corpus() {
    let rendered = render_corpus();
    if std::env::var_os("PMTEST_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden corpus");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden corpus missing; generate with PMTEST_BLESS=1 \
         cargo test -p pmtest-difftest --test golden_reports",
    );
    if rendered != golden {
        let mismatch = golden
            .lines()
            .zip(rendered.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}: golden `{a}` vs rendered `{b}`", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "length: golden {} lines vs rendered {}",
                    golden.lines().count(),
                    rendered.lines().count()
                )
            });
        panic!("reports diverged from the pre-optimization golden corpus; first {mismatch}");
    }
}
