//! Golden timeline renders for the committed difftest corpus.
//!
//! Every corpus seed has a checked-in `<stem>.explain.txt` render next to
//! it; this test replays `pmtest-explain`'s renderer over each program and
//! diffs against the golden. Regenerate with `PMTEST_BLESS=1 cargo test -p
//! pmtest-explain`.
//!
//! The acceptance-criteria cross-check rides along: the culprit the
//! timeline highlights must be exactly the `culprit` field the engine's
//! `Report::to_json_lines()` emits for the same program.

use pmtest_difftest::corpus::{corpus_dir, load_corpus};
use pmtest_difftest::exec::{run_engine, EngineRun};
use pmtest_explain::explain_program;
use pmtest_obs::json::{self, JsonValue};

fn render_culprit(render: &str) -> Option<String> {
    let line = render.lines().find(|l| l.starts_with("culprit: "))?;
    Some(line.trim_start_matches("culprit: ").split(' ').next().unwrap().to_owned())
}

/// The `culprit` of the first FAIL line of the engine's JSON-lines report.
fn report_culprit(program: &pmtest_difftest::program::Program) -> Option<String> {
    let report =
        run_engine(program, &EngineRun::new(1, 1), 1).expect("engine accepts corpus program");
    for line in report.to_json_lines().lines() {
        let doc = json::parse(line).expect("report line parses");
        if doc.get("severity").and_then(JsonValue::as_str) == Some("FAIL") {
            return match doc.get("culprit") {
                Some(JsonValue::String(s)) => Some(s.clone()),
                _ => None,
            };
        }
    }
    None
}

#[test]
fn corpus_renders_match_goldens() {
    let bless = std::env::var_os("PMTEST_BLESS").is_some();
    let entries = load_corpus();
    assert!(!entries.is_empty(), "corpus must not be empty");
    for (name, program) in &entries {
        let stem = name.trim_end_matches(".txt");
        let render = explain_program(program, stem);
        let golden_path = corpus_dir().join(format!("{stem}.explain.txt"));
        if bless {
            std::fs::write(&golden_path, &render).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("missing golden {} ({e}); regenerate with PMTEST_BLESS=1", golden_path.display())
        });
        assert_eq!(render, golden, "{stem}: render drifted; PMTEST_BLESS=1 to regenerate");
    }
}

#[test]
fn highlighted_culprit_matches_the_engine_report() {
    for (name, program) in load_corpus() {
        let stem = name.trim_end_matches(".txt");
        let render = explain_program(&program, stem);
        let rendered = render_culprit(&render);
        let reported = report_culprit(&program);
        assert_eq!(
            rendered, reported,
            "{stem}: timeline culprit and Report::to_json_lines culprit disagree"
        );
        // Clean seeds must highlight nothing; failing seeds must locate.
        if render.contains("<- FAIL") {
            assert!(reported.is_some(), "{stem}: FAIL without a culprit");
            assert!(render.contains("<- culprit"), "{stem}: culprit row not highlighted");
        } else {
            assert!(reported.is_none(), "{stem}: clean render but reported culprit");
        }
    }
}
