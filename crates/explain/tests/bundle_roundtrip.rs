//! End-to-end: a corpus program runs through an engine at the `Bundles`
//! telemetry level, the emitted diagnosis bundle validates against the obs
//! schema, matches its committed golden byte for byte — as does the
//! engine-free re-check of the same trace — loads back, and renders the
//! same culprit the direct program render highlights. A clean program
//! files no engine bundle; its golden is the engine-free manual capture.
//! Regenerate the goldens with
//! `PMTEST_BLESS=1 cargo test -p pmtest-explain --test bundle_roundtrip`.

use std::path::PathBuf;

use pmtest_core::{
    BundleReason, DiagnosisBundle, Engine, EngineConfig, TelemetryConfig, TelemetryLevel,
};
use pmtest_difftest::corpus::load_corpus;
use pmtest_difftest::exec::{capture_diagnosis_bundle, model_for};
use pmtest_explain::{explain_bundle, explain_program, load_bundle};
use pmtest_obs::bundle::{is_bundle, validate_bundle};

fn bundles_engine(program: &pmtest_difftest::program::Program) -> Engine {
    Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 1,
        telemetry: TelemetryConfig::at(TelemetryLevel::Bundles),
        ..EngineConfig::default()
    })
}

/// Compares `got` with `tests/golden/<name>`, or rewrites the golden under
/// `PMTEST_BLESS`.
fn check_golden(name: &str, got: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let path = dir.join(name);
    if std::env::var_os("PMTEST_BLESS").is_some() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); regenerate with PMTEST_BLESS=1", path.display())
    });
    assert_eq!(got, golden, "{name}: bundle drifted; PMTEST_BLESS=1 to regenerate");
}

#[test]
fn corpus_bundles_validate_and_render_the_same_culprit() {
    for (name, program) in load_corpus() {
        let engine = bundles_engine(&program);
        engine.submit(program.trace(0)).unwrap();
        let report = engine.take_report();
        let bundles = engine.take_bundles();
        // The engine-free re-check: an ERROR bundle for a failing program,
        // a manual one for a clean program.
        let text = capture_diagnosis_bundle(&program);
        if report.fail_count() == 0 {
            assert!(bundles.is_empty(), "{name}: clean program must not auto-bundle");
            assert!(text.contains("\"reason\":\"manual\""), "{name}: manual capture");
        } else {
            assert_eq!(bundles.len(), 1, "{name}: one ERROR bundle per failing trace");
            assert_eq!(bundles[0].reason, BundleReason::Error);
            assert!(bundles[0].firing.is_some());
            // The engine's bundle and the engine-free re-check agree.
            assert_eq!(bundles[0].to_json_lines(), text, "{name}: re-check differs");
        }
        assert!(is_bundle(&text), "{name}");
        validate_bundle(&text).unwrap_or_else(|e| panic!("{name}: emitted bundle invalid: {e}"));
        let golden = format!("bundle_{}.jsonl", name.trim_end_matches(".txt"));
        check_golden(&golden, &text);

        // The loaded steps replay to the same number of entries (every
        // corpus trace fits the bundle's step window).
        let loaded = load_bundle(&text).unwrap();
        assert_eq!(loaded.trace.len(), program.trace(0).len(), "{name}");

        // And the bundle render highlights the same culprit line as the
        // direct program render.
        let direct = explain_program(&program, "direct");
        let via_bundle = explain_bundle(&text, "bundle").unwrap();
        let culprit_of = |render: &str| {
            render
                .lines()
                .find(|l| l.starts_with("culprit: "))
                .map(|l| l.split(' ').nth(1).unwrap().to_owned())
        };
        assert_eq!(culprit_of(&direct), culprit_of(&via_bundle), "{name}");
    }
}

/// A trace longer than the engine's bundle window: the write a failing
/// check needs lies before the window. The render marks the check FAIL from
/// the diagnostics the bundle recorded, says which steps the window holds,
/// and opens the timeline on the recorded start state: the fences carry the
/// epochs the whole-trace render gives them, and the write before the
/// window is drawn as an interval still open at the failing check.
#[test]
fn windowed_bundle_renders_the_recorded_verdict() {
    let text = format!("dialect x86\nwrite 0 8\n{}check_persist 0 8\n", "fence\n".repeat(68));
    let program = pmtest_difftest::program::Program::from_text(&text).unwrap();
    let engine = bundles_engine(&program);
    engine.submit(program.trace(0)).unwrap();
    let bundles = engine.take_bundles();
    assert_eq!(bundles.len(), 1);
    assert_eq!(bundles[0].steps.first().map(|s| s.index), Some(6), "the write left the window");
    let bundle = bundles[0].to_json_lines();
    validate_bundle(&bundle).unwrap();
    let render = explain_bundle(&bundle, "long").unwrap();
    let check = render.lines().find(|l| l.contains("check_persist 0 8")).unwrap();
    assert!(check.starts_with("[69]"), "{check}");
    assert!(check.ends_with("|    ?     |  <- FAIL not_persisted"), "{check}");
    assert!(render.contains("window: steps 6..=69 of the trace"), "{render}");
    assert!(render.contains("epochs 5..68"), "{render}");
    assert!(render.contains("culprit: difftest:0 (not_persisted @ difftest:69)"), "{render}");

    // Every fence row carries the whole-trace render's epoch labels.
    let fences = |render: &str| -> Vec<String> {
        render
            .lines()
            .filter(|l| l.starts_with(" -- ["))
            .map(|l| l.trim_end_matches('-').to_owned())
            .collect()
    };
    let whole = fences(&explain_program(&program, "long"));
    assert_eq!(fences(&render), whole[5..], "fences of steps 6..=68");
    assert_eq!(whole[5].trim(), "-- [6] fence @ difftest:6: epoch 5 -> 6");

    // The step-0 write is an interval open across every epoch of the window.
    let write = render.lines().find(|l| l.starts_with("[<6]  write 0 8")).unwrap();
    assert!(write.ends_with("=>|  <- culprit"), "{write}");
    let grid = &write[write.find('|').unwrap()..write.rfind('|').unwrap()];
    assert!(grid.chars().all(|c| c == '|' || c == '=' || c == '>'), "{write}");
}

/// A writeback in flight before the window: the window's first fence closes
/// the carried interval, as it did in the trace.
#[test]
fn a_writeback_in_flight_closes_at_the_windows_first_fence() {
    let text =
        format!("dialect x86\nwrite 0 8\nflush 0 8\n{}check_persist 0 8\n", "fence\n".repeat(63));
    let program = pmtest_difftest::program::Program::from_text(&text).unwrap();
    let model = model_for(program.dialect);
    let bundle =
        DiagnosisBundle::recheck(model.as_ref(), &program.trace(0), BundleReason::Manual, 64);
    assert_eq!(bundle.steps[0].index, 2);
    assert!(bundle.start.as_ref().is_some_and(|s| s.open[0].flushed));
    let render = explain_bundle(&bundle.to_json_lines(), "flushed").unwrap();
    let write = render.lines().find(|l| l.starts_with("[<2]  write 0 8")).unwrap();
    assert!(write.contains("|[=========|=========]|          |"), "{write}");
    assert!(!write.contains('>'), "closed, not open: {write}");
    let check = render.lines().find(|l| l.contains("check_persist 0 8")).unwrap();
    assert!(check.ends_with("<- pass"), "{check}");
}
