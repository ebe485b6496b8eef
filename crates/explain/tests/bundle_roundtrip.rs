//! End-to-end: a failing corpus program runs through a flight-recorder
//! engine, the emitted diagnosis bundle validates against the obs schema,
//! matches its committed golden byte for byte, loads back, and renders the
//! same culprit the direct program render highlights. Regenerate the
//! goldens with `PMTEST_BLESS=1 cargo test -p pmtest-explain --test
//! bundle_roundtrip`.

use std::path::PathBuf;

use pmtest_core::{BundleReason, Engine, EngineConfig, TelemetryConfig};
use pmtest_difftest::corpus::load_corpus;
use pmtest_difftest::exec::model_for;
use pmtest_explain::{explain_bundle, explain_program, load_bundle};
use pmtest_obs::bundle::{is_bundle, validate_bundle};

fn recorder_engine(program: &pmtest_difftest::program::Program) -> Engine {
    Engine::new(EngineConfig {
        model: model_for(program.dialect),
        workers: 1,
        telemetry: TelemetryConfig {
            recorder_capacity: program.ops.len().max(1),
            ..TelemetryConfig::recorder_only()
        },
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
        let engine = recorder_engine(&program);
        engine.submit(program.trace(0)).unwrap();
        let report = engine.take_report();
        let mut bundles = engine.take_bundles();
        if report.fail_count() == 0 {
            assert!(bundles.is_empty(), "{name}: clean program must not auto-bundle");
            bundles = engine.capture_bundle();
            assert_eq!(bundles.len(), 1, "{name}: manual capture");
            assert_eq!(bundles[0].reason, BundleReason::Manual);
        } else {
            assert_eq!(bundles.len(), 1, "{name}: one ERROR bundle per failing trace");
            assert_eq!(bundles[0].reason, BundleReason::Error);
            assert!(bundles[0].firing.is_some());
        }
        let text = bundles[0].to_json_lines();
        assert!(is_bundle(&text), "{name}");
        validate_bundle(&text).unwrap_or_else(|e| panic!("{name}: emitted bundle invalid: {e}"));
        check_golden(&format!("bundle_{}.jsonl", name.trim_end_matches(".txt")), &text);

        // The loaded window replays to the same number of entries (the
        // recorder saw the whole trace: capacity >= ops).
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
