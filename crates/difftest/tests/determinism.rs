//! Determinism regression: the same seed + program must yield
//! byte-identical sorted reports across every worker count, batch size and
//! telemetry level. Anything weaker means a replayed corpus entry might not
//! reproduce.

use pmtest_core::{TelemetryConfig, TelemetryLevel};
use pmtest_difftest::exec::{
    build_engine, model_for, run_engine, submit_replicas, EngineRun, REPLICAS,
};
use pmtest_difftest::gen::{generate, GenConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const BATCH_CAPACITIES: [usize; 2] = [1, 32];

/// Every telemetry level, in order.
const LEVELS: [TelemetryLevel; 4] =
    [TelemetryLevel::Off, TelemetryLevel::Bundles, TelemetryLevel::Profile, TelemetryLevel::Full];

#[test]
fn reports_are_byte_identical_across_workers_and_batching() {
    let cfg = GenConfig::default();
    for seed in [0u64, 7, 42, 1234, 99999] {
        let program = generate(seed, &cfg);
        let baseline = run_engine(&program, &EngineRun::new(1, 1), REPLICAS).expect("baseline run");
        for workers in WORKER_COUNTS {
            for batch_capacity in BATCH_CAPACITIES {
                let mut profiles = Vec::new();
                for level in LEVELS {
                    let run = EngineRun {
                        workers,
                        batch_capacity,
                        telemetry: TelemetryConfig::at(level),
                    };
                    let engine = build_engine(model_for(program.dialect), &run);
                    submit_replicas(&engine, &program, batch_capacity, REPLICAS, 0)
                        .expect("matrix run");
                    assert_eq!(
                        engine.take_report(),
                        baseline,
                        "seed {seed}: {workers} workers / batch {batch_capacity} / telemetry \
                         {level:?} diverged from 1/1/off"
                    );
                    if level >= TelemetryLevel::Profile {
                        profiles.push(engine.profile());
                    }
                }
                let [profile, full] = &profiles[..] else {
                    panic!("two profiling levels expected")
                };
                assert_eq!(profile.traces, REPLICAS, "seed {seed}: every replica profiled");
                assert_eq!(
                    profile, full,
                    "seed {seed}: {workers} workers / batch {batch_capacity}: profile at \
                     Profile differs from Full"
                );
            }
        }
    }
}

#[test]
fn repeated_runs_of_the_same_cell_are_identical() {
    let program = generate(7, &GenConfig::default());
    let run = EngineRun::new(4, 8);
    let a = run_engine(&program, &run, REPLICAS).expect("first run");
    let b = run_engine(&program, &run, REPLICAS).expect("second run");
    assert_eq!(a, b);
}
