//! Sweep-level golden tests: the committed smoke grid
//! (`examples/sweeps/smoke.toml`, 2 traces x 2 schedulers x chaos
//! on/off) must render byte-for-byte the same CSV and JSONL forever.
//! Regenerate after an intentional behavior change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rubick-bench --test sweep_golden
//! ```
//!
//! A second pass runs the same cells on two worker threads and asserts
//! the rendered bytes are identical — the `--parallelism` knob must
//! never reach the output.

mod sweep_support;

use rubick_sim::harness::sweep::{render_csv, render_jsonl, run_cells};
use rubick_sim::{run_scenario, Engine, ScenarioSpec};
use rubick_testbed::TestbedOracle;
use sweep_support::{backend_for, check_golden, smoke_spec};

#[test]
fn smoke_sweep_renders_stable_csv_and_jsonl() {
    let spec = smoke_spec();
    let cells = spec.expand().expect("smoke grid expands");
    assert_eq!(cells.len(), 8, "2 traces x 2 schedulers x 2 chaos rates");
    let backend = backend_for(&cells);
    let outcomes = run_cells(&cells, &backend, None).expect("smoke sweep runs");
    check_golden("sweep_smoke.csv", &render_csv(&outcomes));
    check_golden("sweep_smoke.jsonl", &render_jsonl(&spec.name, &outcomes));
}

#[test]
fn smoke_sweep_is_byte_identical_on_two_workers() {
    let cells = smoke_spec().expand().expect("smoke grid expands");
    let backend = backend_for(&cells);
    let sequential = run_cells(&cells, &backend, None).expect("sequential sweep");
    let threaded = run_cells(&cells, &backend, Some(2)).expect("threaded sweep");
    assert_eq!(render_csv(&sequential), render_csv(&threaded));
}

/// The harness is sugar, not a second engine: running a spec through
/// [`run_scenario`] must equal hand-wiring the same oracle, workload,
/// scheduler and engine config — the exact setup `run`/`compare` used
/// before the dedup.
#[test]
fn harness_matches_hand_wired_engine() {
    use rubick_sim::ScenarioBackend as _;

    let spec = ScenarioSpec {
        scheduler: "sia".to_string(),
        jobs: 10,
        duration_hours: 2.0,
        seed: 7,
        ..ScenarioSpec::default()
    };
    let backend = backend_for(std::slice::from_ref(&spec));
    let outcome = run_scenario(&spec, &backend).expect("harness run");

    let oracle = TestbedOracle::new(spec.seed);
    let (jobs, tenants) = backend.workload(&spec, &oracle).unwrap();
    let scheduler = backend.scheduler(&spec).unwrap();
    let mut engine = Engine::new(
        &oracle,
        scheduler,
        spec.cluster(),
        tenants,
        spec.engine_config(),
    );
    let manual = engine.run(jobs);

    assert_eq!(outcome.report.jobs.len(), manual.jobs.len());
    assert_eq!(outcome.report.rounds, manual.rounds);
    assert_eq!(outcome.report.avg_jct(), manual.avg_jct());
    assert_eq!(outcome.report.makespan, manual.makespan);
    assert!(outcome.faults.is_none(), "no chaos knobs, no fault fold");
}
