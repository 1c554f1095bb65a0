//! Event-spine regression suite: the typed event stream is the single
//! observable record of a simulation, so it gets the same treatment as the
//! report summaries — a golden JSONL snapshot, a serialization round-trip,
//! and a proptest that folding the stream through [`ReportSink`]
//! reproduces the engine's own [`SimReport`].
//!
//! Regenerate the golden after an intentional taxonomy change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rubick-core --test event_stream
//! ```

use proptest::prelude::*;
use rubick_core::{ModelRegistry, RubickScheduler};
use rubick_model::prelude::*;
use rubick_obs::{EventSink, SimEvent, VecSink};
use rubick_sim::cluster::Cluster;
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::{JobClass, JobSpec};
use rubick_sim::metrics::SimReport;
use rubick_sim::tenant::TenantId;
use rubick_sim::ReportSink;
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, TraceConfig};
use std::path::PathBuf;
use std::sync::Arc;

const ORACLE_SEED: u64 = 2025;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("updated golden file {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "event stream drifted from {} — if the taxonomy or engine change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

/// Runs a Rubick simulation over `specs` recording every event, returning
/// the engine's report and the recorded stream. Fresh oracle + registry
/// per call so repeated runs can't leak online-refit state.
fn run_recording(specs: Vec<JobSpec>) -> (SimReport, Vec<SimEvent>) {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let mut engine = Engine::new(
        &oracle,
        Box::new(RubickScheduler::new(registry)),
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    );
    let mut sink = VecSink::default();
    let report = engine.run_with_sink(specs, &mut sink);
    (report, sink.events)
}

fn small_trace() -> Vec<JobSpec> {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    generate_base(
        &TraceConfig {
            base_jobs: 10,
            duration_hours: 1.0,
            ..TraceConfig::default()
        },
        &oracle,
    )
}

/// The JSONL rendering of a small deterministic trace, byte-for-byte.
/// This is the strongest pin in the suite: it freezes the taxonomy, the
/// field encoding, *and* the emission order of every state transition.
#[test]
fn event_jsonl_golden_is_stable() {
    let (_, events) = run_recording(small_trace());
    assert!(!events.is_empty(), "degenerate run: no events");
    let mut lines = String::new();
    for event in &events {
        lines.push_str(&event.to_jsonl());
        lines.push('\n');
    }
    check_golden("events.jsonl", &lines);
}

/// `from_jsonl ∘ to_jsonl` is the identity on every event a real
/// simulation produces.
#[test]
fn jsonl_roundtrip_is_identity() {
    let (_, events) = run_recording(small_trace());
    for event in &events {
        let line = event.to_jsonl();
        let parsed = SimEvent::from_jsonl(&line)
            .unwrap_or_else(|e| panic!("round-trip parse failed ({e}) on: {line}"));
        assert_eq!(&parsed, event, "round-trip changed the event: {line}");
    }
}

/// Arbitrary job workloads for the fold-equivalence property: a mix of
/// models, GPU demands (floored so every job has a feasible plan), classes
/// and submit times, all submitting early enough that every submit event
/// fires before the engine's time horizon.
fn any_specs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0usize..7, // model index into the zoo
            0u32..3,   // gpus = 2^k (floored per model below)
            prop::bool::ANY,
            0.0f64..1000.0,
        ),
        1..20,
    )
    .prop_map(|raw| {
        let zoo = ModelSpec::zoo();
        raw.into_iter()
            .enumerate()
            .filter_map(|(i, (m, gp, guaranteed, submit))| {
                let model = zoo[m].clone();
                let gpus = (1u32 << gp).max(if model.params >= 2.0e10 {
                    16
                } else if model.params >= 5.0e9 {
                    8
                } else {
                    1
                });
                let plan = enumerate_plans(
                    &model,
                    gpus,
                    model.default_batch,
                    &NodeShape::a800(),
                    &ClusterEnv::a800(),
                )
                .into_iter()
                .next()?;
                Some(JobSpec {
                    id: i as u64,
                    global_batch: model.default_batch,
                    submit_time: submit,
                    target_batches: 300,
                    requested: Resources::new(gpus, gpus * 6, gpus as f64 * 100.0),
                    initial_plan: plan,
                    class: if guaranteed {
                        JobClass::Guaranteed
                    } else {
                        JobClass::BestEffort
                    },
                    tenant: TenantId::default(),
                    model,
                })
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The report is a pure fold of the event stream: for any workload,
    /// replaying the recorded events through [`ReportSink`] reproduces the
    /// engine's returned [`SimReport`] exactly.
    #[test]
    fn folded_report_matches_engine_report(specs in any_specs()) {
        // Plan floors can drop every generated job; nothing to check then.
        if !specs.is_empty() {
            let (report, events) = run_recording(specs);
            let mut fold = ReportSink::new();
            for event in &events {
                fold.on_event(event);
            }
            let folded = fold.take_report(&report.scheduler);
            prop_assert_eq!(
                &folded, &report,
                "fold of {} events diverges from the engine report",
                events.len()
            );
        }
    }
}
