//! Chaos regression suite: scripted fault scenarios against the full
//! Rubick policy stack. Pins (a) the exact degraded-mode event stream as a
//! golden JSONL snapshot, (b) same-seed determinism across thread counts
//! via proptest, (c) the headline acceptance behaviour — Rubick *re-plans*
//! jobs evicted by a node failure while plan-blind baselines only
//! re-place them — and (d) the fault-metrics fold.
//!
//! Regenerate the golden after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rubick-core --test chaos
//! ```

use proptest::prelude::*;
use rubick_chaos::{ChaosConfig, FaultPlan};
use rubick_core::{AntManScheduler, ModelRegistry, RubickScheduler, SiaScheduler};
use rubick_model::prelude::ModelSpec;
use rubick_obs::{EventSink, FaultMetricsSink, SimEvent, VecSink};
use rubick_sim::cluster::Cluster;
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::job::JobSpec;
use rubick_sim::scheduler::Scheduler;
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, TraceConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const ORACLE_SEED: u64 = 2025;

/// One node dies mid-trace and comes back much later; another node
/// straggles for the whole run. Enough churn to evict running jobs and
/// force every policy into degraded-mode rescheduling.
const SCENARIO: &str = "restart-penalty-secs 90\n\
                        straggle 0 0.6\n\
                        fail 1 2000\n\
                        recover 1 9000\n";

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
        "chaos event stream drifted from {} — if the fault-model change is \
         intentional, regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn scripted_plan() -> FaultPlan {
    let cfg = ChaosConfig::parse(SCENARIO).unwrap();
    FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap()
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

fn rubick() -> Box<dyn Scheduler> {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    Box::new(RubickScheduler::new(registry))
}

/// Runs `scheduler` over the small trace with `plan` injected, recording
/// the full event stream.
fn run_chaos(scheduler: Box<dyn Scheduler>, plan: FaultPlan) -> Vec<SimEvent> {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let mut engine = Engine::new(
        &oracle,
        scheduler,
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    )
    .with_chaos(plan);
    let mut sink = VecSink::default();
    engine.run_with_sink(small_trace(), &mut sink);
    sink.events
}

/// For every job evicted by a fault, the plan it held at eviction and the
/// plan of its restart (`JobRestarted`), in stream order.
fn evicted_vs_restart_plans(events: &[SimEvent]) -> Vec<(u64, String, String)> {
    let mut evicted: BTreeMap<u64, String> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        match e {
            SimEvent::JobPreemptedByFault { job, plan, .. } => {
                evicted.insert(*job, plan.clone());
            }
            SimEvent::JobRestarted { job, plan, .. } => {
                if let Some(old) = evicted.remove(job) {
                    out.push((*job, old, plan.clone()));
                }
            }
            _ => {}
        }
    }
    out
}

/// The degraded-mode event stream of the scripted scenario under Rubick,
/// byte-for-byte. Freezes the fault taxonomy, the eviction order, and the
/// interleaving of churn with ordinary scheduling events.
#[test]
fn chaos_event_jsonl_golden_is_stable() {
    let events = run_chaos(rubick(), scripted_plan());
    assert!(
        events
            .iter()
            .any(|e| matches!(e, SimEvent::NodeFailed { .. })),
        "scenario produced no node failure"
    );
    let mut lines = String::new();
    for event in &events {
        lines.push_str(&event.to_jsonl());
        lines.push('\n');
    }
    check_golden("chaos_events.jsonl", &lines);
}

/// Sia under the scripted scenario, byte-for-byte. The node failure
/// shrinks the schedulable capacity Sia water-fills against — and with it
/// the GPU range of every curve it asks for — and the recovery grows it
/// back, so this pins Sia's curves and allocations across both changes.
#[test]
fn sia_chaos_event_jsonl_golden_is_stable() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let events = run_chaos(Box::new(SiaScheduler::new(registry)), scripted_plan());
    let failed_at = events
        .iter()
        .find_map(|e| match e {
            SimEvent::NodeFailed { at, .. } => Some(*at),
            _ => None,
        })
        .expect("scenario produced no node failure");
    assert!(
        events.iter().any(
            |e| matches!(e, SimEvent::RoundStarted { at, active_jobs, .. }
                if *at > failed_at && *active_jobs > 0)
        ),
        "no Sia round ran after the node failure"
    );
    let mut lines = String::new();
    for event in &events {
        lines.push_str(&event.to_jsonl());
        lines.push('\n');
    }
    check_golden("sia_chaos_events.jsonl", &lines);
}

/// The acceptance criterion of the fault subsystem: after a node failure,
/// Rubick treats rescheduling as a fresh plan search and restarts at least
/// one evicted job under a *different* execution plan, while AntMan — which
/// never touches plans — restarts every evicted job under the exact plan it
/// was running.
#[test]
fn rubick_replans_evicted_jobs_while_antman_replaces() {
    let rubick_pairs = evicted_vs_restart_plans(&run_chaos(rubick(), scripted_plan()));
    assert!(
        !rubick_pairs.is_empty(),
        "no Rubick job was fault-evicted and restarted"
    );
    assert!(
        rubick_pairs.iter().any(|(_, old, new)| old != new),
        "Rubick restarted every evicted job with its old plan: {rubick_pairs:?}"
    );

    let antman_pairs = evicted_vs_restart_plans(&run_chaos(
        Box::new(AntManScheduler::new()),
        scripted_plan(),
    ));
    assert!(
        !antman_pairs.is_empty(),
        "no AntMan job was fault-evicted and restarted"
    );
    assert!(
        antman_pairs.iter().all(|(_, old, new)| old == new),
        "AntMan must re-place, never re-plan: {antman_pairs:?}"
    );
}

/// Folding the chaos stream through [`FaultMetricsSink`] accounts the
/// scripted outage: one failure, one recovery, at least one eviction and
/// restart, and a nonzero goodput loss.
#[test]
fn fault_metrics_fold_accounts_the_outage() {
    let events = run_chaos(rubick(), scripted_plan());
    let mut metrics = FaultMetricsSink::new();
    for e in &events {
        metrics.on_event(e);
    }
    assert!(metrics.any_faults());
    assert_eq!(metrics.node_failures, 1);
    assert_eq!(metrics.node_recoveries, 1);
    assert!((metrics.node_downtime_secs - 7000.0).abs() < 1e-6);
    assert!(metrics.fault_evictions >= 1);
    assert!(metrics.restarts >= 1);
    assert!(metrics.goodput_lost_gpu_seconds > 0.0);
    assert_eq!(metrics.nodes_still_down(), 0);
    assert_eq!(metrics.jobs_awaiting_restart(), 0);
    let summary = metrics.summary();
    assert!(summary.contains("node_failures=1"), "summary: {summary}");
}

/// Arbitrary random chaos configurations: Poisson node churn, stragglers
/// and transient launch failures all enabled.
fn any_chaos() -> impl Strategy<Value = ChaosConfig> {
    (
        0u64..1_000,
        0.5f64..4.0,
        600.0f64..3600.0,
        0.0f64..0.5,
        0.0f64..0.3,
    )
        .prop_map(|(seed, rate, repair, frac, launch)| ChaosConfig {
            seed,
            node_failure_rate_per_hour: rate,
            node_repair_secs: repair,
            straggler_frac: frac,
            straggler_slowdown: 0.5,
            launch_failure_prob: launch,
            ..ChaosConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed + same config ⇒ byte-identical event stream on every
    /// run: the injected faults are compiled ahead of time and the
    /// launch-failure coin is a pure function of (seed, job, attempt).
    #[test]
    fn same_seed_streams_are_identical(cfg in any_chaos()) {
        let plan = FaultPlan::compile(&cfg, 8, EngineConfig::default().max_time).unwrap();
        let first = run_chaos(rubick(), plan.clone());
        let second = run_chaos(rubick(), plan);
        prop_assert_eq!(first.len(), second.len(), "event counts diverge");
        for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
            prop_assert_eq!(a, b, "event {} diverges between runs", i);
        }
    }
}
