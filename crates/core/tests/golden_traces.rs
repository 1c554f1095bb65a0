//! Golden-file regression tests: fixed trace in, fixed `SimReport` summary
//! out. Any change to the scheduling pipeline that shifts these numbers is
//! either a bug or an intentional behavior change — in the latter case
//! regenerate the goldens with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rubick-core --test golden_traces
//! ```

use rubick_core::{ModelRegistry, RubickScheduler, SiaScheduler};
use rubick_model::prelude::ModelSpec;
use rubick_obs::VecSink;
use rubick_sim::cluster::Cluster;
use rubick_sim::engine::{Engine, EngineConfig};
use rubick_sim::metrics::SimReport;
use rubick_sim::tenant::Tenant;
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, multi_tenant_trace, TraceConfig};
use std::path::PathBuf;
use std::sync::Arc;

const ORACLE_SEED: u64 = 2025;

fn trace_config() -> TraceConfig {
    TraceConfig {
        base_jobs: 48,
        duration_hours: 4.0,
        ..TraceConfig::default()
    }
}

/// Renders the report fields that matter into a stable, human-diffable
/// summary. Floats are printed with fixed precision: the simulation is
/// deterministic, so these digits are exact, not flaky.
fn summarize(report: &SimReport) -> String {
    let reconfigs: u32 = report.jobs.iter().map(|j| j.reconfig_count).sum();
    format!(
        "scheduler: {}\n\
         jobs: {}\n\
         unfinished: {}\n\
         rounds: {}\n\
         infeasible_assignments: {}\n\
         avg_jct_s: {:.3}\n\
         p99_jct_s: {:.3}\n\
         makespan_s: {:.3}\n\
         gpu_hours: {:.3}\n\
         reconfigs: {}\n\
         sla_attainment: {:.4}\n",
        report.scheduler,
        report.jobs.len(),
        report.unfinished.len(),
        report.rounds,
        report.infeasible_assignments,
        report.avg_jct(),
        report.p99_jct(),
        report.makespan,
        report.gpu_hours(),
        reconfigs,
        report.sla_attainment()
    )
}

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
        "report summary drifted from {} — if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    );
}

fn run_rubick(jobs: Vec<rubick_sim::job::JobSpec>, tenants: Vec<Tenant>) -> SimReport {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let mut engine = Engine::new(
        &oracle,
        Box::new(RubickScheduler::new(registry)),
        Cluster::a800_testbed(),
        tenants,
        EngineConfig::default(),
    );
    engine.run(jobs)
}

#[test]
fn base_trace_summary_is_stable() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let jobs = generate_base(&trace_config(), &oracle);
    assert!(!jobs.is_empty());
    let report = run_rubick(jobs, vec![]);
    check_golden("base_trace.txt", &summarize(&report));
}

/// AntMan's summary over the multi-tenant trace pins the baseline's
/// resource-guarantee behaviour — including the multi-eviction GPU-tie
/// rule (most recently committed best-effort job is evicted first) — at
/// trace scale, not just in the unit scenario.
#[test]
fn antman_trace_summary_is_stable() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let (jobs, tenants) = multi_tenant_trace(&trace_config(), &oracle);
    let mut engine = Engine::new(
        &oracle,
        Box::new(rubick_core::AntManScheduler::new()),
        Cluster::a800_testbed(),
        tenants,
        EngineConfig::default(),
    );
    let report = engine.run(jobs);
    check_golden("antman_trace.txt", &summarize(&report));
}

#[test]
fn multi_tenant_trace_summary_is_stable() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let (jobs, tenants) = multi_tenant_trace(&trace_config(), &oracle);
    assert!(!jobs.is_empty());
    assert!(!tenants.is_empty());
    let report = run_rubick(jobs, tenants);
    check_golden("multi_tenant.txt", &summarize(&report));
}

/// Sia over the base trace: the report summary plus the full JSONL event
/// stream. Sia's water-filling decides every job's GPU count from the
/// fitted curves alone, so the stream pins each round's allocation, not
/// just the end-of-run averages.
#[test]
fn sia_trace_golden_is_stable() {
    let oracle = TestbedOracle::new(ORACLE_SEED);
    let jobs = generate_base(&trace_config(), &oracle);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    let mut engine = Engine::new(
        &oracle,
        Box::new(SiaScheduler::new(registry)),
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    );
    let mut sink = VecSink::default();
    let report = engine.run_with_sink(jobs, &mut sink);
    check_golden("sia_trace.txt", &summarize(&report));
    let mut lines = String::new();
    for event in &sink.events {
        lines.push_str(&event.to_jsonl());
        lines.push('\n');
    }
    check_golden("sia_events.jsonl", &lines);
}
