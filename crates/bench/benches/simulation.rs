//! Criterion benches for the simulation substrate: trace generation and
//! end-to-end simulated cluster runs.
//!
//! `sim/406_job_trace/sia` is the engine's layer bench. Sia keeps each
//! job's curve, norm and model across rounds and reads each next jump
//! from the curve in O(1), so its `schedule()` is cheap and the engine's
//! own per-round work is a large share of the run. That work is advancing
//! progress in place and applying targets by job-table position; the
//! engine's id-sorted snapshot vector is itself the slice `schedule()`
//! receives, so no round rebuilds it. `sim/406_job_trace/rubick` is plan
//! search's layer bench: on the same trace, Rubick's `schedule()` is most
//! of the run. `sim/203_job_mt/rubick_refit_chaos` is the multi-tenant
//! one: the half-scale mt trace on four nodes with the online refit hook
//! and node failures, where many queued guaranteed jobs cannot reach
//! their GPU minimum and skip their search.

use criterion::{criterion_group, criterion_main, Criterion};
use rubick_bench::ZooBackend;
use rubick_core::{ModelRegistry, RubickScheduler, SiaScheduler, SynergyScheduler};
use rubick_model::ModelSpec;
use rubick_sim::{
    run_scenario, ChaosKnobs, Cluster, Engine, EngineConfig, JobSpec, ScenarioSpec, Scheduler,
    TraceKind,
};
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, TraceConfig};
use std::hint::black_box;
use std::sync::Arc;

/// Builds a fresh scheduler for one benchmark iteration.
type SchedulerFactory = Box<dyn Fn() -> Box<dyn Scheduler>>;

fn bench_trace_generation(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let config = TraceConfig::default(); // 406 jobs
    let mut group = c.benchmark_group("sim/trace_generation_406_jobs");
    group.sample_size(10);
    group.bench_function("base", |b| {
        b.iter(|| black_box(generate_base(&config, &oracle).len()))
    });
    group.finish();
}

/// Simulates `trace` on the A800 testbed and returns the finished-job
/// count.
fn run_trace(oracle: &TestbedOracle, scheduler: Box<dyn Scheduler>, trace: &[JobSpec]) -> usize {
    let mut engine = Engine::new(
        oracle,
        scheduler,
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    );
    engine.run(trace.to_vec()).jobs.len()
}

fn warm_registry(oracle: &TestbedOracle) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::from_oracle(oracle, &ModelSpec::zoo()).unwrap());
    registry.warm_curves(64, |s| s.default_batch);
    registry
}

fn bench_full_simulation(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = warm_registry(&oracle);
    let config = TraceConfig {
        base_jobs: 60,
        ..TraceConfig::default()
    };
    let trace = generate_base(&config, &oracle);

    let mut group = c.benchmark_group("sim/60_job_trace");
    group.sample_size(10);
    let cases: Vec<(&str, SchedulerFactory)> = vec![
        (
            "rubick",
            Box::new({
                let registry = Arc::clone(&registry);
                move || Box::new(RubickScheduler::new(Arc::clone(&registry))) as Box<dyn Scheduler>
            }),
        ),
        (
            "synergy",
            Box::new({
                let registry = Arc::clone(&registry);
                move || Box::new(SynergyScheduler::new(Arc::clone(&registry))) as Box<dyn Scheduler>
            }),
        ),
    ];
    for (name, make) in cases {
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_trace(&oracle, make(), &trace)))
        });
    }
    group.finish();
}

fn bench_base_trace(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = warm_registry(&oracle);
    let trace = generate_base(&TraceConfig::default(), &oracle); // 406 jobs

    let mut group = c.benchmark_group("sim/406_job_trace");
    group.sample_size(10);
    group.bench_function("sia", |b| {
        b.iter(|| {
            let sia = Box::new(SiaScheduler::new(Arc::clone(&registry)));
            black_box(run_trace(&oracle, sia, &trace))
        })
    });
    group.bench_function("rubick", |b| {
        b.iter(|| {
            let rubick = Box::new(RubickScheduler::new(Arc::clone(&registry)));
            black_box(run_trace(&oracle, rubick, &trace))
        })
    });
    group.finish();
}

/// A whole 203-job mt run on four nodes through the scenario harness, with
/// the refit hook at 0.15 and node failures at 0.02 per node-hour: the
/// repo benchmark's `mt-refit-chaos` cell at seed 2025. Not gated.
fn bench_mt_refit_chaos(c: &mut Criterion) {
    let spec = ScenarioSpec {
        trace: TraceKind::Mt,
        jobs: 203,
        nodes: 4,
        chaos: Some(ChaosKnobs {
            failure_rate_per_hour: 0.02,
            seed: 2025,
        }),
        refit: Some(0.15),
        ..ScenarioSpec::default()
    };
    let backend = ZooBackend::prepare([spec.seed]).unwrap();
    let mut group = c.benchmark_group("sim/203_job_mt");
    group.sample_size(10);
    group.bench_function("rubick_refit_chaos", |b| {
        b.iter(|| black_box(run_scenario(&spec, &backend).unwrap().report.jobs.len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_generation,
    bench_full_simulation,
    bench_base_trace,
    bench_mt_refit_chaos
);
criterion_main!(benches);
