//! Criterion benches for the simulation substrate: trace generation and
//! end-to-end simulated cluster runs.

use criterion::{criterion_group, criterion_main, Criterion};
use rubick_core::{ModelRegistry, RubickScheduler, SynergyScheduler};
use rubick_model::ModelSpec;
use rubick_sim::{Cluster, Engine, EngineConfig, Scheduler};
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

fn bench_full_simulation(c: &mut Criterion) {
    let oracle = TestbedOracle::new(0);
    let registry = Arc::new(ModelRegistry::from_oracle(&oracle, &ModelSpec::zoo()).unwrap());
    registry.warm_curves(64, |s| s.default_batch);
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
            b.iter(|| {
                let mut engine = Engine::new(
                    &oracle,
                    make(),
                    Cluster::a800_testbed(),
                    vec![],
                    EngineConfig::default(),
                );
                black_box(engine.run(trace.clone()).jobs.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_trace_generation, bench_full_simulation);
criterion_main!(benches);
