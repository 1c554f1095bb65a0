//! Overhead budget for the event spine: running the engine with richer
//! sinks attached must stay within noise of the `NullSink` baseline, and
//! the report fold itself (the marginal cost every run pays for event
//! emission) must be under 2% of engine wall-time.
//!
//! This bench uses a custom `main` instead of `criterion_main!` so it can
//! *assert* the budget after measuring — a regression fails the bench run
//! instead of silently shipping a slower engine.
//!
//! `events/parse_line` and `events/render_line` time the JSONL codec per
//! event line (`SimEvent::from_jsonl` and `SimEvent::to_jsonl`), cycling
//! through the stream a Sia run of the 406-job base trace emits. They
//! carry no budget.

use criterion::Criterion;
use rubick_core::{ModelRegistry, SiaScheduler, SynergyScheduler};
use rubick_model::ModelSpec;
use rubick_obs::{EventSink, JsonlSink, NullSink, SimEvent, VecSink};
use rubick_sim::{Cluster, Engine, EngineConfig, JobSpec, ReportSink};
use rubick_testbed::TestbedOracle;
use rubick_trace::{generate_base, TraceConfig};
use std::hint::black_box;
use std::sync::Arc;

fn engine_for<'a>(oracle: &'a TestbedOracle, registry: &Arc<ModelRegistry>) -> Engine<'a> {
    Engine::new(
        oracle,
        Box::new(SynergyScheduler::new(Arc::clone(registry))),
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    )
}

fn bench_events(c: &mut Criterion, oracle: &TestbedOracle, trace: &[JobSpec]) {
    let registry = Arc::new(ModelRegistry::from_oracle(oracle, &ModelSpec::zoo()).unwrap());
    registry.warm_curves(64, |s| s.default_batch);

    let mut group = c.benchmark_group("events");
    group.sample_size(10);
    group.bench_function("run_null", |b| {
        b.iter(|| {
            let mut engine = engine_for(oracle, &registry);
            let mut sink = NullSink;
            black_box(engine.run_with_sink(trace.to_vec(), &mut sink).jobs.len())
        })
    });
    group.bench_function("run_jsonl_devnull", |b| {
        b.iter(|| {
            let mut engine = engine_for(oracle, &registry);
            let mut sink = JsonlSink::new(std::io::sink());
            engine.run_with_sink(trace.to_vec(), &mut sink);
            black_box(sink.events_written())
        })
    });

    // The marginal cost of event emission: replaying a recorded stream
    // through the report fold (what every run pays on top of pure engine
    // work).
    let mut recorded = VecSink::default();
    engine_for(oracle, &registry).run_with_sink(trace.to_vec(), &mut recorded);
    let events: Vec<SimEvent> = recorded.events;
    group.bench_function("fold_replay", |b| {
        b.iter(|| {
            let mut fold = ReportSink::new();
            for event in &events {
                fold.on_event(event);
            }
            black_box(fold.take_report("synergy").jobs.len())
        })
    });
    group.finish();
}

/// Per-line codec costs over a captured base-trace Sia stream.
fn bench_codec(c: &mut Criterion, oracle: &TestbedOracle) {
    let registry = Arc::new(ModelRegistry::from_oracle(oracle, &ModelSpec::zoo()).unwrap());
    let trace = generate_base(&TraceConfig::default(), oracle);
    let mut recorded = VecSink::default();
    Engine::new(
        oracle,
        Box::new(SiaScheduler::new(registry)),
        Cluster::a800_testbed(),
        vec![],
        EngineConfig::default(),
    )
    .run_with_sink(trace, &mut recorded);
    let events = recorded.events;
    let lines: Vec<String> = events.iter().map(SimEvent::to_jsonl).collect();

    let mut group = c.benchmark_group("events");
    group.sample_size(10);
    let mut next = 0;
    group.bench_function("parse_line", |b| {
        b.iter(|| {
            next = (next + 1) % lines.len();
            black_box(SimEvent::from_jsonl(&lines[next]).is_ok())
        })
    });
    let mut next = 0;
    group.bench_function("render_line", |b| {
        b.iter(|| {
            next = (next + 1) % events.len();
            black_box(events[next].to_jsonl().len())
        })
    });
    group.finish();
}

fn main() {
    let oracle = TestbedOracle::new(0);
    let config = TraceConfig {
        base_jobs: 40,
        ..TraceConfig::default()
    };
    let trace = generate_base(&config, &oracle);

    let mut c = Criterion::default();
    bench_events(&mut c, &oracle, &trace);
    bench_codec(&mut c, &oracle);

    let min_ns = |id: &str| {
        c.records()
            .iter()
            .find(|r| r.id == format!("events/{id}"))
            .unwrap_or_else(|| panic!("missing record events/{id}"))
            .min_ns
    };
    let engine = min_ns("run_null");
    let fold = min_ns("fold_replay");
    assert!(
        fold * 50.0 <= engine,
        "event emission overhead above the 2% budget: fold replay {fold:.0} ns \
         vs engine {engine:.0} ns ({:.2}%)",
        fold / engine * 100.0
    );
    println!(
        "event emission overhead: {:.3}% of engine wall-time (budget 2%)",
        fold / engine * 100.0
    );
    c.save_summary("events");
}
