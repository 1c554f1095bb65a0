//! Criterion benches for the performance-model layer: prediction cost,
//! plan enumeration, sensitivity-curve construction and model fitting.
//!
//! These back the paper's claim that the model-driven policy is cheap:
//! curves are "computed in parallel or even prior to the scheduling, and
//! then cached for reuse" (§5.2).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rubick_model::fit::{fit_perf_params, refit_params, DataPoint, FitOptions};
use rubick_model::prelude::*;
use rubick_model::reference;
use std::hint::black_box;

fn bench_iter_time(c: &mut Criterion) {
    let spec = ModelSpec::gpt2_xl();
    let params = PerfParams::default();
    let env = ClusterEnv::a800();
    let placement = Placement::spread(16, 8, 192, 3200.0);
    let plan = ExecutionPlan::three_d(2, 4, 2, 8);
    c.bench_function("model/iter_time_3d", |b| {
        b.iter(|| {
            black_box(params.iter_time(
                black_box(&spec),
                black_box(&plan),
                16,
                black_box(&placement),
                &env,
            ))
        })
    });
}

fn bench_enumerate(c: &mut Criterion) {
    let shape = NodeShape::a800();
    let env = ClusterEnv::a800();
    let mut group = c.benchmark_group("model/enumerate_plans");
    for gpus in [4u32, 16, 64] {
        let spec = ModelSpec::llama2_7b();
        group.bench_with_input(BenchmarkId::from_parameter(gpus), &gpus, |b, &g| {
            b.iter(|| black_box(enumerate_plans(&spec, g, 32, &shape, &env).len()))
        });
    }
    group.finish();
}

fn bench_curve(c: &mut Criterion) {
    let model = ThroughputModel::new(
        ModelSpec::gpt2_xl(),
        PerfParams::default(),
        ClusterEnv::a800(),
        NodeShape::a800(),
    );
    let mut group = c.benchmark_group("model/sensitivity_curve");
    group.sample_size(20);
    for max in [8u32, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(max), &max, |b, &m| {
            b.iter(|| black_box(SensitivityCurve::for_gpus(&model, 16, m)))
        });
    }
    group.finish();
}

/// Cold vs warm `best_plan`: the naive reference re-enumerates and
/// re-checks feasibility per plan on every call; the optimized path pays
/// enumeration once into a [`PlanSetCache`] and then scores the cached set
/// through the unchecked throughput fast path; a [`BestPlanMemo`] hit
/// through a resolved row skips the scoring as well, and a miss one CPU
/// step away from a stored class scores only the offload plans.
fn bench_best_plan(c: &mut Criterion) {
    let batch = 32u32;
    let mut group = c.benchmark_group("model/best_plan");
    // llama2-7b has a wide feasible set (scoring-bound); llama-30b is
    // memory-constrained, so most of the naive call is enumeration and
    // feasibility checking that the warm cache skips entirely.
    for (spec, gpus) in [
        (ModelSpec::llama2_7b(), 8u32),
        (ModelSpec::llama2_7b(), 16),
        (ModelSpec::llama_30b(), 16),
    ] {
        let model = ThroughputModel::new(
            spec,
            PerfParams::default(),
            ClusterEnv::a800(),
            NodeShape::a800(),
        );
        let tag = format!("{}/{gpus}", model.spec.name);
        let placement = Placement::packed(gpus, &model.shape);
        group.bench_with_input(BenchmarkId::new("naive_cold", &tag), &gpus, |b, _| {
            b.iter(|| black_box(reference::best_plan_naive(&model, batch, &placement)))
        });
        group.bench_with_input(BenchmarkId::new("planset_cold", &tag), &gpus, |b, _| {
            b.iter(|| {
                let cache = PlanSetCache::new();
                black_box(model.best_plan_in(&cache, batch, &placement))
            })
        });
        let warm = PlanSetCache::new();
        model.best_plan_in(&warm, batch, &placement);
        group.bench_with_input(BenchmarkId::new("planset_warm", &tag), &gpus, |b, _| {
            b.iter(|| black_box(model.best_plan_in(&warm, batch, &placement)))
        });
        // A repeat of a seen placement class through a pre-resolved row,
        // as the Rubick policy asks: two array indexes and a class scan,
        // no hashing and no scoring.
        let mut memo = BestPlanMemo::new();
        let row = memo.row(&model, batch);
        memo.best_plan_at(row, &model, &warm, batch, &placement);
        group.bench_with_input(BenchmarkId::new("memo_hit", &tag), &gpus, |b, _| {
            b.iter(|| black_box(memo.best_plan_at(row, &model, &warm, batch, &placement)))
        });
        // A class that differs from a stored one only in `cpus`, as
        // Rubick's `reclaim_cpus` asks one 4-CPU step at a time: the miss
        // re-scores only the ZeRO-Offload plans. Each timed call gets a
        // fresh memo whose row already holds the sibling class; seeding
        // it and dropping it are not timed. llama-30b/16 holds no offload
        // plan, so its class ignores `cpus` and a CPU step is a hit.
        let plans = warm.plans(&model.spec, gpus, batch, &model.shape, &model.env);
        if !plans.iter().any(|p| p.memory == MemoryMode::ZeroOffload) {
            continue;
        }
        let sibling = Placement {
            cpus: placement.cpus - 4,
            ..placement.clone()
        };
        group.bench_with_input(
            BenchmarkId::new("memo_miss_cpu_step", &tag),
            &gpus,
            |b, _| {
                b.iter_batched(
                    || {
                        let mut memo = BestPlanMemo::new();
                        let row = memo.row(&model, batch);
                        memo.best_plan_at(row, &model, &warm, batch, &sibling);
                        (memo, row)
                    },
                    |(mut memo, row)| {
                        let answer = memo.best_plan_at(row, &model, &warm, batch, &placement);
                        (memo, answer)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

/// Cold vs warm GPU-curve construction: the naive reference runs the full
/// re-enumerating `best_plan` at every point; the optimized build hits the
/// global plan-set cache at every point after the first pass warms it.
fn bench_curve_build(c: &mut Criterion) {
    let model = ThroughputModel::new(
        ModelSpec::gpt2_xl(),
        PerfParams::default(),
        ClusterEnv::a800(),
        NodeShape::a800(),
    );
    let batch = 16u32;
    let max_gpus = 16u32;
    let mut group = c.benchmark_group("model/curve_build");
    group.sample_size(20);
    group.bench_function("naive", |b| {
        b.iter(|| black_box(reference::for_gpus_naive(&model, batch, max_gpus)))
    });
    // Warm the global plan-set cache once so the measured build is the
    // steady-state scheduler path (plan sets cached, unchecked scoring).
    SensitivityCurve::for_gpus(&model, batch, max_gpus);
    group.bench_function("warm", |b| {
        b.iter(|| black_box(SensitivityCurve::for_gpus(&model, batch, max_gpus)))
    });
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let spec = ModelSpec::roberta_large();
    let env = ClusterEnv::a800();
    let truth = PerfParams::default();
    let shape = NodeShape::a800();
    let points: Vec<DataPoint> = [
        (ExecutionPlan::dp(1), 1u32),
        (ExecutionPlan::dp(4), 4),
        (ExecutionPlan::dp(8).with_ga(2), 8),
        (ExecutionPlan::zero_dp(8), 8),
        (ExecutionPlan::zero_offload(1), 1),
        (ExecutionPlan::zero_offload(2), 2),
        (ExecutionPlan::zero_offload(4).with_gc(), 4),
    ]
    .into_iter()
    .map(|(plan, g)| {
        let placement = Placement::packed(g, &shape);
        let t = truth.iter_time(&spec, &plan, 64, &placement, &env);
        DataPoint::new(plan, placement, 64, t)
    })
    .collect();
    let mut group = c.benchmark_group("model/fit_7_points");
    group.sample_size(10);
    group.bench_function("gauss_newton_12_starts", |b| {
        b.iter(|| black_box(fit_perf_params(&spec, &env, &points, &FitOptions::default()).unwrap()))
    });
    group.finish();
}

/// The online-refit hot path: a damped Gauss–Newton update seeded from
/// stale parameters over a 7-point observation window — what
/// `RegistryRefitter` pays per material-drift detection at simulation
/// time (`--refit`). It is one warm-started run of the descent that the
/// profile fit above runs from 12 starts, so it must stay well below that
/// fit's cost.
fn bench_refit_update(c: &mut Criterion) {
    let spec = ModelSpec::roberta_large();
    let env = ClusterEnv::a800();
    let truth = PerfParams::default();
    let shape = NodeShape::a800();
    let points: Vec<DataPoint> = [
        (ExecutionPlan::dp(1), 1u32),
        (ExecutionPlan::dp(4), 4),
        (ExecutionPlan::dp(8).with_ga(2), 8),
        (ExecutionPlan::zero_dp(8), 8),
        (ExecutionPlan::zero_offload(1), 1),
        (ExecutionPlan::zero_offload(2), 2),
        (ExecutionPlan::zero_offload(4).with_gc(), 4),
    ]
    .into_iter()
    .map(|(plan, g)| {
        let placement = Placement::packed(g, &shape);
        // The observed truth runs 40% slower than the seed predicts —
        // the same drift magnitude the refit test suite uses.
        let t = 1.4 * truth.iter_time(&spec, &plan, 64, &placement, &env);
        DataPoint::new(plan, placement, 64, t)
    })
    .collect();
    let stale = truth;
    let mut group = c.benchmark_group("model/refit_update");
    group.sample_size(20);
    group.bench_function("gauss_newton_12_steps", |b| {
        b.iter(|| black_box(refit_params(&spec, &env, &stale, &points, 12)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_iter_time,
    bench_enumerate,
    bench_curve,
    bench_best_plan,
    bench_curve_build,
    bench_fit,
    bench_refit_update
);
criterion_main!(benches);
